import json
import os
import subprocess
import sys
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import empgen

from empgen.corpus import DialogueSample
from empgen.knowledge import (
    RELATIONS,
    AnalysisCache,
    EchoLlmClient,
    FixtureCommonsenseProvider,
    FixtureLlmClient,
    HttpLlmClient,
    HttpLlmConfig,
    LlmError,
    TemplateCommonsenseProvider,
    build_analysis_prompt,
    prompt_cache_key,
    query_analysis,
)
from empgen.selectors import FixtureMissError
from empgen.util import write_jsonl

from .helpers import GOLDEN_PROMPT_PATH, case_analysis_fixture_rows, case_sample


def test_bundle_has_exactly_five_relations():
    bundle = TemplateCommonsenseProvider().generate("i passed my exam")
    assert tuple(bundle.relations.keys()) == RELATIONS
    assert all(bundle.relations.values())


def test_template_backend_deterministic():
    provider = TemplateCommonsenseProvider()
    a = provider.generate("i passed my exam today")
    b = provider.generate("i passed my exam today")
    assert a.relations == b.relations


def test_fixture_commonsense_lookup_and_miss(tmp_path):
    utterance = "i met my old friend"
    h = FixtureCommonsenseProvider.utterance_hash(utterance)
    authored = {r: f"authored {r} text" for r in RELATIONS}
    write_jsonl(tmp_path / "k.jsonl", [{"hash": h, "utterance": utterance, "relations": authored}])
    provider = FixtureCommonsenseProvider(tmp_path / "k.jsonl")
    assert provider.generate(utterance).relations == authored
    with pytest.raises(FixtureMissError, match="hash"):
        provider.generate("different text")


def test_prompt_contains_three_blocks(labels):
    sample = case_sample(labels)
    prompt = build_analysis_prompt(sample, labels.get("grateful"))
    assert "psychologist" in prompt
    assert "Speaker: One of the times" in prompt
    assert "Listener: That is a very blessed day" in prompt
    assert prompt.rstrip().endswith("Sentiment label: grateful")
    # three blocks joined by blank lines
    assert prompt.count("\n\n") >= 2


def test_prompt_empty_history_errors(labels):
    with pytest.raises(ValueError, match="empty"):
        build_analysis_prompt(DialogueSample("empty", (), labels.get("sad"), ""), labels.get("sad"))


def test_prompt_injective_on_label(labels):
    sample = case_sample(labels)
    a = build_analysis_prompt(sample, labels.get("grateful"))
    b = build_analysis_prompt(sample, labels.get("lonely"))
    assert a != b


def test_prompt_matches_golden_bytes(labels):
    sample = case_sample(labels)
    prompt = build_analysis_prompt(sample, sample.gold_emotion)
    assert prompt.encode("utf-8") == GOLDEN_PROMPT_PATH.read_bytes()


def test_cache_idempotent_single_backend_call(tmp_path):
    client = EchoLlmClient()
    cache = AnalysisCache(tmp_path / "cache.jsonl")
    first = query_analysis("Sentiment label: proud", client, cache)
    second = query_analysis("Sentiment label: proud", client, cache)
    assert client.calls == 1
    assert first == second
    # reload from disk: still a hit, still no backend call
    cache2 = AnalysisCache(tmp_path / "cache.jsonl")
    third = query_analysis("Sentiment label: proud", client, cache2)
    assert client.calls == 1
    assert third.response == first.response


def test_echo_contains_sentiment_word():
    client = EchoLlmClient()
    record = query_analysis("dialogue text\n\nSentiment label: hopeful", client, AnalysisCache())
    assert "hopeful" in record.response
    assert record.cache_key == prompt_cache_key("dialogue text\n\nSentiment label: hopeful")
    assert len(record.cache_key) == 64


def test_fixture_llm_returns_case_paragraph(labels, tmp_path):
    rows = case_analysis_fixture_rows()
    write_jsonl(tmp_path / "fx.jsonl", rows)
    client = FixtureLlmClient(tmp_path / "fx.jsonl")
    sample = case_sample(labels)
    prompt = build_analysis_prompt(sample, sample.gold_emotion)
    record = query_analysis(prompt, client, AnalysisCache())
    assert record.response.startswith("Based on the content of the dialogue")


def test_concurrent_warm_cache_reads(tmp_path):
    client = EchoLlmClient()
    cache = AnalysisCache(tmp_path / "cache.jsonl")
    prompts = [f"dialogue {i}\n\nSentiment label: proud" for i in range(4)]
    for p in prompts:
        query_analysis(p, client, cache)
    calls_before = client.calls

    def read_all(_):
        return [query_analysis(p, client, cache).response for p in prompts]

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(read_all, range(8)))
    assert client.calls == calls_before
    assert all(r == results[0] for r in results)


def test_cache_serialized_appends_under_threads(tmp_path):
    client = EchoLlmClient()
    cache = AnalysisCache(tmp_path / "cache.jsonl")
    prompts = [f"p {i}\n\nSentiment label: sad" for i in range(16)]

    def build(p):
        return query_analysis(p, client, cache)

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(build, prompts))
    lines = (tmp_path / "cache.jsonl").read_text().strip().splitlines()
    assert len(lines) == 16
    for line in lines:
        json.loads(line)


def test_http_client_retries_then_succeeds():
    attempts = []

    def transport(payload):
        attempts.append(payload)
        if len(attempts) < 3:
            raise OSError("connection reset")
        return {"choices": [{"message": {"content": "analysis text"}}]}

    sleeps = []
    client = HttpLlmClient(
        HttpLlmConfig("http://example.invalid", "test-model"), transport=transport, sleep=sleeps.append
    )
    assert client.complete("Sentiment label: sad") == "analysis text"
    assert len(attempts) == 3
    assert sleeps == [1.0, 2.0]  # the backoff starts at 1 s and doubles


def test_http_client_fails_with_cache_key():
    attempts = []

    def transport(payload):
        attempts.append(payload)
        raise OSError("down")

    client = HttpLlmClient(HttpLlmConfig("http://example.invalid", "m"), transport=transport, sleep=lambda s: None)
    key = prompt_cache_key("prompt body")
    with pytest.raises(LlmError, match=f"after {HttpLlmClient.ATTEMPTS} attempts .*{key}"):
        client.complete("prompt body")
    assert len(attempts) == HttpLlmClient.ATTEMPTS


def test_default_transport_posts_the_json_body_with_the_bearer_token(monkeypatch):
    sent = []

    class Reply:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def read(self):
            return json.dumps({"choices": [{"message": {"content": "analysis text"}}]}).encode("utf-8")

    def urlopen(request, timeout):
        sent.append((request, timeout))
        return Reply()

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    monkeypatch.setenv("EMPGEN_LLM_TOKEN", "secret")
    client = HttpLlmClient(HttpLlmConfig("http://llm.test/v1/chat", "test-model", timeout=7.0))
    assert client.complete("Sentiment label: sad") == "analysis text"
    [(request, timeout)] = sent
    assert (request.full_url, request.get_method(), timeout) == ("http://llm.test/v1/chat", "POST", 7.0)
    assert request.get_header("Authorization") == "Bearer secret"
    assert request.get_header("Content-type") == "application/json"
    assert json.loads(request.data) == {
        "model": "test-model",
        "messages": [{"role": "user", "content": "Sentiment label: sad"}],
        "temperature": 0.8,
        "top_p": 0.95,
    }


def test_importing_the_program_loads_no_http_stack():
    code = (
        "import sys; before = set(sys.modules); import empgen.cli, empgen.evaluation; "
        "print(sorted({'urllib.request', 'http.client', 'ssl'} & (set(sys.modules) - before)))"
    )
    src = str(Path(empgen.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_bundle_relation_property(rng):
    provider = TemplateCommonsenseProvider()
    for i in range(25):
        n = int(rng.integers(1, 8))
        text = " ".join(f"word{int(w)}" for w in rng.integers(0, 50, n))
        bundle = provider.generate(text)
        assert len(bundle.relations) == 5
        assert tuple(bundle.relations.keys()) == RELATIONS


def test_cache_drops_a_torn_last_line_and_appends_cleanly(tmp_path):
    path = tmp_path / "analysis_cache.jsonl"
    client = EchoLlmClient()
    query_analysis("Sentiment label: proud", client, AnalysisCache(path))
    query_analysis("Sentiment label: joyful", client, AnalysisCache(path))
    whole = path.read_bytes()
    path.write_bytes(whole + b'{"prompt": "Sentiment label: sad", "respo')  # append cut short
    with pytest.warns(RuntimeWarning, match="analysis_cache.jsonl:3"):
        cache = AnalysisCache(path)
    assert len(cache) == 2
    assert path.read_bytes() == whole
    query_analysis("Sentiment label: sad", client, cache)
    assert len(AnalysisCache(path)) == 3
    # Cut after a whole record but before its newline: the record stays.
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    cache = AnalysisCache(path)
    assert len(cache) == 3
    query_analysis("Sentiment label: calm", client, cache)
    assert len(AnalysisCache(path)) == 4


def test_cache_malformed_line_before_the_tail_raises(tmp_path):
    path = tmp_path / "analysis_cache.jsonl"
    client = EchoLlmClient()
    query_analysis("Sentiment label: proud", client, AnalysisCache(path))
    good = path.read_text(encoding="utf-8")
    path.write_text("{not json\n" + good, encoding="utf-8")
    with pytest.raises(ValueError, match="analysis_cache.jsonl:1"):
        AnalysisCache(path)


def test_cache_refuses_a_broken_last_line_that_ends_in_its_newline(tmp_path):
    # A cut-short append has no newline, so this line was written whole.
    path = tmp_path / "analysis_cache.jsonl"
    query_analysis("Sentiment label: proud", EchoLlmClient(), AnalysisCache(path))
    damaged = path.read_bytes().replace(b"proud", b"pr\x01ud")  # a control byte inside the prompt
    path.write_bytes(damaged)
    with pytest.raises(ValueError, match=r"analysis_cache\.jsonl:1: malformed analysis cache line: Invalid control"):
        AnalysisCache(path)
    assert path.read_bytes() == damaged


def test_cache_refuses_two_records_merged_on_the_last_line_and_leaves_the_file(tmp_path):
    path = tmp_path / "analysis_cache.jsonl"
    cache = AnalysisCache(path)
    for label in ("proud", "joyful", "sad"):
        query_analysis(f"Sentiment label: {label}", EchoLlmClient(), cache)
    lines = path.read_bytes().splitlines(keepends=True)
    merged = b"".join([lines[0], lines[1].rstrip(b"\n") + b" ", lines[2]])  # a flipped newline
    for damaged in (merged, merged.rstrip(b"\n")):
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match=r"analysis_cache\.jsonl:2: malformed analysis cache line: Extra data"):
            AnalysisCache(path)
        assert path.read_bytes() == damaged


RECORD = {"prompt": "p", "response": "r", "cache_key": "k", "llm_id": "echo", "created_at": "t"}


@pytest.mark.parametrize(
    "line, why",
    [
        ({k: v for k, v in RECORD.items() if k != "response"}, "field 'response' is missing or not a str"),
        ([RECORD], "not a JSON object"),
        (7, "not a JSON object"),
        ("a string", "not a JSON object"),
        ({**RECORD, "cache_key": ["k"]}, "field 'cache_key' is missing or not a str"),
        ({**RECORD, "created_at": None}, "field 'created_at' is missing or not a str"),
        (RECORD, "cache_key is not the SHA-256 of the prompt"),
    ],
    ids=["no response", "a list", "a number", "a string", "list cache_key", "null created_at", "another's key"],
)
def test_cache_line_of_the_wrong_shape_is_refused_by_line(tmp_path, line, why):
    path = tmp_path / "analysis_cache.jsonl"
    query_analysis("Sentiment label: proud", EchoLlmClient(), AnalysisCache(path))
    # Whole JSON, so not a torn append, even as the last line.
    path.write_text(path.read_text(encoding="utf-8") + json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"analysis_cache\.jsonl:2: malformed analysis cache line: {why}$"):
        AnalysisCache(path)


def test_empty_path_backed_cache_fills_through_prepare_samples(tmp_path, mini_samples, mini_vocab, providers):
    from empgen.model import PLANS, prepare_samples

    path = tmp_path / "analysis_cache.jsonl"
    providers.analysis_cache = AnalysisCache(path)
    samples = mini_samples[:6]
    first = prepare_samples(samples, mini_vocab, providers, PLANS["full"])
    assert providers.llm.calls == len(samples)
    assert len(AnalysisCache(path)) == len(samples)
    providers.analysis_cache = AnalysisCache(path)
    second = prepare_samples(samples, mini_vocab, providers, PLANS["full"])
    assert providers.llm.calls == len(samples)
    assert [p.analysis_ids for p in first] == [p.analysis_ids for p in second]
