import json

import pytest

from empgen.corpus import parse_sample
from empgen.fixtures import (
    generate_mini_corpus,
    write_knowledge_fixtures,
    write_selector_fixtures,
)
from empgen.util import write_jsonl

from .helpers import case_sample, load_case_fixture


def test_size_below_label_count_rejected():
    with pytest.raises(ValueError, match="at least 32"):
        generate_mini_corpus(seed=0, size=31)


def test_balanced_label_histogram(labels):
    records = generate_mini_corpus(seed=0, size=200)
    counts = {}
    for r in records:
        counts[r["emotion"]] = counts.get(r["emotion"], 0) + 1
    assert set(counts.values()) <= {6, 7}
    assert len(counts) == 32


def test_same_seed_byte_identical(tmp_path):
    a = generate_mini_corpus(seed=9, size=64)
    b = generate_mini_corpus(seed=9, size=64)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(pa, a)
    write_jsonl(pb, b)
    assert pa.read_bytes() == pb.read_bytes()


def test_every_dialogue_validates(labels):
    for record in generate_mini_corpus(seed=3, size=96):
        sample = parse_sample(record, labels)
        assert sample.history[-1].role == "speaker"


def test_dialogues_carry_label_signal(labels, lexicon):
    # Each dialogue plants at least one lexicon word of its own label.
    from empgen.corpus import tokenize

    for record in generate_mini_corpus(seed=5, size=64):
        label = record["emotion"]
        words = set()
        for turn in record["history"]:
            words.update(tokenize(turn["text"]))
        assert any(label in lexicon.get(w, ()) for w in words), record["id"]


def test_cause_indices_point_at_label_words(tmp_path, lexicon):
    from empgen.corpus import tokenize

    records = generate_mini_corpus(seed=5, size=64)
    rows = [json.loads(l) for l in write_selector_fixtures(records, tmp_path).read_text().splitlines()]
    for record, row in zip(records, rows):
        turns = [tokenize(turn["text"]) for turn in record["history"]]
        label = record["emotion"]
        label_turns = [i for i, words in enumerate(turns) if any(label in lexicon.get(w, ()) for w in words)]
        assert row["cause_turn_indices"] == (label_turns or [len(turns) - 1]), record["id"]


def test_selector_fixture_file(tmp_path, labels):
    records = generate_mini_corpus(seed=2, size=32)
    path = write_selector_fixtures(records, tmp_path)
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(rows) == 32
    assert all(r["e_ano"] in labels.names for r in rows)
    assert all(r["cause_turn_indices"] for r in rows)
    # one file serves both fixture-backed selector providers
    from empgen.corpus import parse_sample
    from empgen.selectors import FileCauseDetector, FixtureSentimentPredictor

    sample = parse_sample(records[0], labels)
    predictor = FixtureSentimentPredictor(path, labels)
    detector = FileCauseDetector(path)
    assert predictor.predict(sample).name == records[0]["emotion"]
    assert detector.detect(sample, sample.gold_emotion)


def test_knowledge_fixture_files_deterministic(tmp_path, labels):
    records = generate_mini_corpus(seed=2, size=32)
    k1, a1 = write_knowledge_fixtures(records, tmp_path / "one")
    k2, a2 = write_knowledge_fixtures(records, tmp_path / "two")
    assert k1.read_bytes() == k2.read_bytes()
    assert a1.read_bytes() == a2.read_bytes()


def test_case_fixture_fields(labels):
    case = load_case_fixture()
    assert case["emotion"] == "grateful"
    assert case["analysis"].startswith("Based on the content of the dialogue")
    sample = case_sample(labels)
    assert len(sample.history) == 3
    assert sample.gold_emotion.name == "grateful"
