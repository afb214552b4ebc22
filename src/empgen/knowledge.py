"""Rational knowledge sources: commonsense relation texts and the
LLM-written emotional-chain analysis, both behind cached provider
interfaces so every pipeline run is reproducible offline.
"""

from __future__ import annotations

import json
import threading
import time
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

from .corpus import DialogueSample, EmotionLabel, tokenize
from .selectors import FixtureMissError
from .util import now_iso, read_asset, read_jsonl, require_fields, sha256_hex

RELATIONS = ("xIntent", "xEffect", "xWant", "xReact", "xNeed")

# The files of a knowledge dir: what FixtureCommonsenseProvider,
# FixtureLlmClient and AnalysisCache read there.
COMMONSENSE_FIXTURE = "commonsense_fixture.jsonl"
ANALYSIS_FIXTURE = "analysis_fixture.jsonl"
ANALYSIS_CACHE = "analysis_cache.jsonl"

# Deterministic backends stamp records with a fixed instant so knowledge
# caches are byte-identical across machines and reruns.
FIXED_TIMESTAMP = "1970-01-01T00:00:00+00:00"

_RELATION_PHRASES = {
    "xIntent": "intends to talk about",
    "xEffect": "gets a response after mentioning",
    "xWant": "wants to be heard about",
    "xReact": "feels strongly about",
    "xNeed": "needed to bring up",
}

_STOPWORDS = {"the", "a", "an", "i", "it", "to", "and", "of", "is", "was", "so", "my", "me"}


class LlmError(RuntimeError):
    """The LLM backend failed after retries."""


@dataclass(frozen=True)
class KnowledgeBundle:
    """One text per commonsense relation, generated from one utterance."""

    relations: dict[str, str]

    def __post_init__(self):
        if tuple(self.relations.keys()) != RELATIONS:
            raise ValueError(f"bundle must hold exactly the relations {RELATIONS}")
        for rel, text in self.relations.items():
            if not text.strip():
                raise ValueError(f"empty text for relation {rel}")

    def texts_in_order(self) -> list[str]:
        return [self.relations[r] for r in RELATIONS]


@dataclass(frozen=True)
class AnalysisRecord:
    """A cached prompt/response pair from the analysis LLM."""

    prompt: str
    response: str
    cache_key: str
    llm_id: str
    created_at: str

    def to_dict(self) -> dict:
        return {
            "cache_key": self.cache_key,
            "llm_id": self.llm_id,
            "prompt": self.prompt,
            "response": self.response,
            "created_at": self.created_at,
        }


RECORD_FIELDS = tuple(f.name for f in fields(AnalysisRecord))


def prompt_cache_key(prompt: str) -> str:
    return sha256_hex(prompt)


# ----------------------------------------------------------------------
# commonsense provider


class CommonsenseProvider:
    def __init__(self):
        self.calls = 0

    def generate(self, last_utterance: str) -> KnowledgeBundle:
        if not last_utterance.strip():
            raise ValueError("cannot generate commonsense for an empty utterance")
        self.calls += 1
        return self._generate(last_utterance)

    def _generate(self, last_utterance: str) -> KnowledgeBundle:
        raise NotImplementedError


class TemplateCommonsenseProvider(CommonsenseProvider):
    """Deterministic relation strings built from the utterance's last content word."""

    def _generate(self, last_utterance: str) -> KnowledgeBundle:
        words = [w for w in tokenize(last_utterance) if w not in _STOPWORDS]
        topic = words[-1] if words else "that"
        relations = {r: f"the speaker {_RELATION_PHRASES[r]} {topic}" for r in RELATIONS}
        return KnowledgeBundle(relations)


class FixtureCommonsenseProvider(CommonsenseProvider):
    """Relation texts looked up by the utterance's content hash."""

    def __init__(self, path: str | Path):
        super().__init__()
        self.table = {}
        for where, rec in read_jsonl(path, hash=str, relations=dict):
            require_fields(rec["relations"], f"{where}: field 'relations'", **dict.fromkeys(RELATIONS, str))
            self.table[rec["hash"]] = rec["relations"]

    @staticmethod
    def utterance_hash(text: str) -> str:
        return sha256_hex(text)

    def _generate(self, last_utterance: str) -> KnowledgeBundle:
        key = self.utterance_hash(last_utterance)
        if key not in self.table:
            raise FixtureMissError(f"no commonsense fixture for utterance hash {key}")
        relations = {r: self.table[key][r] for r in RELATIONS}
        return KnowledgeBundle(relations)


# ----------------------------------------------------------------------
# analysis prompt + LLM clients


def render_dialogue(history) -> str:
    lines = [f"{u.role.capitalize()}: {u.text}" for u in history]
    return "\n".join(lines)


def build_analysis_prompt(sample: DialogueSample, label: EmotionLabel) -> str:
    """Render the three-block prompt: persona, full dialogue, sentiment label.

    The template is a versioned asset with {{dialogue}} and {{label}}
    placeholders and is rendered bit-exactly.
    """
    if not sample.history:
        raise ValueError("cannot build an analysis prompt for an empty dialogue")
    template = read_asset("analysis_prompt_template.txt")
    return template.replace("{{dialogue}}", render_dialogue(sample.history)).replace(
        "{{label}}", label.name
    )


class LlmClient:
    llm_id = "none"
    deterministic = True

    def __init__(self):
        self.calls = 0

    def complete(self, prompt: str) -> str:
        if not prompt.strip():
            raise ValueError("empty prompt")
        self.calls += 1
        return self._complete(prompt)

    def _complete(self, prompt: str) -> str:
        raise NotImplementedError


class EchoLlmClient(LlmClient):
    """Offline stub: a digest-tagged paraphrase that names the sentiment."""

    llm_id = "echo-stub"

    def _complete(self, prompt: str) -> str:
        label = "uncertain"
        for line in prompt.splitlines():
            if line.startswith("Sentiment label:"):
                label = line.split(":", 1)[1].strip()
        digest = prompt_cache_key(prompt)[:12]
        # Lead with the label so downstream encodings of this stub carry
        # the signal near the summary position.
        return (
            f"{label} . based on the content of the dialogue , the speaker "
            f"appears to be feeling {label} . the wording of the conversation "
            f"points step by step to this {label} state . [{digest}]"
        )


class FixtureLlmClient(LlmClient):
    """Responses looked up by prompt hash from an authored JSONL file.

    Rows may carry either the prompt itself or a precomputed cache_key.
    """

    llm_id = "fixture"

    def __init__(self, path: str | Path):
        super().__init__()
        self.table: dict[str, str] = {}
        for where, rec in read_jsonl(path, response=str):
            if not isinstance(rec.get("cache_key") or rec.get("prompt"), str):
                raise ValueError(f"{where}: field 'cache_key' or 'prompt' is missing or not a str")
            self.table[rec.get("cache_key") or prompt_cache_key(rec["prompt"])] = rec["response"]

    def _complete(self, prompt: str) -> str:
        key = prompt_cache_key(prompt)
        if key not in self.table:
            raise FixtureMissError(f"no analysis fixture for prompt hash {key}")
        return self.table[key]


@dataclass
class HttpLlmConfig:
    base_url: str
    model_id: str
    auth_env: str = "EMPGEN_LLM_TOKEN"
    temperature: float = 0.8
    top_p: float = 0.95
    timeout: float = 30.0
    retries: int = 3
    backoff: float = 1.0


class HttpLlmClient(LlmClient):
    """Chat-completions style HTTP backend; only ever hit through the cache.

    A custom transport callable can be injected for tests; the default
    posts JSON with urllib, which it imports on its first post, so only
    a process that posts loads the HTTP stack. Retries use exponential
    backoff starting at ``config.backoff`` seconds.
    """

    deterministic = False

    def __init__(self, config: HttpLlmConfig, transport=None, sleep=time.sleep):
        super().__init__()
        self.config = config
        self.llm_id = config.model_id
        self._transport = transport or self._http_post
        self._sleep = sleep

    def _http_post(self, payload: dict) -> dict:
        import os
        import urllib.request

        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.config.auth_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        req = urllib.request.Request(
            self.config.base_url,
            data=json.dumps(payload).encode("utf-8"),
            headers=headers,
        )
        with urllib.request.urlopen(req, timeout=self.config.timeout) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def _complete(self, prompt: str) -> str:
        payload = {
            "model": self.config.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "top_p": self.config.top_p,
        }
        last_error = None
        for attempt in range(self.config.retries):
            try:
                body = self._transport(payload)
                return body["choices"][0]["message"]["content"]
            except (OSError, KeyError, ValueError) as exc:
                last_error = exc
                if attempt + 1 < self.config.retries:
                    self._sleep(self.config.backoff * (2**attempt))
        raise LlmError(
            f"llm backend failed after {self.config.retries} attempts "
            f"(cache_key={prompt_cache_key(prompt)}): {last_error}"
        )


# ----------------------------------------------------------------------
# cache


def _opens_with_json(line: bytes) -> bool:
    """Whether ``line`` starts with a whole JSON value."""
    try:
        json.JSONDecoder().raw_decode(line.decode("utf-8", "replace").lstrip())
    except ValueError:
        return False
    return True


class AnalysisCache:
    """Append-only JSONL cache keyed by prompt hash.

    Reads are lock-free against an in-memory dict; appends are serialized
    through a single lock (single-writer contract).
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._records: dict[str, AnalysisRecord] = {}
        self._lock = threading.Lock()
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        """Read the file. An unparseable last line with no newline is an
        append cut short by a crash: it is dropped, with a warning, and cut
        from the file so that the next append starts on a clean line. An
        unparseable line before it, or one that ends in its newline or opens
        with a whole JSON value, which a cut-short append never does, is
        damage this cache cannot explain: it raises and leaves the file as
        it is, as does any line that is not a JSON object with a string for
        each field of an ``AnalysisRecord``, or whose ``cache_key`` is not
        that of its prompt."""
        data = self.path.read_bytes()
        offset = 0
        for number, line in enumerate(data.splitlines(keepends=True), 1):
            offset += len(line)
            if not line.strip():
                continue
            where = f"{self.path}:{number}: malformed analysis cache line"
            try:
                rec = json.loads(line)
            except ValueError as exc:
                if line.endswith(b"\n") or data[offset:].strip() or _opens_with_json(line):
                    raise ValueError(f"{where}: {exc}") from exc
                warnings.warn(f"{self.path}:{number}: dropped a torn last line", RuntimeWarning, stacklevel=3)
                with open(self.path, "r+b") as fh:
                    fh.truncate(offset - len(line))
                return
            require_fields(rec, where, **dict.fromkeys(RECORD_FIELDS, str))
            record = AnalysisRecord(**{name: rec[name] for name in RECORD_FIELDS})
            if record.cache_key != prompt_cache_key(record.prompt):
                raise ValueError(f"{where}: cache_key is not the SHA-256 of the prompt")
            self._records[record.cache_key] = record
        if data and not data.endswith(b"\n"):  # the last append was cut short after its record
            with open(self.path, "ab") as fh:
                fh.write(b"\n")

    def __len__(self) -> int:
        return len(self._records)

    def get(self, cache_key: str) -> AnalysisRecord | None:
        return self._records.get(cache_key)

    def put(self, record: AnalysisRecord) -> None:
        with self._lock:
            if record.cache_key in self._records:
                return
            self._records[record.cache_key] = record
            if self.path is not None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a", encoding="utf-8", newline="\n") as fh:
                    fh.write(json.dumps(record.to_dict(), ensure_ascii=False) + "\n")


def query_analysis(prompt: str, client: LlmClient, cache: AnalysisCache) -> AnalysisRecord:
    """Cache hit returns the stored record without touching the client."""
    if not prompt.strip():
        raise ValueError("empty prompt")
    key = prompt_cache_key(prompt)
    hit = cache.get(key)
    if hit is not None:
        return hit
    response = client.complete(prompt)
    if not response.strip():
        raise LlmError(f"llm returned an empty response (cache_key={key})")
    record = AnalysisRecord(
        prompt=prompt,
        response=response,
        cache_key=key,
        llm_id=client.llm_id,
        created_at=FIXED_TIMESTAMP if client.deterministic else now_iso(),
    )
    cache.put(record)
    return record
