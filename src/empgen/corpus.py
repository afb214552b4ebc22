"""Dataset ingestion, splitting, vocabulary, and dialogue tokenization.

A dialogue is an odd-length list of strictly alternating utterances that
starts and ends with the speaker. The encoder consumes one flat id
sequence: a summary token, then the utterances joined by separator
tokens, most recent turns kept on truncation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import canonical_json, read_asset

PAD, BOS, EOS, UNK, SEP, CLS = "<pad>", "<bos>", "<eos>", "<unk>", "<sep>", "<cls>"
RESERVED_TOKENS = [PAD, BOS, EOS, UNK, SEP, CLS]
PAD_ID, BOS_ID, EOS_ID, UNK_ID, SEP_ID, CLS_ID = range(6)

DEFAULT_MAX_CONTEXT_LEN = 256

_TOKEN_RE = re.compile(r"[a-z0-9']+")


class DatasetError(ValueError):
    """Raised when a dataset file or record violates the schema."""


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens; punctuation and whitespace act as separators."""
    return _TOKEN_RE.findall(text.lower())


def normalize_text(text: str) -> str:
    return " ".join(text.split())


@dataclass(frozen=True)
class EmotionLabel:
    name: str
    index: int


class LabelSet:
    """Bijective name<->index table over the emotion labels."""

    def __init__(self, names: list[str]):
        if len(set(names)) != len(names):
            raise DatasetError("duplicate emotion label names")
        self.names = list(names)
        self._index = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def get(self, name: str) -> EmotionLabel:
        if name not in self._index:
            raise DatasetError(f"unknown emotion label {name!r}")
        return EmotionLabel(name, self._index[name])

    def by_index(self, index: int) -> EmotionLabel:
        return EmotionLabel(self.names[index], index)

    @classmethod
    def default(cls) -> "LabelSet":
        return cls(json.loads(read_asset("labels_32.json")))


@dataclass(frozen=True)
class Utterance:
    role: str  # "speaker" | "listener"
    text: str
    turn_index: int


@dataclass(frozen=True)
class DialogueSample:
    id: str
    history: tuple[Utterance, ...]
    gold_emotion: EmotionLabel
    gold_response: str

    @property
    def last_utterance(self) -> Utterance:
        return self.history[-1]


def _validate_history(raw_history, line_no: int) -> tuple[Utterance, ...]:
    if not isinstance(raw_history, list) or not raw_history:
        raise DatasetError(f"line {line_no}: history must be a non-empty list")
    if len(raw_history) % 2 == 0:
        raise DatasetError(f"line {line_no}: history length must be odd, got {len(raw_history)}")
    utterances = []
    for i, item in enumerate(raw_history):
        role = item.get("role")
        expected = "speaker" if i % 2 == 0 else "listener"
        if role != expected:
            raise DatasetError(
                f"line {line_no}: role at turn {i} must be {expected!r}, got {role!r}"
            )
        text = normalize_text(item.get("text", ""))
        if not text:
            raise DatasetError(f"line {line_no}: empty text at turn {i}")
        utterances.append(Utterance(role, text, i))
    return tuple(utterances)


def parse_sample(record: dict, labels: LabelSet, line_no: int = 0) -> DialogueSample:
    for field in ("id", "history", "emotion", "response"):
        if field not in record:
            raise DatasetError(f"line {line_no}: missing field {field!r}")
    history = _validate_history(record["history"], line_no)
    emotion = record["emotion"]
    if emotion not in labels:
        raise DatasetError(f"line {line_no}: unknown emotion {emotion!r}")
    response = normalize_text(record["response"])
    if not response:
        raise DatasetError(f"line {line_no}: empty response")
    return DialogueSample(str(record["id"]), history, labels.get(emotion), response)


def load_dataset(path: str | Path, labels: LabelSet | None = None) -> list[DialogueSample]:
    """Load and validate a JSONL dataset; order is preserved."""
    labels = labels or LabelSet.default()
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset not found: {path}")
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"line {line_no}: invalid JSON: {exc}") from exc
            samples.append(parse_sample(record, labels, line_no))
    return samples


def sample_to_record(sample: DialogueSample) -> dict:
    return {
        "id": sample.id,
        "history": [{"role": u.role, "text": u.text} for u in sample.history],
        "emotion": sample.gold_emotion.name,
        "response": sample.gold_response,
    }


def split_dataset(
    samples: list[DialogueSample],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[list[DialogueSample], list[DialogueSample], list[DialogueSample]]:
    """Deterministic disjoint train/val/test split.

    Validation and test sizes are the ratios rounded to nearest; train
    takes every remaining sample, so rounding remainders land in train.
    """
    if not samples:
        raise DatasetError("cannot split an empty dataset")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DatasetError(f"split ratios must sum to 1, got {sum(ratios)}")
    n = len(samples)
    n_val = int(n * ratios[1] + 0.5)
    n_test = int(n * ratios[2] + 0.5)
    n_train = n - n_val - n_test
    if n_train < 0:
        raise DatasetError("split ratios leave no room for the train share")
    order = np.random.default_rng(seed).permutation(n)
    picked = [samples[i] for i in order]
    return picked[:n_train], picked[n_train : n_train + n_val], picked[n_train + n_val :]


class Vocab:
    """Word-level vocabulary with six reserved ids at positions 0-5."""

    def __init__(self, token_to_id: dict[str, int]):
        for i, tok in enumerate(RESERVED_TOKENS):
            if token_to_id.get(tok) != i:
                raise DatasetError(f"reserved token {tok!r} must map to id {i}")
        ids = sorted(token_to_id.values())
        if ids != list(range(len(token_to_id))):
            raise DatasetError("vocabulary ids must be contiguous from 0")
        self.token_to_id = dict(token_to_id)
        self.id_to_token = [None] * len(token_to_id)
        for tok, i in token_to_id.items():
            self.id_to_token[i] = tok

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    @classmethod
    def from_texts(cls, texts: list[str], min_freq: int = 1) -> "Vocab":
        if min_freq < 1:
            raise DatasetError("min_freq must be >= 1")
        counts: dict[str, int] = {}
        for text in texts:
            for tok in tokenize(text):
                counts[tok] = counts.get(tok, 0) + 1
        kept = [t for t, c in counts.items() if c >= min_freq]
        # Frequency descending, then lexicographic: deterministic id order.
        kept.sort(key=lambda t: (-counts[t], t))
        token_to_id = {tok: i for i, tok in enumerate(RESERVED_TOKENS)}
        for tok in kept:
            token_to_id[tok] = len(token_to_id)
        return cls(token_to_id)

    def encode_token(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def encode_text(self, text: str) -> list[int]:
        return [self.encode_token(t) for t in tokenize(text)]

    def tokens_of(self, ids: list[int]) -> list[str]:
        """The words of the ids, reserved ids skipped."""
        return [self.id_to_token[i] for i in ids if i >= len(RESERVED_TOKENS)]

    def decode(self, ids: list[int]) -> str:
        return " ".join(self.tokens_of(ids))

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        ordered = {tok: self.token_to_id[tok] for tok in self.id_to_token}
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(ordered, ensure_ascii=False, indent=0))
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def fingerprint(self) -> str:
        from .util import sha256_hex

        return sha256_hex(canonical_json(self.token_to_id))


def build_vocab(samples: list[DialogueSample], min_freq: int = 1) -> Vocab:
    """Vocabulary over all utterances and gold responses of the samples."""
    if not samples:
        raise DatasetError("cannot build a vocabulary from no samples")
    texts = []
    for s in samples:
        texts.extend(u.text for u in s.history)
        texts.append(s.gold_response)
    return Vocab.from_texts(texts, min_freq)


def encode_dialogue(
    sample: DialogueSample,
    vocab: Vocab,
    max_context_len: int = DEFAULT_MAX_CONTEXT_LEN,
) -> list[int]:
    """Flatten a dialogue to ids: summary token, then utterances joined by <sep>.

    Truncation keeps the suffix (most recent turns) but the position-0
    summary token is always retained.
    """
    ids = encode_cause_ids(sample.history, vocab)
    return [CLS_ID] + ids[max(len(ids) - (max_context_len - 1), 0) :]


def encode_cause_ids(utterances: list[Utterance], vocab: Vocab) -> list[int]:
    """Utterances joined by <sep>, no summary prefix."""
    ids: list[int] = []
    for i, utt in enumerate(utterances):
        if i > 0:
            ids.append(SEP_ID)
        ids.extend(vocab.encode_text(utt.text))
    return ids


def encode_response_ids(text: str, vocab: Vocab) -> list[int]:
    """Target-side ids: response tokens with a closing <eos>."""
    return vocab.encode_text(text) + [EOS_ID]
