"""Dataset ingestion, splitting, vocabulary, and dialogue tokenization.

A dialogue is an odd-length list of strictly alternating utterances that
starts and ends with the speaker. The encoder consumes one flat id
sequence: a summary token, then the utterances joined by separator
tokens, most recent turns kept on truncation.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import canonical_json, read_asset, read_json, read_jsonl, require_fields, sha256_hex, write_file

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


def _validate_history(raw_history: list, where: str) -> tuple[Utterance, ...]:
    if len(raw_history) % 2 == 0:  # also when empty
        raise DatasetError(f"{where}: history length must be odd, got {len(raw_history)}")
    utterances = []
    for i, item in enumerate(raw_history):
        if not isinstance(item, dict) or not isinstance(item.get("text"), str):
            raise DatasetError(f"{where}: turn {i} must be an object with a string 'text'")
        role, expected = item.get("role"), "speaker" if i % 2 == 0 else "listener"
        if role != expected:
            raise DatasetError(f"{where}: role at turn {i} must be {expected!r}, got {role!r}")
        text = normalize_text(item["text"])
        if not text:
            raise DatasetError(f"{where}: empty text at turn {i}")
        utterances.append(Utterance(role, text, i))
    return tuple(utterances)


def parse_sample(record: dict, labels: LabelSet, where: str = "record") -> DialogueSample:
    """A validated sample; ``where`` names the record in error messages."""
    require_fields(record, where, DatasetError, id=str, history=list, emotion=str, response=str)
    history = _validate_history(record["history"], where)
    emotion = record["emotion"]
    if emotion not in labels:
        raise DatasetError(f"{where}: unknown emotion {emotion!r}")
    response = normalize_text(record["response"])
    if not response:
        raise DatasetError(f"{where}: empty response")
    return DialogueSample(record["id"], history, labels.get(emotion), response)


def dialogue_sample(record: dict, labels: LabelSet, where: str) -> DialogueSample:
    """The sample of a dialogue to answer: ``record``'s ``history``, and an
    ``id``, ``emotion`` and ``response`` where it holds none."""
    return parse_sample({"id": "adhoc", "emotion": labels.names[0], "response": "placeholder", **record}, labels, where)


def read_dialogue(path: str | Path, labels: LabelSet) -> DialogueSample:
    """The sample of a ``generate --dialogue`` file: a JSON object, as
    ``dialogue_sample`` takes it, refused by the file's path."""
    return dialogue_sample(read_json(path, "dialogue", DatasetError), labels, f"dialogue {path}")


def load_dataset(path: str | Path, labels: LabelSet | None = None) -> list[DialogueSample]:
    """Load and validate a JSONL dataset, in order; a bad line is refused by its file and line."""
    labels = labels or LabelSet.default()
    if not Path(path).exists():
        raise DatasetError(f"dataset not found: {path}")
    return [parse_sample(record, labels, where) for where, record in read_jsonl(path, DatasetError)]


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
    shown = ", ".join(map(str, ratios))
    if not all(math.isfinite(r) for r in ratios):
        raise DatasetError(f"split ratios must be finite, got {shown}")
    if any(r < 0 for r in ratios):
        raise DatasetError(f"split ratios must not be negative, got {shown}")
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
        ordered = {tok: self.token_to_id[tok] for tok in self.id_to_token}
        write_file(path, json.dumps(ordered, ensure_ascii=False, indent=0) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        """The vocabulary saved at ``path``: a JSON object of token to
        integer id. Any other content is refused by the file's path."""
        data = read_json(path, "vocabulary", DatasetError)
        try:
            if not all(type(i) is int for i in data.values()):
                raise DatasetError("not a JSON object of token to integer id")
            return cls(data)
        except DatasetError as exc:
            raise DatasetError(f"vocabulary {path}: {exc}") from exc

    def fingerprint(self) -> str:
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
