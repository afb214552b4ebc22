"""Pluggable sentiment prediction and cause detection.

Both pretrained upstream models the pipeline would normally call are
replaced by provider interfaces: an oracle backend, a lexicon/heuristic
backend, and a file-backed fixture backend. Every provider counts its
invocations so ablation tests can prove disabled modules were never
touched.
"""

from __future__ import annotations

import json
from pathlib import Path

from .corpus import DialogueSample, EmotionLabel, LabelSet, Utterance, tokenize
from .util import read_asset, read_jsonl

# The file of authored labels and cause spans that FixtureSentimentPredictor
# and FileCauseDetector read, as make-fixtures names it.
SELECTOR_FIXTURE = "selector_fixture.jsonl"


class FixtureMissError(KeyError):
    """A fixture-backed provider had no entry for the requested key."""


def load_lexicon(labels: LabelSet | None = None) -> dict[str, list[str]]:
    """word -> emotion names; every name must exist in the label set."""
    labels = labels or LabelSet.default()
    lexicon = json.loads(read_asset("emotion_lexicon.json"))
    for word, names in lexicon.items():
        for name in names:
            if name not in labels:
                raise ValueError(f"lexicon word {word!r} maps to unknown emotion {name!r}")
    return lexicon


def majority_label(samples: list[DialogueSample], labels: LabelSet) -> EmotionLabel:
    """Most frequent gold label; ties broken by label index."""
    counts = [0] * len(labels)
    for s in samples:
        counts[s.gold_emotion.index] += 1
    best = max(range(len(labels)), key=lambda i: (counts[i], -i))
    return labels.by_index(best)


class SentimentPredictor:
    """Dialogue-level sentiment label provider."""

    def __init__(self):
        self.calls = 0

    def predict(self, sample: DialogueSample) -> EmotionLabel:
        if not sample.history:
            raise ValueError("cannot predict sentiment of an empty dialogue")
        self.calls += 1
        return self._predict(sample)

    def _predict(self, sample: DialogueSample) -> EmotionLabel:
        raise NotImplementedError


class OracleSentimentPredictor(SentimentPredictor):
    def _predict(self, sample: DialogueSample) -> EmotionLabel:
        return sample.gold_emotion


class LexiconSentimentPredictor(SentimentPredictor):
    """Token-occurrence vote over the lexicon, ties broken by label index.

    Zero votes fall back to the corpus-majority label supplied at
    construction time.
    """

    def __init__(self, lexicon: dict[str, list[str]], labels: LabelSet, fallback: EmotionLabel):
        super().__init__()
        self.lexicon = lexicon
        self.labels = labels
        self.fallback = fallback

    def _predict(self, sample: DialogueSample) -> EmotionLabel:
        votes = [0] * len(self.labels)
        for utt in sample.history:
            for tok in tokenize(utt.text):
                for name in self.lexicon.get(tok, ()):
                    votes[self.labels.get(name).index] += 1
        if max(votes) == 0:
            return self.fallback
        best = min(i for i in range(len(votes)) if votes[i] == max(votes))
        return self.labels.by_index(best)


class FixtureSentimentPredictor(SentimentPredictor):
    def __init__(self, path: str | Path, labels: LabelSet):
        super().__init__()
        self.labels = labels
        self.table = {rec["id"]: rec["e_ano"] for _, rec in read_jsonl(path, id=str, e_ano=str)}

    def _predict(self, sample: DialogueSample) -> EmotionLabel:
        if sample.id not in self.table:
            raise FixtureMissError(f"no sentiment fixture for sample id {sample.id!r}")
        return self.labels.get(self.table[sample.id])


class CauseDetector:
    """Selects the emotion-evoking subset of the dialogue history.

    The output preserves input order, is always a subset of the history,
    and is never empty: when nothing matches, the last speaker utterance
    is returned.
    """

    def __init__(self):
        self.calls = 0

    def detect(self, sample: DialogueSample, target: EmotionLabel) -> list[Utterance]:
        self.calls += 1
        picked = self._detect(sample, target)
        if not picked:
            picked = [sample.last_utterance]
        return picked

    def _detect(self, sample: DialogueSample, target: EmotionLabel) -> list[Utterance]:
        raise NotImplementedError


class HeuristicCauseDetector(CauseDetector):
    """Keeps utterances containing at least one lexicon word of the target."""

    def __init__(self, lexicon: dict[str, list[str]]):
        super().__init__()
        self.lexicon = lexicon

    def _detect(self, sample: DialogueSample, target: EmotionLabel) -> list[Utterance]:
        picked = []
        for utt in sample.history:
            for tok in tokenize(utt.text):
                if target.name in self.lexicon.get(tok, ()):
                    picked.append(utt)
                    break
        return picked


class FileCauseDetector(CauseDetector):
    """Authored cause spans looked up by sample id.

    Backs the fixture cause backend: samples carry no gold cause
    annotation, so ground truth is whatever spans were authored alongside
    the corpus.
    """

    def __init__(self, path: str | Path):
        super().__init__()
        rows = read_jsonl(path, id=str, cause_turn_indices=list)
        for where, rec in rows:
            if not all(type(i) is int for i in rec["cause_turn_indices"]):
                raise ValueError(f"{where}: field 'cause_turn_indices' holds an entry that is not an integer")
        self.table = {rec["id"]: rec["cause_turn_indices"] for _, rec in rows}

    def _detect(self, sample: DialogueSample, target: EmotionLabel) -> list[Utterance]:
        if sample.id not in self.table:
            raise FixtureMissError(f"no cause fixture for sample id {sample.id!r}")
        indices = sorted(set(self.table[sample.id]))
        for i in indices:
            if i < 0 or i >= len(sample.history):
                raise ValueError(f"cause turn index {i} out of range for sample {sample.id!r}")
        return [sample.history[i] for i in indices]

