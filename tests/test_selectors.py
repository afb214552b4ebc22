import re

import pytest

from empgen.corpus import LabelSet, parse_sample
from empgen.selectors import (
    FileCauseDetector,
    FixtureMissError,
    FixtureSentimentPredictor,
    HeuristicCauseDetector,
    LexiconSentimentPredictor,
    OracleSentimentPredictor,
    load_lexicon,
    majority_label,
)
from empgen.util import write_jsonl


def sample_from(history_texts, labels, emotion="lonely", sid="s0"):
    history = [
        {"role": "speaker" if i % 2 == 0 else "listener", "text": t}
        for i, t in enumerate(history_texts)
    ]
    return parse_sample(
        {"id": sid, "history": history, "emotion": emotion, "response": "ok then"}, labels
    )


def test_oracle_returns_gold(labels):
    sample = sample_from(["some words here"], labels, emotion="grateful")
    predictor = OracleSentimentPredictor()
    assert predictor.predict(sample).name == "grateful"
    assert predictor.calls == 1


def test_lexicon_vote_counts_occurrences(labels):
    # Two lonely tokens vs one joyful token: lonely wins on occurrences.
    lexicon = {"alone": ["lonely"], "happy": ["joyful"]}
    predictor = LexiconSentimentPredictor(lexicon, labels, labels.by_index(0))
    sample = sample_from(["i feel alone and alone", "but happy too", "yes"], labels)
    assert predictor.predict(sample).name == "lonely"


def test_lexicon_tie_breaks_by_label_index(labels):
    lexicon = {"alone": ["lonely"], "happy": ["joyful"]}
    predictor = LexiconSentimentPredictor(lexicon, labels, labels.by_index(0))
    sample = sample_from(["alone but happy"], labels)
    # joyful (index 22) beats lonely (index 23) on the tie.
    assert predictor.predict(sample).name == "joyful"


def test_lexicon_key_order_irrelevant(labels):
    lex_a = {"alone": ["lonely"], "happy": ["joyful"]}
    lex_b = {"happy": ["joyful"], "alone": ["lonely"]}
    sample = sample_from(["alone but happy"], labels)
    a = LexiconSentimentPredictor(lex_a, labels, labels.by_index(0)).predict(sample)
    b = LexiconSentimentPredictor(lex_b, labels, labels.by_index(0)).predict(sample)
    assert a == b


def test_lexicon_zero_votes_falls_back_to_majority(labels, mini_samples):
    # Independent frequency count over the corpus.
    counts = {}
    for s in mini_samples:
        counts[s.gold_emotion.index] = counts.get(s.gold_emotion.index, 0) + 1
    best = min(i for i in counts if counts[i] == max(counts.values()))
    fallback = majority_label(mini_samples, labels)
    assert fallback.index == best

    predictor = LexiconSentimentPredictor({}, labels, fallback)
    sample = sample_from(["nothing matches here"], labels)
    assert predictor.predict(sample) == fallback


def test_fixture_sentiment_and_missing_id(tmp_path, labels):
    write_jsonl(tmp_path / "f.jsonl", [{"id": "s0", "e_ano": "proud"}])
    predictor = FixtureSentimentPredictor(tmp_path / "f.jsonl", labels)
    assert predictor.predict(sample_from(["x"], labels, sid="s0")).name == "proud"
    with pytest.raises(FixtureMissError, match="s1"):
        predictor.predict(sample_from(["x"], labels, sid="s1"))


def test_malformed_fixture_line_is_refused_by_path_and_line(tmp_path, labels):
    path = tmp_path / "f.jsonl"
    path.write_text('{"id": "s0", "e_ano": "proud"}\n\n{"id": "s1", "e_ano": }\n', encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}, line 3: Expecting value at column 23$"):
        FixtureSentimentPredictor(path, labels)


def test_heuristic_selects_matching_utterance(labels):
    lexicon = {"alone": ["lonely"]}
    detector = HeuristicCauseDetector(lexicon)
    sample = sample_from(["fine words", "listener words", "i am alone now"], labels)
    picked = detector.detect(sample, labels.get("lonely"))
    assert [u.turn_index for u in picked] == [2]


def test_heuristic_empty_falls_back_to_last_speaker(labels):
    detector = HeuristicCauseDetector({})
    sample = sample_from(["a b", "c d", "e f"], labels)
    picked = detector.detect(sample, labels.get("sad"))
    assert picked == [sample.history[-1]]


def test_file_cause_detector_exact_spans(tmp_path, labels):
    write_jsonl(
        tmp_path / "c.jsonl",
        [{"id": "s0", "e_ano": "lonely", "cause_turn_indices": [2, 0]}],
    )
    detector = FileCauseDetector(tmp_path / "c.jsonl")
    sample = sample_from(["one", "two", "three"], labels, sid="s0")
    picked = detector.detect(sample, labels.get("lonely"))
    assert [u.turn_index for u in picked] == [0, 2]  # order preserved


def test_detectors_subset_order_property(labels, lexicon, rng):
    # Randomized dialogues: output is always an ordered subset of the input.
    detector = HeuristicCauseDetector(lexicon)
    words = list(lexicon.keys()) + ["filler", "words", "again"]
    for trial in range(30):
        n = int(rng.choice([1, 3, 5]))
        texts = [
            " ".join(words[int(i)] for i in rng.integers(0, len(words), 4))
            for _ in range(n)
        ]
        sample = sample_from(texts, labels, sid=f"t{trial}")
        target = labels.by_index(int(rng.integers(0, 32)))
        picked = detector.detect(sample, target)
        indices = [u.turn_index for u in picked]
        assert indices == sorted(indices)
        assert set(indices) <= set(range(n))
        assert len(picked) >= 1


def test_lexicon_asset_validates(labels):
    lexicon = load_lexicon(labels=labels)
    covered = {name for names in lexicon.values() for name in names}
    assert covered == set(labels.names)


def test_lexicons_are_equal_and_independent(labels):
    first = load_lexicon(labels)
    assert load_lexicon(labels) == first
    word = next(iter(first))
    first[word].append("edited")
    first["edited"] = ["joyful"]
    second = load_lexicon(labels)
    assert "edited" not in second and "edited" not in second[word]


def test_lexicon_is_checked_against_the_labels_given_on_every_call(labels):
    load_lexicon(labels)
    fewer = LabelSet([name for name in labels.names if name != "lonely"])
    with pytest.raises(ValueError, match="unknown emotion 'lonely'"):
        load_lexicon(fewer)
