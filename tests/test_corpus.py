import json

import pytest

from empgen.corpus import (
    CLS_ID,
    SEP_ID,
    UNK_ID,
    DatasetError,
    LabelSet,
    Vocab,
    build_vocab,
    encode_dialogue,
    load_dataset,
    parse_sample,
    sample_to_record,
    split_dataset,
    tokenize,
)
from empgen.util import write_jsonl


def make_record(n_turns=3, emotion="grateful", text="hello there", response="that is kind"):
    history = []
    for i in range(n_turns):
        history.append({"role": "speaker" if i % 2 == 0 else "listener", "text": text})
    return {"id": f"s{n_turns}", "history": history, "emotion": emotion, "response": response}


def test_label_set_bijective(labels):
    assert len(labels) == 32
    for i, name in enumerate(labels.names):
        assert labels.get(name).index == i
        assert labels.by_index(i).name == name


def test_default_label_sets_are_equal_and_independent():
    first, second = LabelSet.default(), LabelSet.default()
    assert first is not second and first.names == second.names
    first.names.append("edited")
    first._index["edited"] = 32
    third = LabelSet.default()
    assert third.names == second.names and "edited" not in third


def test_load_valid_record(tmp_path, labels):
    write_jsonl(tmp_path / "d.jsonl", [make_record(3)])
    samples = load_dataset(tmp_path / "d.jsonl", labels)
    assert len(samples) == 1
    assert len(samples[0].history) == 3  # N=2 speaker turns
    assert samples[0].history[-1].role == "speaker"


def test_even_history_rejected(tmp_path, labels):
    bad = make_record(3)
    bad["history"] = bad["history"][:2]
    write_jsonl(tmp_path / "d.jsonl", [bad])
    with pytest.raises(DatasetError, match="history length"):
        load_dataset(tmp_path / "d.jsonl", labels)


def test_emotion_resolved_via_label_table(tmp_path, labels):
    write_jsonl(tmp_path / "d.jsonl", [make_record(emotion="grateful")])
    sample = load_dataset(tmp_path / "d.jsonl", labels)[0]
    assert sample.gold_emotion.index == labels.get("grateful").index


def test_malformed_json_names_line(tmp_path, labels):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(make_record()) + "\n{oops\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(path, labels)


def test_role_alternation_enforced(labels):
    bad = make_record(3)
    bad["history"][1]["role"] = "speaker"
    with pytest.raises(DatasetError, match="role at turn 1"):
        parse_sample(bad, labels)


def test_unknown_emotion_rejected(labels):
    with pytest.raises(DatasetError, match="unknown emotion"):
        parse_sample(make_record(emotion="elated"), labels)


def test_round_trip_record(labels):
    record = make_record(5)
    assert sample_to_record(parse_sample(record, labels)) == record


# ----------------------------------------------------------------------
# splitting


def test_split_10_samples(labels):
    samples = [parse_sample(make_record() | {"id": str(i)}, labels) for i in range(10)]
    train, val, test = split_dataset(samples, (0.8, 0.1, 0.1), seed=0)
    assert (len(train), len(val), len(test)) == (8, 1, 1)


def test_split_9_samples_remainder_to_train(labels):
    samples = [parse_sample(make_record() | {"id": str(i)}, labels) for i in range(9)]
    train, val, test = split_dataset(samples, (0.8, 0.1, 0.1), seed=0)
    assert (len(train), len(val), len(test)) == (7, 1, 1)


def test_split_deterministic_and_disjoint(labels):
    samples = [parse_sample(make_record() | {"id": str(i)}, labels) for i in range(37)]
    parts1 = split_dataset(samples, (0.8, 0.1, 0.1), seed=5)
    parts2 = split_dataset(samples, (0.8, 0.1, 0.1), seed=5)
    ids1 = [[s.id for s in part] for part in parts1]
    ids2 = [[s.id for s in part] for part in parts2]
    assert ids1 == ids2
    flat = [i for part in ids1 for i in part]
    assert sorted(flat) == sorted(s.id for s in samples)
    assert len(set(flat)) == len(flat)


def test_split_bad_ratios(labels):
    samples = [parse_sample(make_record(), labels)]
    with pytest.raises(DatasetError, match="sum to 1"):
        split_dataset(samples, (0.8, 0.1, 0.2), seed=0)


# ----------------------------------------------------------------------
# vocabulary


def test_vocab_hand_count():
    vocab = Vocab.from_texts(["a a b"], min_freq=1)
    assert len(vocab) == 8  # six reserved + a + b
    assert "a" in vocab and "b" in vocab


def test_vocab_min_freq():
    vocab = Vocab.from_texts(["a a b"], min_freq=2)
    assert len(vocab) == 7
    assert "b" not in vocab


def test_vocab_deterministic_ids():
    v1 = Vocab.from_texts(["c b b a a a"], min_freq=1)
    v2 = Vocab.from_texts(["c b b a a a"], min_freq=1)
    assert v1.token_to_id == v2.token_to_id
    # frequency desc then lexicographic
    assert v1.token_to_id["a"] < v1.token_to_id["b"] < v1.token_to_id["c"]


def test_vocab_serialization_byte_identical(tmp_path, mini_samples):
    v1 = build_vocab(mini_samples)
    v2 = build_vocab(mini_samples)
    p1, p2 = tmp_path / "v1.json", tmp_path / "v2.json"
    v1.save(p1)
    v2.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = Vocab.load(p1)
    assert loaded.token_to_id == v1.token_to_id


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Hello, there! don't-stop") == ["hello", "there", "don't", "stop"]


# ----------------------------------------------------------------------
# dialogue encoding


def test_encode_single_utterance(labels):
    sample = parse_sample(
        {"id": "x", "history": [{"role": "speaker", "text": "hi"}], "emotion": "sad", "response": "r"},
        labels,
    )
    vocab = Vocab.from_texts(["hi"])
    ids = encode_dialogue(sample, vocab)
    assert ids == [CLS_ID, vocab.token_to_id["hi"]]


def test_encode_three_single_token_utterances(labels):
    history = [
        {"role": "speaker", "text": "one"},
        {"role": "listener", "text": "two"},
        {"role": "speaker", "text": "three"},
    ]
    sample = parse_sample({"id": "x", "history": history, "emotion": "sad", "response": "r"}, labels)
    vocab = Vocab.from_texts(["one two three"])
    ids = encode_dialogue(sample, vocab)
    assert len(ids) == 6  # summary + 3 tokens + 2 separators
    assert ids[0] == CLS_ID
    assert ids.count(SEP_ID) == 2


def test_encode_oov_token(labels):
    sample = parse_sample(
        {"id": "x", "history": [{"role": "speaker", "text": "zebra"}], "emotion": "sad", "response": "r"},
        labels,
    )
    vocab = Vocab.from_texts(["hi"])
    assert encode_dialogue(sample, vocab) == [CLS_ID, UNK_ID]


def test_encode_truncation_keeps_suffix_and_cls(labels):
    text = " ".join(f"w{i}" for i in range(40))
    sample = parse_sample(
        {"id": "x", "history": [{"role": "speaker", "text": text}], "emotion": "sad", "response": "r"},
        labels,
    )
    vocab = Vocab.from_texts([text])
    ids = encode_dialogue(sample, vocab, max_context_len=10)
    assert len(ids) == 10
    assert ids[0] == CLS_ID
    assert ids[-1] == vocab.token_to_id["w39"]  # most recent tokens kept
    full = encode_dialogue(sample, vocab, max_context_len=4096)
    for cap in (1, 2):
        ids = encode_dialogue(sample, vocab, max_context_len=cap)
        assert ids == [CLS_ID] + full[len(full) - (cap - 1) :], cap


def test_encode_length_formula_property(mini_samples, mini_vocab):
    for sample in mini_samples[:20]:
        ids = encode_dialogue(sample, mini_vocab, max_context_len=4096)
        token_total = sum(len(tokenize(u.text)) for u in sample.history)
        expected = 1 + token_total + (len(sample.history) - 1)
        assert len(ids) == expected


def test_cause_ids_joined_by_sep(labels):
    from empgen.corpus import encode_cause_ids

    history = [
        {"role": "speaker", "text": "one two three"},
        {"role": "listener", "text": "four"},
        {"role": "speaker", "text": "five"},
    ]
    sample = parse_sample({"id": "x", "history": history, "emotion": "sad", "response": "r"}, labels)
    vocab = Vocab.from_texts(["one two three four five"])
    single = encode_cause_ids([sample.history[0]], vocab)
    assert len(single) == 3 and SEP_ID not in single
    pair = encode_cause_ids([sample.history[0], sample.history[2]], vocab)
    assert pair.count(SEP_ID) == 1
    # cause sequence over the full history equals the context encoding
    # minus its summary prefix
    assert encode_cause_ids(list(sample.history), vocab) == encode_dialogue(sample, vocab)[1:]
