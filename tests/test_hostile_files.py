"""Property tests over damaged files on disk: each drawn mutation of a
valid file either loads equal to the original or is refused by the
reader's own error."""

import argparse
import copy
import functools
import io
import json
import operator
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from empgen.cli import load_config
from empgen.corpus import RESERVED_TOKENS, DatasetError, LabelSet, Vocab, load_dataset, read_dialogue
from empgen.knowledge import (
    FIXED_TIMESTAMP,
    RELATIONS,
    AnalysisCache,
    AnalysisRecord,
    FixtureCommonsenseProvider,
    FixtureLlmClient,
    prompt_cache_key,
)
from empgen.selectors import FileCauseDetector, FixtureSentimentPredictor
from empgen.training import CheckpointError, TrainConfig, load_checkpoint, save_checkpoint

HOSTILE = settings(derandomize=True, database=None, deadline=None, max_examples=40)

VOCAB = Vocab({tok: i for i, tok in enumerate([*RESERVED_TOKENS, *(f"w{i}" for i in range(18))])})
CONFIG = TrainConfig(seed=3, d=8, layers=1, heads=2, ffn_mult=2, dropout=0.0)
MODEL = CONFIG.build_model(len(VOCAB))


def checkpoint_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(Path(tmp) / "ck.npz", MODEL, CONFIG, VOCAB)
        return (Path(tmp) / "ck.npz").read_bytes()


RAW = checkpoint_bytes()
with np.load(io.BytesIO(RAW), allow_pickle=False) as _archive:
    ARRAYS = dict(_archive)
META = json.loads(str(ARRAYS["meta"]))
PARAMS = sorted(k for k in ARRAYS if k.startswith("param/"))


def archive_bytes(arrays: dict, meta: dict | None) -> bytes:
    """An archive of the arrays and, unless None, the metadata."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays, **({} if meta is None else {"meta": np.array(json.dumps(meta))}))
    return buffer.getvalue()


def load(raw: bytes):
    """The checkpoint loaded from ``raw``, or None if it was refused."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.npz"
        path.write_bytes(raw)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a dropped fingerprint warns and loads
                return load_checkpoint(path, VOCAB)
        except CheckpointError:
            return None


def assert_loads_equal_or_refused(raw: bytes) -> None:
    loaded = load(raw)
    if loaded is None:
        return
    assert loaded.config == CONFIG
    for name, p in loaded.model.named_parameters().items():
        assert p.data.dtype == np.float64
        assert p.data.tobytes() == ARRAYS[f"param/{name}"].tobytes(), name


def test_the_unmutated_checkpoint_loads_equal():
    rebuilt = archive_bytes({k: ARRAYS[k] for k in PARAMS}, META)
    for raw in (RAW, rebuilt):
        assert load(raw) is not None
        assert_loads_equal_or_refused(raw)


@HOSTILE
@given(cut=st.integers(0, len(RAW) - 1))
def test_a_truncated_checkpoint_is_refused(cut):
    assert load(RAW[:cut]) is None


@settings(HOSTILE, max_examples=150)
@given(at=st.integers(0, len(RAW) - 1), mask=st.integers(1, 255))
def test_a_checkpoint_with_a_flipped_byte_loads_equal_or_is_refused(at, mask):
    raw = bytearray(RAW)
    raw[at] ^= mask
    assert_loads_equal_or_refused(bytes(raw))


RETYPED_VALUES = st.sampled_from([None, True, 7, -1, 2.5, "x", [], [1, 2], {}])
RETYPED_ARRAYS = st.sampled_from(["str", "bool", "int", "float32", "complex", "scalar", "object", "empty"])


def retyped(array: np.ndarray, kind: str) -> np.ndarray:
    return {
        "str": lambda: array.astype(str),
        "bool": lambda: array > 0,
        "int": lambda: array.astype(np.int64),
        "float32": lambda: array.astype(np.float32),
        "complex": lambda: array.astype(np.complex128),
        "scalar": lambda: np.float64(array.flat[0]),
        "object": lambda: array.astype(object),
        "empty": lambda: np.zeros((0,)),
    }[kind]()


@HOSTILE
@given(key=st.sampled_from(sorted(META)), drop=st.booleans(), value=RETYPED_VALUES)
def test_a_dropped_or_retyped_meta_key_loads_equal_or_is_refused(key, drop, value):
    meta = {k: v for k, v in META.items() if k != key}
    if not drop:
        meta[key] = value
    params = {k: ARRAYS[k] for k in PARAMS}
    assert_loads_equal_or_refused(archive_bytes(params, meta))


META_ENTRIES = [
    np.array(1.5),
    np.array(json.dumps(META).encode()),
    np.array([json.dumps(META)]),
    np.array(json.dumps(META), dtype=object),
]


@HOSTILE
@given(entry=st.sampled_from([None, *range(len(META_ENTRIES))]))
def test_a_dropped_or_retyped_meta_entry_is_refused(entry):
    params = {k: ARRAYS[k] for k in PARAMS}
    if entry is not None:
        params["meta"] = META_ENTRIES[entry]
    assert load(archive_bytes(params, None)) is None


@HOSTILE
@given(name=st.sampled_from(PARAMS), drop=st.booleans(), kind=RETYPED_ARRAYS)
def test_a_dropped_or_retyped_array_is_refused(name, drop, kind):
    params = {k: ARRAYS[k] for k in PARAMS if k != name}
    if not drop:
        params[name] = retyped(ARRAYS[name], kind)
    assert load(archive_bytes(params, META)) is None


@HOSTILE
@given(name=st.sampled_from(PARAMS), at=st.integers(0, 10**6), value=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_a_non_finite_parameter_is_refused(name, at, value):
    params = {k: ARRAYS[k].copy() for k in PARAMS}
    params[name].flat[at % params[name].size] = value
    assert load(archive_bytes(params, META)) is None


RECORD = {
    "id": "d1",
    "history": [
        {"role": "speaker", "text": "i lost my keys"},
        {"role": "listener", "text": "oh no"},
        {"role": "speaker", "text": "found them at last"},
    ],
    "emotion": "anxious",
    "response": "glad you found them",
}
# The record itself, each of its fields, each turn and each field of a turn.
RECORD_PLACES = [
    (),
    *((key,) for key in RECORD),
    *(("history", i, *key) for i, turn in enumerate(RECORD["history"]) for key in [(), *((k,) for k in turn)]),
]
LABELS = LabelSet.default()


def load_record(record):
    """The samples of a one-line dataset of ``record``, or None if it was
    refused; a refusal names the file and the line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        try:
            return load_dataset(path, LABELS)
        except DatasetError as exc:
            assert str(exc).startswith(f"{path}, line 1: "), exc
            return None


def test_the_unmutated_record_loads():
    [sample] = load_record(RECORD)
    assert sample.id == "d1" and len(sample.history) == 3


@HOSTILE
@given(place=st.sampled_from(RECORD_PLACES), drop=st.booleans(), value=RETYPED_VALUES)
@example(place=("history", 1), drop=False, value="x")
@example(place=("history", 0, "text"), drop=False, value=7)
@example(place=("response",), drop=False, value=7)
@example(place=("emotion",), drop=False, value=[1, 2])
@example(place=(), drop=False, value=7)
@example(place=(), drop=False, value=None)
@example(place=("id",), drop=False, value={"a": 1})
def test_a_dropped_or_retyped_dataset_field_or_turn_loads_equal_or_is_refused(place, drop, value):
    record = copy.deepcopy(RECORD)
    if not place:
        record = value
    else:
        owner = functools.reduce(operator.getitem, place[:-1], record)
        if drop:
            del owner[place[-1]]
        else:
            assume(type(value) is not type(owner[place[-1]]))
            owner[place[-1]] = value
    loaded = load_record(record)
    assert loaded is None or loaded == load_record(RECORD)


# ----------------------------------------------------------------------
# Text files: the vocabulary, a --config file, a generate --dialogue file,
# a dataset, the analysis cache and the four fixture readers. Text has no checksum, so a flipped byte inside a
# value can change that one value; every other damage loads equal or is
# refused by the reader's own error, never a KeyError, TypeError or
# AttributeError.

SENTIMENT_ROWS = [{"id": "s0", "e_ano": "proud"}, {"id": "s1", "e_ano": "lonely"}]
CAUSE_ROWS = [{"id": "s0", "cause_turn_indices": [0]}, {"id": "s1", "cause_turn_indices": [2, 0]}]
COMMONSENSE_ROWS = [
    {"hash": h, "utterance": u, "relations": {r: f"{u} {r}" for r in RELATIONS}}
    for h, u in (("ab12", "i rest"), ("cd34", "i ran"))
]
LLM_ROWS = [{"prompt": "p", "response": "r"}, {"cache_key": "k1", "response": "s"}]
CACHE_ROWS = [
    AnalysisRecord(prompt, f"{prompt} said", prompt_cache_key(prompt), "echo", FIXED_TIMESTAMP).to_dict()
    for prompt in ("first prompt", "second prompt")
]
CONFIG_FILE = dict(
    seed=3, d=16, layers=1, heads=2, dropout=0.0, learning_rate=0.001, grad_clip=1.0, ablation="self_pres"
)


DATASET_ROWS = [RECORD, {**RECORD, "id": "d2", "emotion": "proud", "response": "well done"}]
DIALOGUE = {"history": RECORD["history"]}


def read_config(path):
    return asdict(load_config(argparse.Namespace(config=str(path))))


# Each reader: the rows or object it reads, how it is written, how it is
# read to a comparable value, and its own error. The JSONL readers' values
# are keyed by record, so that a file cut at a line end reads as a subset.
TEXT_READERS = {
    "vocab": (VOCAB.token_to_id, json.dumps, lambda p: Vocab.load(p).token_to_id, DatasetError),
    "config": (CONFIG_FILE, json.dumps, read_config, ValueError),
    "dialogue": (DIALOGUE, json.dumps, lambda p: asdict(read_dialogue(p, LABELS)), DatasetError),
    "dataset": (DATASET_ROWS, None, lambda p: {s.id: s for s in load_dataset(p, LABELS)}, DatasetError),
    "cache": (CACHE_ROWS, None, lambda p: dict(AnalysisCache(p)._records), ValueError),
    "sentiment": (SENTIMENT_ROWS, None, lambda p: FixtureSentimentPredictor(p, LABELS).table, ValueError),
    "cause": (CAUSE_ROWS, None, lambda p: FileCauseDetector(p).table, ValueError),
    "commonsense": (COMMONSENSE_ROWS, None, lambda p: FixtureCommonsenseProvider(p).table, ValueError),
    "llm": (LLM_ROWS, None, lambda p: FixtureLlmClient(p).table, ValueError),
}


def text_of(reader, content) -> bytes:
    dump = TEXT_READERS[reader][1]
    if dump is not None:
        return (dump(content) + "\n").encode()
    return "".join(json.dumps(row) + "\n" for row in content).encode()


def read_text(reader, raw: bytes):
    """The reader's value of a file holding ``raw``, or None if its own
    error refused the file; a refusal of a whole file names it."""
    _, _, read, error = TEXT_READERS[reader]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        path.write_bytes(raw)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the cache drops a torn last line with a warning
                return read(path)
        except error as exc:
            assert str(path) in str(exc), exc
            return None


ORIGINALS = {reader: read_text(reader, text_of(reader, content)) for reader, (content, *_) in TEXT_READERS.items()}
ORIGINAL_BYTES = {reader: text_of(reader, content) for reader, (content, *_) in TEXT_READERS.items()}


# The newline between the cache's two records, as a place in its file.
CACHE_NEWLINE = (ORIGINAL_BYTES["cache"].index(b"\n") + 0.5) / len(ORIGINAL_BYTES["cache"])


def keyed_bytes(raw: bytes) -> set[int]:
    """The offsets of the cache file's ``prompt`` and ``cache_key`` values,
    quotes included: a record's key is the SHA-256 of its prompt."""
    offsets, start = set(), 0
    for line in raw.splitlines(keepends=True):
        for name in ("prompt", "cache_key"):
            value = json.dumps(json.loads(line)[name]).encode()
            at = start + line.index(json.dumps(name).encode() + b": " + value) + len(name) + 4
            offsets.update(range(at, at + len(value)))
        start += len(line)
    return offsets


CACHE_KEYED = keyed_bytes(ORIGINAL_BYTES["cache"])


def differing(loaded: dict, original: dict) -> set:
    """The keys that one of the two lacks or that hold different values."""
    absent = object()
    return {k for k in loaded.keys() | original.keys() if loaded.get(k, absent) != original.get(k, absent)}


def test_the_unmutated_text_files_load():
    assert all(ORIGINALS.values())
    assert ORIGINALS["cause"] == {"s0": [0], "s1": [2, 0]} and ORIGINALS["config"]["grad_clip"] == 1.0


@HOSTILE
@given(reader=st.sampled_from(sorted(TEXT_READERS)), at=st.floats(0, 1, exclude_max=True))
@example(reader="config", at=0.999)  # cut of the last newline alone
def test_a_truncated_text_file_loads_whole_records_or_is_refused(reader, at):
    raw = ORIGINAL_BYTES[reader]
    cut = raw[: int(at * len(raw))]
    loaded = read_text(reader, cut)
    # A JSONL file cut at a line end holds fewer records, each as written.
    assert loaded is None or loaded.items() <= ORIGINALS[reader].items()
    if TEXT_READERS[reader][1] is not None:  # one object: whole only if just its last newline is cut
        assert loaded == (ORIGINALS[reader] if cut == raw.rstrip(b"\n") else None)


@settings(HOSTILE, max_examples=120)
@given(reader=st.sampled_from(sorted(TEXT_READERS)), at=st.floats(0, 1, exclude_max=True), mask=st.integers(1, 255))
@example(reader="cache", at=CACHE_NEWLINE, mask=ord("\n") ^ ord(" "))  # two records merged on one line
@example(reader="dataset", at=0.5, mask=0x80)  # a line that is not UTF-8
@example(reader="dialogue", at=0.5, mask=0x80)
@example(reader="cache", at=(min(CACHE_KEYED) + 0.5) / len(ORIGINAL_BYTES["cache"]), mask=0x20)  # the first key's quote
@example(reader="cache", at=(max(CACHE_KEYED) - 0.5) / len(ORIGINAL_BYTES["cache"]), mask=1)  # the last prompt's "t"
def test_a_text_file_with_a_flipped_byte_changes_one_value_or_is_refused(reader, at, mask):
    raw = bytearray(ORIGINAL_BYTES[reader])
    raw[int(at * len(raw))] ^= mask
    loaded = read_text(reader, bytes(raw))
    # One changed record reads as one key gone and one added, or one value changed.
    original = ORIGINALS[reader]
    assert loaded is None or (len(differing(loaded, original)) <= 2 and len(original.keys() - loaded.keys()) <= 1)
    # The cache checks each key against its prompt, so a flip in either is refused.
    if reader == "cache" and int(at * len(raw)) in CACHE_KEYED:
        assert loaded is None


def text_places(content):
    """The object and each of its keys; or each record of the rows, each
    of their fields and each entry of a field that holds a list or an
    object."""
    if isinstance(content, dict):
        return [(), *((key,) for key in content)]
    places = []
    for i, row in enumerate(content):
        places.append((i,))
        for key, value in row.items():
            inner = range(len(value)) if isinstance(value, list) else value if isinstance(value, dict) else ()
            places += [(i, key), *((i, key, k) for k in inner)]
    return places


TEXT_PLACES = [(reader, place) for reader, (content, *_) in TEXT_READERS.items() for place in text_places(content)]


@settings(HOSTILE, max_examples=150)
@given(where=st.sampled_from(TEXT_PLACES), drop=st.booleans(), value=RETYPED_VALUES)
@example(where=("cause", (1, "cause_turn_indices", 1)), drop=False, value="0")
@example(where=("cause", (0, "cause_turn_indices", 0)), drop=False, value=0.0)
@example(where=("cause", (0, "cause_turn_indices", 0)), drop=False, value=True)
@example(where=("commonsense", (0, "relations", "xReact")), drop=True, value=None)
@example(where=("config", ("d",)), drop=False, value=[1, 2])
@example(where=("config", ()), drop=False, value=7)
@example(where=("config", ()), drop=False, value=[1, 2])
@example(where=("dialogue", ()), drop=False, value=[1, 2])
@example(where=("dialogue", ()), drop=False, value="x")
@example(where=("dialogue", ("history",)), drop=False, value=7)
def test_a_dropped_or_retyped_text_key_loads_equal_or_is_refused(where, drop, value):
    reader, place = where
    content = copy.deepcopy(TEXT_READERS[reader][0])
    owner = functools.reduce(operator.getitem, place[:-1], content)
    if not place:
        assume(not drop)
        assert read_text(reader, text_of(reader, value)) is None
        return
    if drop and isinstance(owner, list):
        owner.pop(place[-1])
    elif drop:
        del owner[place[-1]]
    else:
        assume(type(value) is not type(owner[place[-1]]))
        owner[place[-1]] = value
    loaded = read_text(reader, text_of(reader, content))
    if reader == "config":  # a file sets some fields; the rest keep their defaults
        assert loaded == config_of(content)
    elif reader == "vocab" or (drop and len(place) == 1):
        assert loaded is None or loaded.items() <= ORIGINALS[reader].items()  # fewer tokens or records
    elif drop and isinstance(owner, list):  # a shorter list of turn indices
        assert loaded is None or len(differing(loaded, ORIGINALS[reader])) <= 1
    elif place[-1] == "utterance":  # an annotation the reader does not use
        assert loaded == ORIGINALS[reader]
    else:
        assert loaded is None


def config_of(fields: dict):
    """The settings ``TrainConfig`` makes of ``fields``, or None if it refuses them."""
    try:
        return asdict(TrainConfig(**fields))
    except ValueError:
        return None
