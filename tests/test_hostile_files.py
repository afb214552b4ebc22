"""Property tests over damaged files on disk: each drawn mutation of a
valid file either loads equal to the original or is refused by the
reader's own error."""

import copy
import functools
import io
import json
import operator
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from empgen.corpus import RESERVED_TOKENS, DatasetError, LabelSet, Vocab, load_dataset
from empgen.training import CheckpointError, TrainConfig, load_checkpoint, save_checkpoint

HOSTILE = settings(derandomize=True, database=None, deadline=None, max_examples=40)

VOCAB = Vocab({tok: i for i, tok in enumerate([*RESERVED_TOKENS, *(f"w{i}" for i in range(18))])})
CONFIG = TrainConfig(seed=3, d=8, layers=1, heads=2, ffn_mult=2, dropout=0.0, num_emotions=5)
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
