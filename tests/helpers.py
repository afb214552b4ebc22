"""Helpers that only the tests use: summaries of training results,
views of model outputs, the training tape, the authored case and fixture
rows, and the perfbench scripts loaded as modules."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from empgen.autodiff import parameter
from empgen.corpus import LabelSet, parse_sample
from empgen.decoder import DecoderStack
from empgen.knowledge import build_analysis_prompt

DATA_DIR = Path(__file__).parent / "data"
PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN_PROMPT_PATH = DATA_DIR / "analysis_prompt_case_grateful.txt"


def load_perfbench(name: str):
    """``perfbench/<name>.py`` as a module, loaded by its file path:
    perfbench is a directory of scripts, not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_case_fixture() -> dict:
    """The authored grateful-dialogue case with its analysis paragraph."""
    return json.loads((DATA_DIR / "case_grateful.json").read_text(encoding="utf-8"))


def case_sample(labels: LabelSet | None = None):
    labels = labels or LabelSet.default()
    return parse_sample(load_case_fixture(), labels)


def epoch_mean_total(history, epoch: int) -> float:
    """Mean step total over one epoch of a ``train()`` history."""
    totals = [h.total for h in history if h.epoch == epoch]
    return float(np.mean(totals))


def gradient_footprint(model) -> frozenset:
    """Names of parameters carrying nonzero gradient.

    The decoder's segment-embedding table is reported per row, since which
    memory segments exist is exactly what distinguishes ablation configs.
    """
    names = set()
    for name, p in model.named_parameters().items():
        if p.grad is None or not np.any(p.grad != 0):
            continue
        if name.endswith("segment_embedding"):
            for row in range(p.data.shape[0]):
                if np.any(p.grad[row] != 0):
                    names.add(f"{name}[{row}]")
        else:
            names.add(name)
    return frozenset(names)


def buffer_of(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory of ``a``, a view or not."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape_of(loss, params: dict) -> tuple[list, list[np.ndarray]]:
    """The tape behind ``loss`` before its backward pass: its recorded
    nodes, and every array their backward closures hold, each buffer once.
    The nodes hold no values of their own. The ``params`` (name to Tensor)
    and read-only tables shared by every model, such as the position
    table, are not the tape's own."""
    nodes, stack, seen = [], [loss.node], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen and node.parents:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    shared = {id(buffer_of(p.data)) for p in params.values()}
    buffers = {}
    for cell in (c for n in nodes for c in n.backward.__closure__ or ()):
        a = cell.cell_contents
        if isinstance(a, np.ndarray) and a.flags.writeable:
            a = buffer_of(a)
            if id(a) not in shared:
                buffers[id(a)] = a
    return nodes, list(buffers.values())


def decoder_stack(rng, vocab_size: int, d: int, layers: int, heads: int, max_len: int) -> DecoderStack:
    """A standalone ``DecoderStack`` at ``ffn_mult`` 2 without dropout, over
    a (vocab_size, d) token table of its own, drawn from ``rng`` before the
    stack's own parameters."""
    table = parameter(rng.normal(0.0, 0.02, (vocab_size, d)))
    return DecoderStack(rng, table, layers, heads, ffn_mult=2, dropout=0.0, max_len=max_len)


def encode_one(stack, ids) -> np.ndarray:
    """The encoder rows (len(ids), d) of one id sequence, run through the
    padded path as a batch of one."""
    return stack.encode_padded(np.array([ids]), np.array([len(ids)])).data[0]


def memory_rows_of(memory, segment: int) -> np.ndarray:
    """The rows of one segment in a batched ``DecoderMemory``, (B, rows, d)."""
    return memory.values.data[:, memory.segment_ids == segment]


def relation_cls_positions(token_lists: list[list[int]]) -> list[int]:
    """Row indices of the five summary tokens inside the stacked encoding."""
    positions, offset = [], 0
    for ids in token_lists:
        positions.append(offset)
        offset += len(ids)
    return positions


def emotion_loss(probs: np.ndarray, target_index: int) -> float:
    """-log P(target) of an already-normalized probability vector."""
    probs = np.asarray(probs, dtype=np.float64)
    if target_index < 0 or target_index >= probs.shape[0]:
        raise IndexError(f"label index {target_index} out of range for {probs.shape[0]} labels")
    return float(-np.log(np.maximum(probs[target_index], 1e-300)))


def case_analysis_fixture_rows() -> list[dict]:
    """Fixture rows mapping the case prompt to its authored analysis."""
    case = load_case_fixture()
    sample = case_sample()
    prompt = build_analysis_prompt(sample, sample.gold_emotion)
    return [{"prompt": prompt, "response": case["analysis"]}]
