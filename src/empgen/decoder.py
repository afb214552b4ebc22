"""Tri-stream decoder: memory assembly over the fused context, knowledge
and analysis representations, teacher-forced NLL, and token-by-token
generation (greedy or beam).

Generation runs without the autodiff tape and feeds one new row per
hypothesis per step: a ``DecoderCache`` keeps the memory's cross-attention
keys and values, projected once per response, and every layer's
self-attention keys and values of the rows fed so far. The live beams
advance together in one batched step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, embedding, log_softmax, no_grad, take_per_row
from .corpus import BOS_ID, EOS_ID, Vocab
from .layers import DecoderLayer, KeyValues, Linear, causal_mask, pad_ids, sinusoidal_positions

SEGMENT_CONTEXT, SEGMENT_KNOWLEDGE, SEGMENT_ANALYSIS = 0, 1, 2
NUM_SEGMENTS = 3

DEFAULT_MAX_GEN_LEN = 32


@dataclass
class DecoderMemory:
    """Row-stacked memory with per-row segment ids.

    Row order is fixed: context rows, then knowledge rows, then analysis
    rows. Disabled streams are simply absent. A padded batch has values
    (B, rows, d), each stream padded to its longest member, and an additive
    ``key_mask`` (B, rows) that hides the padding from cross-attention.
    """

    values: Tensor
    segment_ids: np.ndarray
    key_mask: np.ndarray | None = None

    def segment_histogram(self) -> dict[int, int]:
        ids, counts = np.unique(self.segment_ids, return_counts=True)
        return {int(i): int(c) for i, c in zip(ids, counts)}

    def rows_of(self, segment: int) -> np.ndarray:
        return self.values.data[self.segment_ids == segment]


def assemble_memory(
    context_rep: Tensor,
    knowledge_rep: Tensor | None = None,
    analysis_rep: Tensor | None = None,
    lengths=None,
) -> DecoderMemory:
    """Stack the streams' rows. For a padded batch, ``lengths`` gives each
    stream's (B,) valid row counts, in argument order (None for an absent
    stream)."""
    reps = (context_rep, knowledge_rep, analysis_rep)
    lengths = lengths or (None,) * len(reps)
    d = context_rep.shape[-1]
    parts, segments, valid = [], [], []
    for rep, n, seg in zip(reps, lengths, (SEGMENT_CONTEXT, SEGMENT_KNOWLEDGE, SEGMENT_ANALYSIS)):
        if rep is None:
            continue
        if rep.shape[-1] != d:
            raise ValueError(f"width mismatch in memory: {rep.shape[-1]} vs {d}")
        parts.append(rep)
        segments.append(np.full(rep.shape[-2], seg, dtype=np.int64))
        if n is not None:
            valid.append(np.arange(rep.shape[-2]) < n[:, None])
    values = concat(parts, axis=-2) if len(parts) > 1 else parts[0]
    valid = np.concatenate(valid, axis=-1) if valid else None
    key_mask = None if valid is None or valid.all() else np.where(valid, 0.0, -1e9)
    return DecoderMemory(values, np.concatenate(segments), key_mask)


class DecoderCache:
    """What one response's decoding keeps between steps.

    ``memory`` holds each layer's cross-attention keys and values of the
    segment-tagged memory, projected on the first step; ``past`` holds
    each layer's self-attention keys and values of the ``length`` rows fed
    so far, one set per hypothesis when the rows are batched.
    """

    def __init__(self):
        self.memory: list[KeyValues] | None = None
        self.past: dict[int, KeyValues] = {}
        self.length = 0

    def reorder(self, parents) -> None:
        """Keep, for each next hypothesis, the rows of its parent (as
        constants: only inference reorders hypotheses)."""
        self.past = {i: KeyValues(Tensor(k.data[parents]), Tensor(v.data[parents])) for i, (k, v) in self.past.items()}


class DecoderStack:
    """Masked self-attention plus cross-attention over the segment-tagged memory."""

    def __init__(
        self,
        rng: np.random.Generator,
        vocab_size: int,
        d: int,
        layers: int,
        heads: int,
        ffn_mult: int = 4,
        dropout: float = 0.1,
        max_len: int = 512,
        token_embedding: Tensor | None = None,
    ):
        from .autodiff import parameter

        self.vocab_size = vocab_size
        self.d = d
        self.dropout = dropout
        self.token_embedding = (
            token_embedding
            if token_embedding is not None
            else parameter(rng.normal(0.0, 0.02, (vocab_size, d)))
        )
        self.segment_embedding = parameter(rng.normal(0.0, 0.02, (NUM_SEGMENTS, d)))
        self.positions = sinusoidal_positions(max_len, d)
        self.layers = [DecoderLayer(rng, d, heads, ffn_mult) for _ in range(layers)]
        self.out_proj = Linear(rng, d, vocab_size)

    def forward(
        self,
        input_ids,
        memory: DecoderMemory,
        rng: np.random.Generator | None = None,
        cache: DecoderCache | None = None,
    ) -> Tensor:
        """Logits over the vocabulary for every input position.

        ``input_ids`` is one sequence, or a list of equally long rows, one
        per hypothesis. Without a cache they are whole prefixes; with one
        they follow the rows the cache holds, which then grows by them.
        """
        ids = np.asarray(input_ids, dtype=np.int64)
        if ids.size == 0:
            raise ValueError("decoder needs at least one input token")
        cache = cache if cache is not None else DecoderCache()
        drop = self.dropout if rng is not None else 0.0
        m, p = ids.shape[-1], cache.length
        x = embedding(self.token_embedding, ids) + Tensor(self.positions[p : p + m])
        if cache.memory is None:
            mem = memory.values + embedding(self.segment_embedding, memory.segment_ids)
            cache.memory = [layer.cross_attn.keys_values(mem) for layer in self.layers]
        mask = causal_mask(m, p)
        memory_mask = None if memory.key_mask is None else memory.key_mask[..., None, None, :]
        for i, layer in enumerate(self.layers):
            x, cache.past[i] = layer(x, cache.memory[i], mask, drop, rng, cache.past.get(i), memory_mask)
        cache.length = p + m
        return self.out_proj(x)

    def parameters(self) -> dict[str, Tensor]:
        out = {
            "token_embedding": self.token_embedding,
            "segment_embedding": self.segment_embedding,
        }
        for i, layer in enumerate(self.layers):
            for k, v in layer.parameters().items():
                out[f"layers.{i}.{k}"] = v
        for k, v in self.out_proj.parameters().items():
            out[f"out_proj.{k}"] = v
        return out


def nll_loss(
    target_ids,
    memory: DecoderMemory,
    stack: DecoderStack,
    rng: np.random.Generator | None = None,
):
    """Teacher-forced negative log-likelihood, summed over target positions.

    For one target sequence, returns the scalar sum (a graph node) and the
    per-token values used for perplexity. For a list of them, decoded as
    one padded batch over a batched memory, returns a (B,) node of
    per-sample sums, to which padded positions add nothing, and a list of
    per-token arrays.
    """
    single = len(target_ids) > 0 and np.ndim(target_ids[0]) == 0
    seqs = [target_ids] if single else target_ids
    if not len(seqs) or not all(len(t) for t in seqs):
        raise ValueError("empty target")
    targets, lengths = pad_ids(seqs)
    input_ids = np.concatenate([np.full((len(targets), 1), BOS_ID), targets[:, :-1]], axis=1)
    if single:
        targets, input_ids = targets[0], input_ids[0]
    logits = stack.forward(input_ids, memory, rng)
    logp = log_softmax(logits, axis=-1)
    picked = take_per_row(logp, targets)
    per_token = -picked.data[..., 0]
    if single:
        return -picked.sum(), per_token.copy()
    valid = np.arange(targets.shape[1]) < lengths[:, None]
    if not valid.all():
        picked = picked * Tensor(valid[..., None])
    total = -picked.sum(axis=(1, 2))
    return total, [row[:n].copy() for row, n in zip(per_token, lengths)]


@dataclass
class GeneratedResponse:
    ids: list[int]
    text: str
    log_probs: list[float]


def greedy_decode(step_fn, eos_id: int, max_len: int, bos_id: int = BOS_ID):
    """Argmax decoding; exact ties resolve to the lowest token id.

    ``step_fn(prefixes, parents=None)`` returns next-token log-probs, one
    row per prefix; greedy decoding passes its one prefix.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    ids: list[int] = []
    log_probs: list[float] = []
    while len(ids) < max_len:
        lp = step_fn([[bos_id] + ids])[0]
        tok = int(np.argmax(lp))
        ids.append(tok)
        log_probs.append(float(lp[tok]))
        if tok == eos_id:
            break
    return ids, log_probs


def beam_decode(step_fn, k: int, eos_id: int, max_len: int, bos_id: int = BOS_ID):
    """Beam search over summed log-probs, length-normalized at final selection.

    Every step advances all live hypotheses in one ``step_fn(prefixes,
    parents)`` call, where ``parents[i]`` is the row of the previous call
    that prefix i extends. Candidate ordering breaks ties by token id then
    parent rank, so beam(1) reproduces greedy decoding exactly. Returns the
    best sequence and its per-token log-probs.
    """
    if k < 1:
        raise ValueError("beam size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    # A hypothesis is (ids, summed score, per-token log-probs).
    live: list[tuple[tuple[int, ...], float, tuple[float, ...]]] = [((), 0.0, ())]
    finished: list[tuple[tuple[int, ...], float, tuple[float, ...]]] = []
    parents = [0]
    for _ in range(max_len):
        if not live:
            break
        lp = step_fn([[bos_id, *ids] for ids, _, _ in live], parents)
        scores = np.array([[score] for _, score, _ in live]) + lp
        ranks, toks = np.indices(lp.shape)
        # Best k by score, ties to the lower token id, then the lower rank.
        order = np.lexsort((ranks.ravel(), toks.ravel(), -scores.ravel()))[:k]
        previous, parents, live = live, [], []
        for i in order:
            rank, tok = divmod(int(i), lp.shape[1])
            ids, _, lps = previous[rank]
            hyp = (ids + (tok,), float(scores.flat[i]), lps + (float(lp[rank, tok]),))
            if tok == eos_id:
                finished.append(hyp)
            else:
                live.append(hyp)
                parents.append(rank)
    finished.extend(live)  # hypotheses cut off at max_len count as ended
    best = min(finished, key=lambda h: (-h[1] / len(h[0]), h[0]))
    return list(best[0]), list(best[2])


def generate(
    memory: DecoderMemory,
    stack: DecoderStack,
    vocab: Vocab | None = None,
    strategy: str = "greedy",
    beam_size: int = 3,
    max_gen_len: int = DEFAULT_MAX_GEN_LEN,
) -> GeneratedResponse:
    if strategy not in ("greedy", "beam"):
        raise ValueError(f"unknown decoding strategy {strategy!r}")
    cache = DecoderCache()

    def step_fn(prefixes, parents=None) -> np.ndarray:
        if parents is not None:
            cache.reorder(parents)
        new = [prefix[cache.length :] for prefix in prefixes]
        logits = stack.forward(new, memory, cache=cache).data[:, -1]
        z = logits - logits.max(axis=-1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    with no_grad():
        if strategy == "greedy":
            ids, log_probs = greedy_decode(step_fn, EOS_ID, max_gen_len)
        else:
            ids, log_probs = beam_decode(step_fn, beam_size, EOS_ID, max_gen_len)
    text = vocab.decode(ids) if vocab is not None else ""
    return GeneratedResponse(ids, text, log_probs)
