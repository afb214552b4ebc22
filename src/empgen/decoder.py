"""Tri-stream decoder: memory assembly over the fused context, knowledge
and analysis representations, teacher-forced NLL, and token-by-token
generation (greedy or beam).

Teacher forcing and training run ``DecoderStack.forward`` on the tape.
Generation does not touch it: a ``DecoderStep`` runs each search step on
plain float64 arrays, feeding one new (B, d) row per hypothesis. Once
per reply it binds every array a step reads, projects each layer's
cross-attention keys and values of the memory head first, for one
product per head over all hypotheses, and joins each layer's
self-attention weights into one q, k and v product, whose new key and
value rows each step writes into preallocated buffers. Its logits are
the teacher-forced pass's, from the fused nodes' array forwards. Live
beams advance together; a beam whose rows stay is not copied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor, add_norm_array, attention_array, concat, cross_entropy, embedding, linear_array, log_softmax, parameter
)
from .corpus import BOS_ID, EOS_ID, Vocab
from .layers import DecoderLayer, LayerNorm, Linear, causal_mask, key_mask, pad_ids, sinusoidal_positions, unpadded

SEGMENT_CONTEXT, SEGMENT_KNOWLEDGE, SEGMENT_ANALYSIS = 0, 1, 2
NUM_SEGMENTS = 3

DEFAULT_MAX_GEN_LEN = 32
DEFAULT_BEAM_SIZE = 3


@dataclass
class DecoderMemory:
    """Row-stacked memory of a batch with per-row segment ids.

    Row order is fixed: context rows, then knowledge rows, then analysis
    rows. Disabled streams are simply absent. Values are (B, rows, d),
    each stream padded to its longest member, and an additive ``key_mask``
    (B, rows) hides the padding from cross-attention; it is None when
    nothing is padded, as for a batch of one.
    """

    values: Tensor
    segment_ids: np.ndarray
    key_mask: np.ndarray | None = None


def assemble_memory(
    context_rep: Tensor,
    knowledge_rep: Tensor | None = None,
    analysis_rep: Tensor | None = None,
    lengths=None,
) -> DecoderMemory:
    """Stack the streams' (B, rows, d) rows. ``lengths`` gives each
    stream's (B,) valid row counts, in argument order (None for an absent
    stream); without it nothing is padded."""
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
            valid.append(unpadded(n, rep.shape[-2]))
    values = concat(parts, axis=-2) if len(parts) > 1 else parts[0]
    mask = key_mask(np.concatenate(valid, axis=-1)) if valid else None
    return DecoderMemory(values, np.concatenate(segments), mask)


class DecoderStack:
    """Masked self-attention plus cross-attention over the segment-tagged memory, on ``max_len``
    positions and the (vocabulary, d) ``token_embedding`` it is given, whose shape sizes the stack."""

    def __init__(
        self,
        rng: np.random.Generator,
        token_embedding: Tensor,
        layers: int,
        heads: int,
        ffn_mult: int,
        dropout: float,
        max_len: int,
    ):
        vocab_size, d = token_embedding.shape
        self.dropout = dropout
        self.token_embedding = token_embedding
        self.segment_embedding = parameter(rng.normal(0.0, 0.02, (NUM_SEGMENTS, d)))
        self.positions = sinusoidal_positions(max_len, d)
        self.layers = [DecoderLayer(rng, d, heads, ffn_mult) for _ in range(layers)]
        self.out_proj = Linear(rng, d, vocab_size)

    def forward(self, input_ids, memory: DecoderMemory, rng: np.random.Generator | None = None) -> Tensor:
        """Logits over the vocabulary for every position of the whole
        prefixes ``input_ids``, equally long rows (B, m): one per sample,
        or one per hypothesis over a memory of one sample."""
        ids = np.asarray(input_ids, dtype=np.int64)
        if ids.size == 0:
            raise ValueError("decoder needs at least one input token")
        m = ids.shape[-1]
        x = embedding(self.token_embedding, ids) + Tensor(self.positions[:m])
        mem = memory.values + embedding(self.segment_embedding, memory.segment_ids)
        mask = causal_mask(m)
        memory_mask = None if memory.key_mask is None else memory.key_mask[..., None, :]
        for layer in self.layers:
            x = layer(x, mem, mask, self.dropout, rng, memory_mask)
        return self.out_proj(x)


def nll_loss(
    target_ids: list[list[int]],
    memory: DecoderMemory,
    stack: DecoderStack,
    rng: np.random.Generator | None = None,
):
    """Teacher-forced negative log-likelihood of the target sequences,
    decoded as one padded batch over the batched memory.

    Returns a (B,) node of per-sample sums over target positions, to which
    padded positions add nothing, and each sample's per-token values, used
    for perplexity.
    """
    if not len(target_ids) or not all(len(t) for t in target_ids):
        raise ValueError("empty target")
    targets, lengths = pad_ids(target_ids)
    input_ids = np.concatenate([np.full((len(targets), 1), BOS_ID), targets[:, :-1]], axis=1)
    nll = cross_entropy(stack.forward(input_ids, memory, rng), targets, unpadded(lengths, targets.shape[1]))
    return nll.sum(axis=1), [row[:n].copy() for row, n in zip(nll.data, lengths)]


@dataclass
class GeneratedResponse:
    ids: list[int]
    text: str
    log_probs: list[float]


def greedy_decode(step_fn, eos_id: int, max_len: int):
    """Argmax decoding; exact ties resolve to the lowest token id.

    ``step_fn(prefixes, parents=None)`` returns next-token log-probs, one
    row per prefix; greedy decoding passes its one prefix.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    ids: list[int] = []
    log_probs: list[float] = []
    while len(ids) < max_len:
        lp = step_fn([[BOS_ID] + ids])[0]
        tok = int(lp.argmax())
        ids.append(tok)
        log_probs.append(float(lp[tok]))
        if tok == eos_id:
            break
    return ids, log_probs


def beam_decode(step_fn, k: int, eos_id: int, max_len: int):
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
        lp = step_fn([[BOS_ID, *ids] for ids, _, _ in live], parents)
        scores = np.array([[score] for _, score, _ in live]) + lp
        # Best k by score, ties to the lower token id, then the lower rank;
        # only candidates no worse than the k-th best score can be picked.
        neg = -scores.ravel()
        last = min(k, neg.size) - 1
        cand = np.flatnonzero(~(neg > np.partition(neg, last)[last]))  # NaN kept, last, as in a full sort
        ranks, toks = np.divmod(cand, lp.shape[1])
        order = cand[np.lexsort((ranks, toks, neg[cand]))][:k]
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


class DecoderStep:
    """One reply's search state on plain arrays: each call feeds one new
    token per hypothesis and returns each hypothesis's next-token logits
    (B, vocab), those of the last row of ``DecoderStack.forward`` on its
    whole prefix. No ``Tensor`` is made, so nothing is recorded.

    Once per reply it binds every array a step reads, so that a step runs
    ``linear_array``, ``add_norm_array`` and ``attention_array`` on them
    with no method or attribute hop. ``memory`` is one sample's. Its rows
    plus their segment embedding are projected to each layer's
    cross-attention keys, (heads, d / heads, rows) as one product ``wkᵀ
    memᵀ``, and values, (heads, rows, d / heads), for one GEMM per head
    over the (heads, B, d / heads) queries. The self-attention q, k and v
    of the new (B, d) rows are one product with ``[wq | wk | wv]``, split
    by head with one reshape; the new keys and values go from it into (B,
    heads, ``max_len``, d / heads) buffers. A lone new row sees every row
    before it, so it needs no causal mask. One query row per hypothesis
    and a beam narrower than d / heads make both attentions shift.
    """

    def __init__(self, stack: DecoderStack, memory: DecoderMemory, max_len: int):
        self.length, self.scale, self.eps = 0, stack.layers[0].self_attn.scale, LayerNorm.EPS
        self.heads = heads = stack.layers[0].self_attn.heads
        self.embedding, self.positions = stack.token_embedding.data, stack.positions
        self.out_proj = stack.out_proj.weight.data, stack.out_proj.bias.data
        d = stack.positions.shape[1]
        mem = memory.values.data + stack.segment_embedding.data[memory.segment_ids]
        self.memory_mask = None if memory.key_mask is None else memory.key_mask[:, None, :]
        self.layers = []  # per layer, the arrays a step reads: its fused and memory ones, Linears, LayerNorms
        for layer in stack.layers:
            a, c = layer.self_attn, layer.cross_attn
            qkv = np.concatenate([a.wq.weight.data, a.wk.weight.data, a.wv.weight.data], axis=1)
            qkv_bias = np.concatenate([a.wq.bias.data, np.zeros(d), a.wv.bias.data])  # wk has no bias
            kt = (c.wk.weight.data.T @ mem.reshape(-1, d).T).reshape(heads, d // heads, -1)  # wk has no bias
            v = linear_array(mem, c.wv.weight.data, c.wv.bias.data).reshape(-1, heads, d // heads).swapaxes(0, 1)
            linears = [(p.weight.data, p.bias.data) for p in (a.wo, c.wq, c.wo, layer.ffn.lin1, layer.ffn.lin2)]
            norms = [(n.gain.data, n.bias.data) for n in (layer.ln1, layer.ln2, layer.ln3)]
            self.layers.append(((qkv, qkv_bias), (kt.swapaxes(1, 2), np.ascontiguousarray(v)), *linears, *norms))
        shape = (1, heads, max_len, d // heads)
        self.past = [(np.empty(shape), np.empty(shape)) for _ in stack.layers]

    def reorder(self, parents) -> None:
        """Keep, for each next hypothesis, the rows of its parent. When
        every hypothesis extends its own row, the buffers stay as they are."""
        if len(parents) != len(self.past[0][0]) or list(parents) != list(range(len(parents))):
            self.past = [(k[parents], v[parents]) for k, v in self.past]

    def __call__(self, tokens) -> np.ndarray:
        t, heads, scale, eps, mask = self.length, self.heads, self.scale, self.eps, self.memory_mask
        x = self.embedding[np.asarray(tokens, dtype=np.int64)] + self.positions[t]
        b, new = len(x), slice(t, t + 1)
        for (qkv, mem, self_wo, cross_wq, cross_wo, lin1, lin2, ln1, ln2, ln3), (k, v) in zip(self.layers, self.past):
            q, k[:, :, new], v[:, :, new] = linear_array(x, *qkv).reshape(b, 3, heads, 1, -1).swapaxes(0, 1)
            out = attention_array(q, k[:, :, : t + 1], v[:, :, : t + 1], scale)[0]
            x = add_norm_array(x, linear_array(out.reshape(b, -1), *self_wo), *ln1, eps)[0]
            q = linear_array(x, *cross_wq).reshape(b, heads, -1).swapaxes(0, 1)
            out = attention_array(q, *mem, scale, mask)[0]
            x = add_norm_array(x, linear_array(out.swapaxes(0, 1).reshape(b, -1), *cross_wo), *ln2, eps)[0]
            x = add_norm_array(x, linear_array(linear_array(x, *lin1, True), *lin2), *ln3, eps)[0]
        self.length = t + 1
        return linear_array(x, *self.out_proj)


def check_search(stack: DecoderStack, strategy: str, beam_size: int, max_gen_len: int) -> None:
    """Refuse a search ``stack`` cannot run: an unknown strategy, a beam
    wider than the vocabulary or narrower than 1, or a reply longer than
    the position table or shorter than 1 token."""
    if strategy not in ("greedy", "beam"):
        raise ValueError(f"unknown decoding strategy {strategy!r}")
    vocab_size = stack.out_proj.weight.shape[1]
    if strategy == "beam" and beam_size > vocab_size:
        raise ValueError(f"beam size {beam_size} is larger than the vocabulary's {vocab_size} tokens")
    if strategy == "beam" and beam_size < 1:
        raise ValueError("beam size must be >= 1")
    positions = len(stack.positions)
    if not 1 <= max_gen_len <= positions:
        raise ValueError(f"max_gen_len must be from 1 to the decoder's {positions} positions, got {max_gen_len}")


def generate(
    memory: DecoderMemory,
    stack: DecoderStack,
    vocab: Vocab | None = None,
    strategy: str = "greedy",
    beam_size: int = DEFAULT_BEAM_SIZE,
    max_gen_len: int = DEFAULT_MAX_GEN_LEN,
) -> GeneratedResponse:
    """One reply over one sample's memory, searched with ``DecoderStep``
    once ``check_search`` allows it."""
    check_search(stack, strategy, beam_size, max_gen_len)
    step = DecoderStep(stack, memory, max_gen_len)

    def step_fn(prefixes, parents=None) -> np.ndarray:
        if parents is not None:
            step.reorder(parents)
        return log_softmax(step([prefix[-1] for prefix in prefixes]))

    if strategy == "greedy":
        ids, log_probs = greedy_decode(step_fn, EOS_ID, max_gen_len)
    else:
        ids, log_probs = beam_decode(step_fn, beam_size, EOS_ID, max_gen_len)
    text = vocab.decode(ids) if vocab is not None else ""
    return GeneratedResponse(ids, text, log_probs)
