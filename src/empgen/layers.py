"""Transformer building blocks shared by the encoder and decoder stacks."""

from __future__ import annotations

import functools
import math

import numpy as np

from .autodiff import Tensor, add_norm, attention, linear, parameter


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


@functools.lru_cache(maxsize=None)
def sinusoidal_positions(length: int, d: int) -> np.ndarray:
    """Classic fixed sin/cos position table, shape (length, d). Built once
    per shape and shared by every model, so it is read-only."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * np.floor(i / 2.0)) / d)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    table.flags.writeable = False
    return table


def causal_mask(length: int) -> np.ndarray:
    """Additive (length, length) mask: row i sees columns 0..i (0) and
    nothing after them (-1e9)."""
    return np.triu(np.full((length, length), -1e9), k=1)


def pad_ids(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Id rows right-padded with <pad> (id 0) to the longest, shape (B, L),
    and each row's length."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    ids = np.zeros((len(seqs), int(lengths.max())), dtype=np.int64)
    for row, s in zip(ids, seqs):
        row[: len(s)] = s
    return ids, lengths


def unpadded(lengths: np.ndarray, width: int) -> np.ndarray:
    """(B, width) booleans, True on each row's first ``lengths[b]`` entries."""
    return np.arange(width) < lengths[:, None]


def padding_mask(lengths: np.ndarray | None, width: int) -> np.ndarray | None:
    """Additive key mask (B, width): 0 on each row's first ``lengths[b]``
    keys, -1e9 on its padding. None when nothing is padded."""
    if lengths is None or np.all(lengths == width):
        return None
    return np.where(unpadded(lengths, width), 0.0, -1e9)


def prefixed(parts: dict) -> dict[str, Tensor]:
    """Each part's parameters, named ``<part name>.<parameter name>``."""
    return {f"{name}.{k}": v for name, part in parts.items() for k, v in part.parameters().items()}


class Linear:
    def __init__(self, rng: np.random.Generator, fan_in: int, fan_out: int, bias: bool = True):
        self.weight = parameter(xavier_uniform(rng, fan_in, fan_out))
        self.bias = parameter(np.zeros(fan_out)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def parameters(self) -> dict[str, Tensor]:
        out = {"weight": self.weight}
        if self.bias is not None:
            out["bias"] = self.bias
        return out


class LayerNorm:
    EPS = 1e-5

    def __init__(self, d: int):
        self.gain = parameter(np.ones(d))
        self.bias = parameter(np.zeros(d))

    def __call__(self, x: Tensor, h: Tensor, drop: float, rng: np.random.Generator | None) -> Tensor:
        """``LN(x + dropout(h))`` of a post-norm sublayer with input ``x``
        and result ``h``, as one ``add_norm`` node."""
        return add_norm(x, h, self.gain, self.bias, self.EPS, drop, rng)

    def parameters(self) -> dict[str, Tensor]:
        return {"gain": self.gain, "bias": self.bias}


class MultiHeadAttention:
    """Scaled dot-product attention; every input may carry leading batch axes."""

    def __init__(self, rng: np.random.Generator, d: int, heads: int):
        if d % heads != 0:
            raise ValueError(f"width {d} not divisible by {heads} heads")
        self.heads = heads
        self.scale = 1.0 / math.sqrt(d // heads)
        self.wq = Linear(rng, d, d)
        # A key bias shifts every score of a query row equally, which the
        # softmax cancels; leave it out rather than carry a dead parameter.
        self.wk = Linear(rng, d, d, bias=False)
        self.wv = Linear(rng, d, d)
        self.wo = Linear(rng, d, d)

    def __call__(self, query: Tensor, context: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Attend from ``query`` rows over ``context`` rows. ``mask`` is
        additive and broadcasts against each head's (..., queries, keys)
        scores."""
        k, v = self.wk(context), self.wv(context)
        return self.wo(attention(self.wq(query), k, v, self.scale, mask, heads=self.heads))

    def parameters(self) -> dict[str, Tensor]:
        return prefixed({"wq": self.wq, "wk": self.wk, "wv": self.wv, "wo": self.wo})


class FeedForward:
    def __init__(self, rng: np.random.Generator, d: int, hidden: int):
        self.lin1 = Linear(rng, d, hidden)
        self.lin2 = Linear(rng, hidden, d)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(linear(x, self.lin1.weight, self.lin1.bias, relu=True))

    def parameters(self) -> dict[str, Tensor]:
        return prefixed({"lin1": self.lin1, "lin2": self.lin2})


class EncoderLayer:
    """Post-norm self-attention block: LN(x + attn), LN(x + ffn)."""

    def __init__(self, rng: np.random.Generator, d: int, heads: int, ffn_mult: int):
        self.attn = MultiHeadAttention(rng, d, heads)
        self.ln1 = LayerNorm(d)
        self.ffn = FeedForward(rng, d, ffn_mult * d)
        self.ln2 = LayerNorm(d)

    def __call__(
        self, x: Tensor, drop: float, rng: np.random.Generator | None, mask: np.ndarray | None = None
    ) -> Tensor:
        x = self.ln1(x, self.attn(x, x, mask), drop, rng)
        return self.ln2(x, self.ffn(x), drop, rng)

    def parameters(self) -> dict[str, Tensor]:
        return prefixed({"attn": self.attn, "ln1": self.ln1, "ffn": self.ffn, "ln2": self.ln2})


class DecoderLayer:
    """Masked self-attention, cross-attention over the memory, feed-forward."""

    def __init__(self, rng: np.random.Generator, d: int, heads: int, ffn_mult: int):
        self.self_attn = MultiHeadAttention(rng, d, heads)
        self.ln1 = LayerNorm(d)
        self.cross_attn = MultiHeadAttention(rng, d, heads)
        self.ln2 = LayerNorm(d)
        self.ffn = FeedForward(rng, d, ffn_mult * d)
        self.ln3 = LayerNorm(d)

    def __call__(
        self,
        x: Tensor,
        memory: Tensor,
        mask: np.ndarray | None,
        drop: float,
        rng: np.random.Generator | None,
        memory_mask: np.ndarray | None = None,
    ) -> Tensor:
        """The block over rows ``x``, which ``mask`` keeps causal, attending
        over the ``memory`` rows, of which ``memory_mask`` hides the padded
        ones."""
        x = self.ln1(x, self.self_attn(x, x, mask), drop, rng)
        x = self.ln2(x, self.cross_attn(x, memory, memory_mask), drop, rng)
        return self.ln3(x, self.ffn(x), drop, rng)

    def parameters(self) -> dict[str, Tensor]:
        names = ("self_attn", "ln1", "cross_attn", "ln2", "ffn", "ln3")
        return prefixed({name: getattr(self, name) for name in names})
