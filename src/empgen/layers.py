"""Transformer building blocks shared by the encoder and decoder stacks."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, concat, parameter, softmax


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


def sinusoidal_positions(length: int, d: int) -> np.ndarray:
    """Classic fixed sin/cos position table, shape (length, d)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * np.floor(i / 2.0)) / d)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


def causal_mask(length: int, cached: int = 0) -> np.ndarray:
    """Additive mask of ``length`` new rows over ``cached`` earlier rows and
    themselves, shape (length, cached + length): new row i sees columns
    0..cached+i (0) and nothing after them (-1e9)."""
    return np.triu(np.full((length, cached + length), -1e9), k=cached + 1)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rng is None (eval mode) or rate is 0."""
    if rng is None or rate <= 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)


class Linear:
    def __init__(self, rng: np.random.Generator, fan_in: int, fan_out: int, bias: bool = True):
        self.weight = parameter(xavier_uniform(rng, fan_in, fan_out))
        self.bias = parameter(np.zeros(fan_out)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = x @ self.weight
        if self.bias is not None:
            y = y + self.bias
        return y

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

    def __call__(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv = (var + self.EPS).pow(-0.5)
        return centered * inv * self.gain + self.bias

    def parameters(self) -> dict[str, Tensor]:
        return {"gain": self.gain, "bias": self.bias}


class KeyValues(NamedTuple):
    """Head-split keys and values of attended rows, each (..., heads, rows, dh)."""

    k: Tensor
    v: Tensor


class MultiHeadAttention:
    """Scaled dot-product attention; every input may carry leading batch axes."""

    def __init__(self, rng: np.random.Generator, d: int, heads: int):
        if d % heads != 0:
            raise ValueError(f"width {d} not divisible by {heads} heads")
        self.d = d
        self.heads = heads
        self.dh = d // heads
        self.wq = Linear(rng, d, d)
        # A key bias shifts every score of a query row equally, which the
        # softmax cancels; leave it out rather than carry a dead parameter.
        self.wk = Linear(rng, d, d, bias=False)
        self.wv = Linear(rng, d, d)
        self.wo = Linear(rng, d, d)

    def _split(self, x: Tensor) -> Tensor:
        # (..., l, d) -> (..., heads, l, dh)
        return x.reshape(*x.shape[:-1], self.heads, self.dh).swapaxes(-3, -2)

    def keys_values(self, context: Tensor) -> KeyValues:
        return KeyValues(self._split(self.wk(context)), self._split(self.wv(context)))

    def __call__(self, query: Tensor, context, mask: np.ndarray | None = None) -> Tensor:
        """Attend from ``query`` rows over ``context``: the rows themselves,
        or their ``KeyValues`` when those were projected before."""
        q = self._split(self.wq(query))
        kv = context if isinstance(context, KeyValues) else self.keys_values(context)
        scores = (q @ kv.k.swapaxes(-1, -2)) * (1.0 / math.sqrt(self.dh))
        if mask is not None:
            scores = scores + Tensor(mask)
        attn = softmax(scores, axis=-1)
        merged = (attn @ kv.v).swapaxes(-3, -2).reshape(*query.shape[:-1], self.d)
        return self.wo(merged)

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for name, lin in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)):
            for k, v in lin.parameters().items():
                out[f"{name}.{k}"] = v
        return out


class FeedForward:
    def __init__(self, rng: np.random.Generator, d: int, hidden: int):
        self.lin1 = Linear(rng, d, hidden)
        self.lin2 = Linear(rng, hidden, d)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(self.lin1(x).relu())

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for name, lin in (("lin1", self.lin1), ("lin2", self.lin2)):
            for k, v in lin.parameters().items():
                out[f"{name}.{k}"] = v
        return out


class EncoderLayer:
    """Post-norm self-attention block: LN(x + attn), LN(x + ffn)."""

    def __init__(self, rng: np.random.Generator, d: int, heads: int, ffn_mult: int):
        self.attn = MultiHeadAttention(rng, d, heads)
        self.ln1 = LayerNorm(d)
        self.ffn = FeedForward(rng, d, ffn_mult * d)
        self.ln2 = LayerNorm(d)

    def __call__(self, x: Tensor, drop: float, rng: np.random.Generator | None) -> Tensor:
        x = self.ln1(x + dropout(self.attn(x, x), drop, rng))
        return self.ln2(x + dropout(self.ffn(x), drop, rng))

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for name, sub in (("attn", self.attn), ("ln1", self.ln1), ("ffn", self.ffn), ("ln2", self.ln2)):
            for k, v in sub.parameters().items():
                out[f"{name}.{k}"] = v
        return out


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
        memory: KeyValues,
        mask: np.ndarray,
        drop: float,
        rng: np.random.Generator | None,
        past: KeyValues | None = None,
    ) -> tuple[Tensor, KeyValues]:
        """The block over new rows ``x`` that follow the rows of ``past``.

        ``memory`` is the cross-attention's projection of the memory rows.
        Returns the output and the self-attention keys and values of the
        earlier rows and ``x``'s.
        """
        kv = self.self_attn.keys_values(x)
        if past is not None:
            kv = KeyValues(concat([past.k, kv.k], axis=-2), concat([past.v, kv.v], axis=-2))
        x = self.ln1(x + dropout(self.self_attn(x, kv, mask), drop, rng))
        x = self.ln2(x + dropout(self.cross_attn(x, memory), drop, rng))
        return self.ln3(x + dropout(self.ffn(x), drop, rng)), kv

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        subs = (
            ("self_attn", self.self_attn),
            ("ln1", self.ln1),
            ("cross_attn", self.cross_attn),
            ("ln2", self.ln2),
            ("ffn", self.ffn),
            ("ln3", self.ln3),
        )
        for name, sub in subs:
            for k, v in sub.parameters().items():
                out[f"{name}.{k}"] = v
        return out
