"""Representation-producing math: context/cause encoding, the
sensible-rational fusion attention, per-relation knowledge encoding, and
analysis-text encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, attention, embedding, parameter
from .corpus import CLS_ID, Vocab
from .knowledge import RELATIONS, KnowledgeBundle
from .layers import EncoderLayer, pad_ids, padding_mask, prefixed, sinusoidal_positions

DEFAULT_MAX_ANALYSIS_LEN = 128


@dataclass
class FusionParams:
    """Square query/key/value maps for the fusion attention."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor

    @classmethod
    def create(cls, rng: np.random.Generator, d: int) -> "FusionParams":
        # Seeded uniform(-1/sqrt(d), 1/sqrt(d)).
        s = 1.0 / math.sqrt(d)
        return cls(
            w_q=parameter(rng.uniform(-s, s, (d, d))),
            w_k=parameter(rng.uniform(-s, s, (d, d))),
            w_v=parameter(rng.uniform(-s, s, (d, d))),
        )

    def parameters(self) -> dict[str, Tensor]:
        return {"w_q": self.w_q, "w_k": self.w_k, "w_v": self.w_v}


class EncoderStack:
    """Token embeddings, fixed sinusoidal positions, post-norm layers."""

    def __init__(
        self,
        rng: np.random.Generator,
        vocab_size: int,
        d: int,
        layers: int,
        heads: int,
        ffn_mult: int,
        dropout: float,
        max_len: int = 512,
    ):
        self.vocab_size = vocab_size
        self.d = d
        self.dropout = dropout
        self.token_embedding = parameter(rng.normal(0.0, 0.02, (vocab_size, d)))
        self.positions = sinusoidal_positions(max_len, d)
        self.layers = [EncoderLayer(rng, d, heads, ffn_mult) for _ in range(layers)]

    def encode(self, ids: list[int], rng: np.random.Generator | None = None) -> Tensor:
        """Rows (len(ids), d) of one id sequence, run through ``encode_padded``
        as a batch of one. The model never calls it; ``perfbench/baseline.py``
        times it."""
        return self.encode_padded(np.asarray([ids]), np.array([len(ids)]), rng).reshape(len(ids), self.d)

    def encode_padded(
        self, ids: np.ndarray, lengths: np.ndarray, rng: np.random.Generator | None = None
    ) -> Tensor:
        """Rows of right-padded id rows (N, L), shape (N, L, d). Keys past
        each row's length are masked, so a row's first ``lengths[i]``
        outputs are those of its unpadded sequence."""
        if ids.size == 0:
            raise ValueError("cannot encode an empty id sequence")
        if ids.max() >= self.vocab_size or ids.min() < 0:
            raise ValueError(f"token id out of range for vocab of {self.vocab_size}")
        if ids.shape[-1] > len(self.positions):
            raise ValueError(
                f"cannot encode {ids.shape[-1]} tokens: the encoder has {len(self.positions)} positions"
            )
        mask = padding_mask(lengths, ids.shape[-1])
        mask = None if mask is None else mask[:, None, :]
        drop = self.dropout if rng is not None else 0.0
        x = embedding(self.token_embedding, ids) + Tensor(self.positions[: ids.shape[-1]])
        for layer in self.layers:
            x = layer(x, drop, rng, mask)
        return x

    def parameters(self) -> dict[str, Tensor]:
        layers = prefixed({f"layers.{i}": layer for i, layer in enumerate(self.layers)})
        return {"token_embedding": self.token_embedding, **layers}


def fuse_sensible(
    context_rep: Tensor,
    cause_rep: Tensor,
    params: FusionParams,
    return_attention: bool = False,
    mask: np.ndarray | None = None,
):
    """Single-head attention of context queries over cause keys/values.

    fused = softmax((X Wq^T)(C Wk^T)^T / sqrt(2 d)) (C Wv^T)

    Row count of the output equals the context length; each attention row
    is a probability vector over the cause tokens. Note the scale is
    sqrt(2*d), not the usual sqrt(d). Both inputs may carry a leading batch
    axis; ``mask`` (B, cause rows) then hides padded cause keys.
    """
    if context_rep.shape[-1] != cause_rep.shape[-1]:
        raise ValueError(
            f"width mismatch: context {context_rep.shape[-1]} vs cause {cause_rep.shape[-1]}"
        )
    d = context_rep.shape[-1]
    q = context_rep @ params.w_q.swapaxes(0, 1)
    k = cause_rep @ params.w_k.swapaxes(0, 1)
    v = cause_rep @ params.w_v.swapaxes(0, 1)
    return attention(
        q, k, v, 1.0 / math.sqrt(2.0 * d), None if mask is None else mask[:, None, :], return_attention
    )


def relation_token_ids(bundle: KnowledgeBundle, vocab: Vocab) -> list[list[int]]:
    """Per-relation id lists in fixed relation order, each prefixed with <cls>."""
    return [[CLS_ID] + vocab.encode_text(text) for text in bundle.texts_in_order()]


def encode_relations(relation_ids: list[list[list[int]]], stack: EncoderStack, rng=None) -> Tensor:
    """Encode every sample's five relation sequences as one padded batch and
    stack each sample's outputs row-wise, in relation order.

    Gives (B, most rows, d), where a sample's rows are its summed token
    count plus one summary row per relation. Each sample's rows come first,
    and the padding after them repeats row 0 of the batch.
    """
    if any(len(lists) != len(RELATIONS) for lists in relation_ids):
        raise ValueError(f"expected {len(RELATIONS)} relation sequences")
    ids, lengths = pad_ids([seq for lists in relation_ids for seq in lists])
    rows = stack.encode_padded(ids, lengths, rng)
    # Flat row index of every sample's unpadded rows, in order.
    per = len(RELATIONS)
    starts = np.arange(len(lengths)) * ids.shape[1]
    picks = [
        np.concatenate([np.arange(s, s + n) for s, n in zip(starts[i : i + per], lengths[i : i + per])])
        for i in range(0, len(lengths), per)
    ]
    return embedding(rows.reshape(-1, rows.shape[-1]), pad_ids(picks)[0])


def analysis_token_ids(
    text: str, vocab: Vocab, max_len: int = DEFAULT_MAX_ANALYSIS_LEN
) -> list[int]:
    """<cls>-prefixed analysis ids, head-truncated; the summary row survives."""
    if not text.strip():
        raise ValueError("empty analysis text")
    ids = [CLS_ID] + vocab.encode_text(text)
    return ids[:max_len]

