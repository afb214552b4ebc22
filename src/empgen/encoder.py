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
from .layers import EncoderLayer, pad_ids, padding_mask, sinusoidal_positions

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
        ffn_mult: int = 4,
        dropout: float = 0.1,
        max_len: int = 512,
    ):
        self.vocab_size = vocab_size
        self.d = d
        self.dropout = dropout
        self.token_embedding = parameter(rng.normal(0.0, 0.02, (vocab_size, d)))
        self.positions = sinusoidal_positions(max_len, d)
        self.layers = [EncoderLayer(rng, d, heads, ffn_mult) for _ in range(layers)]

    def encode(self, ids: list[int], rng: np.random.Generator | None = None) -> Tensor:
        """Rows of one id sequence, shape (len(ids), d)."""
        return self._forward(np.asarray(ids, dtype=np.int64), None, rng)

    def encode_padded(
        self, ids: np.ndarray, lengths: np.ndarray, rng: np.random.Generator | None = None
    ) -> Tensor:
        """Rows of right-padded id rows (N, L), shape (N, L, d). Keys past
        each row's length are masked, so a row's first ``lengths[i]``
        outputs are those of its unpadded sequence."""
        mask = padding_mask(lengths, ids.shape[-1])
        return self._forward(ids, None if mask is None else mask[:, None, None, :], rng)

    def _forward(self, ids: np.ndarray, mask: np.ndarray | None, rng) -> Tensor:
        if ids.size == 0:
            raise ValueError("cannot encode an empty id sequence")
        if ids.max() >= self.vocab_size or ids.min() < 0:
            raise ValueError(f"token id out of range for vocab of {self.vocab_size}")
        if ids.shape[-1] > len(self.positions):
            raise ValueError(
                f"cannot encode {ids.shape[-1]} tokens: the encoder has {len(self.positions)} positions"
            )
        drop = self.dropout if rng is not None else 0.0
        x = embedding(self.token_embedding, ids) + Tensor(self.positions[: ids.shape[-1]])
        for layer in self.layers:
            x = layer(x, drop, rng, mask)
        return x

    def parameters(self) -> dict[str, Tensor]:
        out = {"token_embedding": self.token_embedding}
        for i, layer in enumerate(self.layers):
            for k, v in layer.parameters().items():
                out[f"layers.{i}.{k}"] = v
        return out


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


def relation_cls_positions(token_lists: list[list[int]]) -> list[int]:
    """Row indices of the five summary tokens inside the stacked encoding."""
    positions, offset = [], 0
    for ids in token_lists:
        positions.append(offset)
        offset += len(ids)
    return positions


def encode_relations(
    bundle_or_ids,
    stack: EncoderStack,
    vocab: Vocab | None = None,
    rng=None,
) -> Tensor:
    """Encode the relation sequences as one padded batch and stack each
    sample's outputs row-wise, in relation order.

    One sample (a bundle, or its five id lists) gives (rows, d), where rows
    is the summed token count plus one summary row per relation. A list of
    samples' five id lists gives (B, most rows, d): each sample's rows come
    first, and the padding after them repeats row 0 of the batch.
    """
    if isinstance(bundle_or_ids, KnowledgeBundle):
        if vocab is None:
            raise ValueError("vocab required to tokenize a bundle")
        bundle_or_ids = relation_token_ids(bundle_or_ids, vocab)
    single = np.ndim(bundle_or_ids[0][0]) == 0
    samples = [bundle_or_ids] if single else bundle_or_ids
    if any(len(lists) != len(RELATIONS) for lists in samples):
        raise ValueError(f"expected {len(RELATIONS)} relation sequences")
    ids, lengths = pad_ids([seq for lists in samples for seq in lists])
    rows = stack.encode_padded(ids, lengths, rng)
    # Flat row index of every sample's unpadded rows, in order.
    per = len(RELATIONS)
    starts = np.arange(len(lengths)) * ids.shape[1]
    picks = [
        np.concatenate([np.arange(s, s + n) for s, n in zip(starts[i : i + per], lengths[i : i + per])])
        for i in range(0, len(lengths), per)
    ]
    index = pad_ids(picks)[0]
    return embedding(rows.reshape(-1, rows.shape[-1]), index[0] if single else index)


def analysis_token_ids(
    text: str, vocab: Vocab, max_len: int = DEFAULT_MAX_ANALYSIS_LEN
) -> list[int]:
    """<cls>-prefixed analysis ids, head-truncated; the summary row survives."""
    if not text.strip():
        raise ValueError("empty analysis text")
    ids = [CLS_ID] + vocab.encode_text(text)
    return ids[:max_len]

