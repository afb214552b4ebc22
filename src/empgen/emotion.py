"""Emotion classification head: knowledge pooling, tri-source feature
fusion, softmax classifier, and cross-entropy loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, linear, log_softmax, parameter, slice_rows, softmax, take_per_row
from .layers import xavier_uniform


@dataclass
class ClassifierParams:
    """Linear map from the 3d fused feature to the label logits."""

    weight: Tensor  # (3d, q)
    bias: Tensor | None

    @classmethod
    def create(cls, rng: np.random.Generator, d: int, num_labels: int, bias: bool = True) -> "ClassifierParams":
        return cls(
            weight=parameter(xavier_uniform(rng, 3 * d, num_labels)),
            bias=parameter(np.zeros(num_labels)) if bias else None,
        )

    @property
    def num_labels(self) -> int:
        return self.weight.shape[1]

    def parameters(self) -> dict[str, Tensor]:
        out = {"weight": self.weight}
        if self.bias is not None:
            out["bias"] = self.bias
        return out


def pool_knowledge(knowledge_rep: Tensor, lengths: np.ndarray | None = None) -> Tensor:
    """Column-wise arithmetic mean over all knowledge rows, shape (1, d).

    A padded batch (B, rows, d) with each sample's row count ``lengths``
    gives (B, d), each the mean over that sample's rows only.
    """
    if knowledge_rep.shape[-2] < 1:
        raise ValueError("cannot pool an empty matrix")
    if lengths is None:
        return knowledge_rep.mean(axis=0, keepdims=True)
    valid = np.arange(knowledge_rep.shape[-2]) < lengths[:, None]
    return (knowledge_rep * Tensor(valid[..., None])).sum(axis=1) * Tensor(1.0 / lengths[:, None])


def fuse_features(
    context_rep: Tensor,
    analysis_rep: Tensor | None,
    pooled: Tensor | None,
    d: int | None = None,
) -> Tensor:
    """Concatenate context row 0, analysis row 0, and the pooled knowledge
    vector into one (1, 3d) feature; a padded batch of B samples gives
    (B, 3d).

    Streams disabled by the ablation config contribute zeros so the
    classifier shape is identical across configs.
    """
    d = d if d is not None else context_rep.shape[-1]
    if context_rep.shape[-1] != d:
        raise ValueError(f"width mismatch: context {context_rep.shape[-1]} vs {d}")
    parts = [_first_rows(context_rep)]
    for rep, take_row in ((analysis_rep, True), (pooled, False)):
        if rep is None:
            parts.append(Tensor(np.zeros((parts[0].shape[0], d))))
            continue
        if rep.shape[-1] != d:
            raise ValueError(f"width mismatch: {rep.shape[-1]} vs {d}")
        parts.append(_first_rows(rep) if take_row else rep)
    return concat(parts, axis=1)


def _first_rows(rep: Tensor) -> Tensor:
    """Row 0 of one sample's rows (1, d), or of each sample's (B, d)."""
    first = slice_rows(rep, 0, 1)
    return first if rep.ndim == 2 else first.reshape(rep.shape[0], rep.shape[-1])


def emotion_logits(feature: Tensor, params: ClassifierParams) -> Tensor:
    if feature.shape[1] != params.weight.shape[0]:
        raise ValueError(
            f"feature width {feature.shape[1]} does not match classifier "
            f"input {params.weight.shape[0]}"
        )
    return linear(feature, params.weight, params.bias)


def classify_emotion(feature: Tensor, params: ClassifierParams) -> np.ndarray:
    """Probability vector over the labels; argmax is the prediction."""
    return softmax(emotion_logits(feature, params), axis=-1).data[0]


def emotion_loss(probs: np.ndarray, target_index: int) -> float:
    """-log P(target). Diagnostic path over an already-normalized vector."""
    probs = np.asarray(probs, dtype=np.float64)
    if target_index < 0 or target_index >= probs.shape[0]:
        raise IndexError(f"label index {target_index} out of range for {probs.shape[0]} labels")
    return float(-np.log(np.maximum(probs[target_index], 1e-300)))


def emotion_nll(feature: Tensor, params: ClassifierParams, target_index) -> Tensor:
    """Differentiable cross-entropy computed in the log domain: a scalar for
    one label index, or a (B,) node for one index per feature row."""
    targets = np.atleast_1d(np.asarray(target_index, dtype=np.int64))
    for t in targets:
        if t < 0 or t >= params.num_labels:
            raise IndexError(f"label index {t} out of range for {params.num_labels} labels")
    logp = log_softmax(emotion_logits(feature, params), axis=-1)
    picked = take_per_row(logp, targets)
    return -picked.sum() if np.ndim(target_index) == 0 else -picked.reshape(len(targets))
