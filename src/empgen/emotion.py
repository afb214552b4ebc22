"""Emotion classification head: knowledge pooling, tri-source feature
fusion, softmax classifier, and cross-entropy loss."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, concat, cross_entropy, slice_rows, softmax
from .layers import Linear


def pool_knowledge(knowledge_rep: Tensor, lengths: np.ndarray) -> Tensor:
    """Each sample's mean knowledge row: a padded batch (B, rows, d) with
    each sample's row count ``lengths`` gives (B, d), each the mean over
    that sample's rows only."""
    if knowledge_rep.shape[-2] < 1:
        raise ValueError("cannot pool an empty matrix")
    valid = np.arange(knowledge_rep.shape[-2]) < lengths[:, None]
    return (knowledge_rep * Tensor(valid[..., None])).sum(axis=1) * Tensor(1.0 / lengths[:, None])


def fuse_features(context_rep: Tensor, analysis_rep: Tensor | None, pooled: Tensor | None) -> Tensor:
    """Concatenate each sample's context row 0, analysis row 0 and pooled
    knowledge vector: a batch of B samples gives (B, 3d), d the width of
    the context rows.

    Streams disabled by the ablation config contribute zeros so the
    classifier shape is identical across configs.
    """
    batch, d = context_rep.shape[0], context_rep.shape[-1]
    parts = [slice_rows(context_rep, 0, 1).reshape(batch, d)]
    for rep, take_row in ((analysis_rep, True), (pooled, False)):
        if rep is None:
            parts.append(Tensor(np.zeros((batch, d))))
            continue
        if rep.shape[-1] != d:
            raise ValueError(f"width mismatch: {rep.shape[-1]} vs {d}")
        parts.append(slice_rows(rep, 0, 1).reshape(batch, d) if take_row else rep)
    return concat(parts, axis=1)


def emotion_logits(feature: Tensor, params: Linear) -> Tensor:
    if feature.shape[1] != params.weight.shape[0]:
        raise ValueError(
            f"feature width {feature.shape[1]} does not match classifier "
            f"input {params.weight.shape[0]}"
        )
    return params(feature)


def classify_emotion(feature: Tensor, params: Linear) -> np.ndarray:
    """Probabilities over the labels, one row per feature row (B, labels);
    the argmax of a row is its prediction."""
    return softmax(emotion_logits(feature, params).data)


def emotion_nll(feature: Tensor, params: Linear, target_indices) -> Tensor:
    """Differentiable cross-entropy computed in the log domain: a (B,) node,
    one value per feature row and its label index."""
    targets = np.asarray(target_indices, dtype=np.int64)
    num_labels = params.weight.shape[1]
    for t in targets:
        if t < 0 or t >= num_labels:
            raise IndexError(f"label index {t} out of range for {num_labels} labels")
    return cross_entropy(emotion_logits(feature, params), targets)
