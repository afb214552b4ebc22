"""Summaries of training results that only the tests read."""

import numpy as np


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
