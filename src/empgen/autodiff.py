"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every operation records a node in a dynamic graph. Calling ``backward()``
on a scalar walks the graph in reverse topological order and accumulates
gradients into ``Tensor.grad`` of the leaves; every other node lets go of
its gradient, closure and parents once it has run. Arithmetic is float64
throughout so central finite differences remain a meaningful oracle for
the analytic gradients. Inside ``no_grad()`` nothing is recorded, for
inference.

``linear``, ``layer_norm`` and ``attention`` are fused nodes with
closed-form backward passes: one node each where the composed ops would
record 2, 12 and 6. Their forward passes do the composed ops' float
operations in the same order.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "attention",
    "layer_norm",
    "linear",
    "no_grad",
    "parameter",
    "concat",
    "embedding",
    "softmax",
    "log_softmax",
    "slice_rows",
    "take_per_row",
]


def as_tensor(value) -> "Tensor":
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


class _GradMode(threading.local):
    recording = True


_mode = _GradMode()


@contextmanager
def no_grad():
    """Record no graph inside the block, in this thread: results keep no
    parents and no backward closure, and so never require grad. Leaves
    keep their own ``requires_grad``. The previous state returns on exit,
    also after an exception or from a nested block."""
    previous, _mode.recording = _mode.recording, False
    try:
        yield
    finally:
        _mode.recording = previous


def parameter(array) -> "Tensor":
    """Wrap an array as a trainable leaf."""
    return Tensor(array, requires_grad=True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the source shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # graph plumbing

    @staticmethod
    def _node(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(data)
        if _mode.recording and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64)  # a copy: the caller may share it
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from a scalar; gradients accumulate into leaves.

        Each non-leaf node drops its gradient, closure and parents as soon
        as it has passed its gradient on, so the tape is freed while the
        pass runs, and the graph cannot be walked a second time.
        """
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar")
        # Iterative DFS postorder (graphs can be deeper than the recursion limit).
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = node._backward = None
            node._parents = ()

    # ------------------------------------------------------------------
    # elementwise arithmetic (numpy broadcasting rules)

    def __add__(self, other):
        other = as_tensor(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.data.shape))

        return Tensor._node(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def backward(g):
            a._accumulate(-g)

        return Tensor._node(-a.data, (a,), backward)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._node(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise TypeError("divide by a python scalar; use pow() for tensors")
        return self * (1.0 / scalar)

    def __matmul__(self, other):
        other = as_tensor(other)
        if other.ndim == 2:
            return linear(self, other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                ga = g @ np.swapaxes(b.data, -1, -2)
                a._accumulate(_unbroadcast(ga, a.data.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ g
                b._accumulate(_unbroadcast(gb, b.data.shape))

        return Tensor._node(a.data @ b.data, (a, b), backward)

    # ------------------------------------------------------------------
    # shape ops

    def reshape(self, *shape):
        a = self
        orig = a.data.shape

        def backward(g):
            a._accumulate(g.reshape(orig))

        return Tensor._node(a.data.reshape(shape), (a,), backward)

    def swapaxes(self, axis1: int, axis2: int):
        a = self

        def backward(g):
            a._accumulate(np.swapaxes(g, axis1, axis2))

        return Tensor._node(np.swapaxes(a.data, axis1, axis2), (a,), backward)

    # ------------------------------------------------------------------
    # reductions and nonlinearities

    def sum(self, axis=None, keepdims: bool = False):
        a = self

        def backward(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            a._accumulate(np.broadcast_to(gg, a.data.shape).astype(np.float64))

        return Tensor._node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        elif isinstance(axis, tuple):
            n = int(np.prod([self.data.shape[i] for i in axis]))
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def pow(self, exponent: float):
        a = self

        def backward(g):
            a._accumulate(g * exponent * a.data ** (exponent - 1.0))

        return Tensor._node(a.data**exponent, (a,), backward)

    def relu(self):
        a = self
        mask = a.data > 0

        def backward(g):
            a._accumulate(g * mask)

        return Tensor._node(a.data * mask, (a,), backward)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    # In place on one fresh array: attention scores can be megabytes.
    y = t.data - t.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        t._accumulate(y * (g - dot))

    return Tensor._node(y, (t,), backward)


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    z = t.data - t.data.max(axis=axis, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))
    sm = np.exp(out)

    def backward(g):
        t._accumulate(g - sm * g.sum(axis=axis, keepdims=True))

    return Tensor._node(out, (t,), backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather; the backward pass scatter-adds into the table."""
    idx = np.asarray(ids, dtype=np.int64)

    def backward(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, g)

    return Tensor._node(table.data[idx], (table,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def backward(g):
        for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(int(a), int(b))
                t._accumulate(g[tuple(index)])

    return Tensor._node(np.concatenate(datas, axis=axis), tuple(tensors), backward)


def slice_rows(t: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of the second-to-last axis."""

    def backward(g):
        full = np.zeros_like(t.data)
        full[..., start:stop, :] = g
        t._accumulate(full)

    return Tensor._node(t.data[..., start:stop, :], (t,), backward)


def take_per_row(t: Tensor, indices) -> Tensor:
    """Pick one entry of the last axis per row: ``t`` (..., n) and
    ``indices`` (...) give shape (..., 1)."""
    idx = np.asarray(indices, dtype=np.int64)[..., None]

    def backward(g):
        full = np.zeros_like(t.data)
        np.put_along_axis(full, idx, g, axis=-1)
        t._accumulate(full)

    return Tensor._node(np.take_along_axis(t.data, idx, axis=-1), (t,), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight + bias`` for ``x`` (..., k) and a (k, m) weight, run as
    one 2-D GEMM over all rows, forward and backward."""
    k, m = weight.shape
    rows = x.data.reshape(-1, k)
    y = rows @ weight.data
    if bias is not None:
        y += bias.data

    def backward(g):
        g = g.reshape(-1, m)
        if x.requires_grad:
            x._accumulate((g @ weight.data.T).reshape(x.data.shape))
        if weight.requires_grad:
            weight._accumulate(rows.T @ g)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._node(y.reshape(*x.data.shape[:-1], m), parents, backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale
    by ``gain`` and shift by ``bias``."""
    n = x.data.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n)
    inv = (var + eps) ** -0.5
    normed = centered * inv

    def backward(g):
        if gain.requires_grad:
            gain._accumulate((g * normed).reshape(-1, n).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, n).sum(axis=0))
        if x.requires_grad:
            gn = g * gain.data
            mean_gn = gn.sum(axis=-1, keepdims=True) * (1.0 / n)
            mean_gn_normed = (gn * normed).sum(axis=-1, keepdims=True) * (1.0 / n)
            x._accumulate(inv * (gn - mean_gn - normed * mean_gn_normed))

    return Tensor._node(normed * gain.data + bias.data, (x, gain, bias), backward)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    mask: np.ndarray | None = None,
    return_weights: bool = False,
):
    """``softmax(q kᵀ * scale + mask) v`` over the last two axes; leading
    axes broadcast. ``mask`` is additive (-1e9 hides a key). With
    ``return_weights`` the attention weights come back too, as a constant."""
    # One scores array, changed in place: it can be megabytes.
    p = q.data @ np.swapaxes(k.data, -1, -2)
    p *= scale
    if mask is not None:
        p += mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def backward(g):
        if v.requires_grad:
            v._accumulate(_unbroadcast(np.swapaxes(p, -1, -2) @ g, v.data.shape))
        ds = g @ np.swapaxes(v.data, -1, -2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        if q.requires_grad:
            q._accumulate(_unbroadcast(ds @ k.data, q.data.shape))
        if k.requires_grad:
            k._accumulate(_unbroadcast(np.swapaxes(ds, -1, -2) @ q.data, k.data.shape))

    out = Tensor._node(p @ v.data, (q, k, v), backward)
    return (out, Tensor(p)) if return_weights else out
