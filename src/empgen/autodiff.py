"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every operation records a node in a dynamic graph. Calling ``backward()``
on a scalar walks the graph in reverse topological order and accumulates
gradients into ``Tensor.grad``. Arithmetic is float64 throughout so
central finite differences remain a meaningful oracle for the analytic
gradients. Inside ``no_grad()`` nothing is recorded, for inference.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

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
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from a scalar; gradients accumulate into leaves."""
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
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

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
    def backward(g):
        full = np.zeros_like(t.data)
        full[start:stop] = g
        t._accumulate(full)

    return Tensor._node(t.data[start:stop], (t,), backward)


def take_per_row(t: Tensor, indices) -> Tensor:
    """Pick one column per row of a 2D tensor; returns shape (rows, 1)."""
    idx = np.asarray(indices, dtype=np.int64)
    rows = np.arange(t.data.shape[0])

    def backward(g):
        full = np.zeros_like(t.data)
        full[rows, idx] = g[:, 0]
        t._accumulate(full)

    return Tensor._node(t.data[rows, idx][:, None], (t,), backward)
