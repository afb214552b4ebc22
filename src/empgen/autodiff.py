"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every operation records a node in a dynamic graph. Calling ``backward()``
on a scalar walks the graph in reverse topological order and accumulates
gradients into ``Tensor.grad`` of the leaves; every other node lets go of
its gradient, closure and parents once it has run. Arithmetic is float64
throughout so central finite differences remain a meaningful oracle for
the analytic gradients. Inside ``no_grad()`` nothing is recorded, for
inference.

``linear``, ``add_norm``, ``attention`` and ``cross_entropy`` are fused
nodes with closed-form backward passes: one node each where the composed
ops would record 2 (3 with ``linear``'s ReLU), 14 (dropout, residual add
and 12 for LayerNorm), 6 (14 with attention's head split and merge) and
3 (log-softmax, pick and negation; 4 with a padding mask). Their forward
and backward passes do the composed ops' float operations in the same
order; they keep a dropout mask as booleans, no ReLU pre-activation and
no log-probabilities. ``softmax`` and ``log_softmax`` work on plain
arrays, for the fused nodes and for inference.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "add_norm",
    "attention",
    "cross_entropy",
    "grad_enabled",
    "linear",
    "no_grad",
    "parameter",
    "concat",
    "embedding",
    "softmax",
    "log_softmax",
    "slice_rows",
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


def grad_enabled() -> bool:
    """Whether this thread records the tape: False inside ``no_grad()``."""
    return _mode.recording


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


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax over ``axis`` of a plain array, computed in place in ``x``
    and returned: pass a fresh array that nothing else reads (attention's
    scores can be megabytes)."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log-softmax over ``axis`` of a plain array, as a new array."""
    z = x - x.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


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

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        # Keep a first gradient the caller owned (made and holds no other
        # reference to); copy any other, which the caller may share.
        if self.grad is None:
            self.grad = grad if owned else np.array(grad, dtype=np.float64)
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

    def __matmul__(self, weight):
        """``linear`` by a 2-D weight."""
        return linear(self, as_tensor(weight))

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
    # reductions

    def sum(self, axis=None, keepdims: bool = False):
        a = self

        def backward(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            a._accumulate(np.broadcast_to(gg, a.data.shape).astype(np.float64))

        return Tensor._node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


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


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None, relu: bool = False) -> Tensor:
    """``x @ weight + bias`` for ``x`` (..., k) and a (k, m) weight, run as
    one 2-D GEMM over all rows, forward and backward. With ``relu`` the node
    rectifies its output and keeps no pre-activation: the output is
    positive exactly where the pre-activation was."""
    k, m = weight.shape
    rows = x.data.reshape(-1, k)
    y = rows @ weight.data
    if bias is not None:
        y += bias.data
    if relu:
        y *= y > 0

    def backward(g):
        g = g.reshape(-1, m)
        if relu:
            g = g * (y > 0)
        if x.requires_grad:
            x._accumulate((g @ weight.data.T).reshape(x.data.shape), owned=True)
        if weight.requires_grad:
            weight._accumulate(rows.T @ g, owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0), owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._node(y.reshape(*x.data.shape[:-1], m), parents, backward)


def add_norm(
    x: Tensor, h: Tensor, gain: Tensor, bias: Tensor, eps: float, rate: float, rng: np.random.Generator | None
) -> Tensor:
    """``LN(x + dropout(h))``, a post-norm sublayer's output from its input
    ``x`` and its result ``h``, both (..., n). Inverted dropout zeroes each
    entry of ``h`` with probability ``rate`` and scales the rest by
    1 / (1 - rate); it is the identity when ``rng`` is None (eval mode) or
    ``rate`` is 0. The sum is then normalized over the last axis to zero
    mean and unit variance, scaled by ``gain`` and shifted by ``bias``."""
    s = h.data
    keep = None
    if rng is not None and rate > 0.0:
        keep = rng.random(h.shape) >= rate
        s = s * (keep / (1.0 - rate))
    s = x.data + s
    n = s.shape[-1]
    centered = s - s.sum(axis=-1, keepdims=True) * (1.0 / n)
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n)
    inv = (var + eps) ** -0.5
    normed = centered * inv

    def backward(g):
        if gain.requires_grad:
            gain._accumulate((g * normed).reshape(-1, n).sum(axis=0), owned=True)
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, n).sum(axis=0), owned=True)
        gn = g * gain.data
        mean_gn = gn.sum(axis=-1, keepdims=True) * (1.0 / n)
        mean_gn_normed = (gn * normed).sum(axis=-1, keepdims=True) * (1.0 / n)
        gs = inv * (gn - mean_gn - normed * mean_gn_normed)
        if h.requires_grad:  # before x owns gs
            h._accumulate(gs if keep is None else gs * (keep / (1.0 - rate)), owned=keep is not None)
        if x.requires_grad:
            x._accumulate(gs, owned=True)

    return Tensor._node(normed * gain.data + bias.data, (x, h, gain, bias), backward)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    mask: np.ndarray | None = None,
    return_weights: bool = False,
    heads: int = 1,
):
    """``softmax(q kᵀ * scale + mask) v`` over the last two axes; leading
    axes broadcast. With ``heads`` > 1, each of ``heads`` equal slices of
    the last axis attends on its own, split and merged inside this node.
    ``mask`` is additive (-1e9 hides a key) and broadcasts against each
    head's (..., queries, keys) scores. With ``return_weights`` the weights,
    (..., heads, queries, keys) when heads > 1, come back as a constant."""

    def split(x):  # (..., rows, d) -> (..., heads, rows, d / heads)
        return x.reshape(*x.shape[:-1], heads, -1).swapaxes(-3, -2) if heads > 1 else x

    def merge(x):  # (..., heads, rows, d / heads) -> (..., rows, d)
        return x.swapaxes(-3, -2).reshape(*x.shape[:-3], x.shape[-2], -1) if heads > 1 else x

    qs, ks, vs = split(q.data), split(k.data), split(v.data)
    # One scores array, changed in place: it can be megabytes.
    p = qs @ ks.swapaxes(-1, -2)
    p *= scale
    if mask is not None:
        p += mask[..., None, :, :] if heads > 1 and mask.ndim > 1 else mask
    softmax(p)

    def backward(g):
        g = split(g)
        if v.requires_grad:
            v._accumulate(merge(_unbroadcast(p.swapaxes(-1, -2) @ g, vs.shape)), owned=True)
        ds = g @ vs.swapaxes(-1, -2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        if q.requires_grad:
            q._accumulate(merge(_unbroadcast(ds @ ks, qs.shape)), owned=True)
        if k.requires_grad:
            k._accumulate(merge(_unbroadcast(ds.swapaxes(-1, -2) @ qs, ks.shape)), owned=True)

    out = Tensor._node(merge(p @ vs), (q, k, v), backward)
    return (out, Tensor(p)) if return_weights else out


def cross_entropy(logits: Tensor, targets, valid: np.ndarray | None = None) -> Tensor:
    """``-log softmax(logits)[target]`` for each row of ``logits`` (..., n)
    and its index in ``targets`` (...), as shape (...). Where the boolean
    ``valid`` (...) is False the entry counts 0 and passes no gradient.
    The node keeps the probabilities and the indices for its backward
    pass, not the log-probabilities."""
    idx = np.asarray(targets, dtype=np.int64)[..., None]
    logp = log_softmax(logits.data)
    out = -np.take_along_axis(logp, idx, axis=-1)[..., 0]
    sm = np.exp(logp)
    if valid is not None:
        out = out * valid

    def backward(g):
        g = (g if valid is None else g * valid)[..., None]
        grad = sm * g
        np.put_along_axis(grad, idx, np.take_along_axis(grad, idx, axis=-1) - g, axis=-1)
        logits._accumulate(grad, owned=True)

    return Tensor._node(out, (logits,), backward)
