"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tensor`` is a value, ``data``, and a ``Node`` of the dynamic graph:
the gradient, the parents' nodes and a backward closure that keeps only
the arrays its formula reads, so a value that no backward pass reads is
freed as soon as the forward code drops it. ``backward()`` on a scalar
walks the graph in reverse topological order and accumulates gradients
into ``Tensor.grad`` of the leaves; every other node lets go of its
gradient, closure and parents once it has run. Arithmetic is float64
throughout so central finite differences remain a meaningful oracle for
the analytic gradients. Inside ``no_grad()`` nothing is recorded, for
inference.

``linear``, ``add_norm``, ``attention`` and ``cross_entropy`` are fused
nodes with closed-form backward passes: one node each where the composed
ops would record 2 (3 with ``linear``'s ReLU), 14 (dropout, residual add
and 12 for LayerNorm), 6 (14 with attention's head split and merge) and
3 (log-softmax, pick and negation; 4 with a padding mask). Their forward
and backward passes do the composed ops' float operations in the same
order, but attention scales the queries, skips the row-max shift where a
norm bound rules out overflow (four passes over the scores, not six),
divides its output by the softmax sums, and normalises its weights only
for a backward pass or when asked; they keep a dropout mask as booleans,
no ReLU pre-activation, no sublayer result and no logits or
log-probabilities. The forward arithmetic of ``linear``, ``add_norm`` and
``attention`` is written once, over plain arrays, in ``linear_array``,
``add_norm_array`` and ``attention_array``: each node calls its array
function, and the decoding step (``decoder.DecoderStep``) calls them with
no ``Tensor`` at all: ``linear_array`` for its one q, k and v product and
every other projection, ``attention_array`` for both attentions, and
``add_norm_array``, through ``LayerNorm.array``, after each sublayer.
``softmax`` and ``log_softmax`` work on plain arrays too.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "add_norm",
    "attention",
    "attention_array",
    "add_norm_array",
    "cross_entropy",
    "linear",
    "linear_array",
    "merge_heads",
    "no_grad",
    "parameter",
    "concat",
    "embedding",
    "softmax",
    "log_softmax",
    "slice_rows",
    "split_heads",
]


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


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax over ``axis`` of a plain array, computed in place in ``x``
    and returned: pass a fresh array that nothing else reads."""
    x -= np.maximum.reduce(x, axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=axis, keepdims=True)
    return x


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log-softmax over ``axis`` of a plain array, as a new array."""
    z = x - x.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


class Node:
    """A vertex of the tape: the gradient that reaches one value, the nodes
    of the values it was computed from and the closure that passes the
    gradient on to them. The value itself stays with its ``Tensor``."""

    __slots__ = ("grad", "requires_grad", "parents", "backward")

    def __init__(self, requires_grad: bool = False, parents: tuple[Node, ...] = (), backward=None):
        self.grad: np.ndarray | None = None
        self.requires_grad, self.parents, self.backward = requires_grad, parents, backward

    def accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        # Keep a first gradient the caller owned (made and holds no other
        # reference to); copy any other, which the caller may share.
        if self.grad is None:
            self.grad = grad if owned else np.array(grad, dtype=np.float64)
        else:
            self.grad += grad


# The node of every value that needs no gradient, shared so that inference
# makes no nodes; a Tensor takes one of its own before a gradient is set.
_CONSTANT = Node()


class Tensor:
    """A float64 array ``data`` and its tape ``node``."""

    __slots__ = ("data", "node", "__weakref__")

    requires_grad = property(lambda t: t.node.requires_grad, lambda t, on: setattr(t._own(), "requires_grad", on))
    grad = property(lambda t: t.node.grad, lambda t, grad: setattr(t._own(), "grad", grad))
    _parents = property(lambda t: t.node.parents)

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = Node(True) if requires_grad else _CONSTANT

    def _own(self) -> Node:
        if self.node is _CONSTANT:
            self.node = Node()
        return self.node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # graph plumbing

    @staticmethod
    def _node(data: np.ndarray, parents: tuple[Node, ...], backward) -> "Tensor":
        out = Tensor(data)
        if _mode.recording and any(p.requires_grad for p in parents):
            out.node = Node(True, parents, backward)
        return out

    def zero_grad(self) -> None:
        self.node.grad = None

    def backward(self) -> None:
        """Backpropagate from a scalar; gradients accumulate into leaves.

        Each non-leaf node drops its gradient, closure and parents as soon
        as it has passed its gradient on, so the tape is freed while the
        pass runs, and the graph cannot be walked a second time.
        """
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar")
        # Iterative DFS postorder (graphs can be deeper than the recursion limit).
        topo: list[Node] = []
        seen: set[Node] = set()
        stack: list[tuple[Node, bool]] = [(self.node, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
            elif node not in seen:
                seen.add(node)
                stack.append((node, True))
                stack.extend((p, False) for p in node.parents if p.requires_grad and p not in seen)
        self._own().accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node.backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node.backward(node.grad)
            node.grad = node.backward = None
            node.parents = ()

    # ------------------------------------------------------------------
    # elementwise arithmetic (numpy broadcasting rules)

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.node, other.node
        a_shape, b_shape = self.data.shape, other.data.shape

        def backward(g):
            if a.requires_grad:
                a.accumulate(_unbroadcast(g, a_shape))
            if b.requires_grad:
                b.accumulate(_unbroadcast(g, b_shape))

        return Tensor._node(self.data + other.data, (a, b), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.node, other.node
        a_shape, b_shape = self.data.shape, other.data.shape
        # Each side's gradient reads the other side's value: keep only those.
        a_data = self.data if b.requires_grad else None
        b_data = other.data if a.requires_grad else None

        def backward(g):
            if a.requires_grad:
                a.accumulate(_unbroadcast(g * b_data, a_shape), owned=True)
            if b.requires_grad:
                b.accumulate(_unbroadcast(g * a_data, b_shape), owned=True)

        return Tensor._node(self.data * other.data, (a, b), backward)

    __rmul__ = __mul__

    def __matmul__(self, weight):
        """``linear`` by a 2-D weight."""
        return linear(self, weight)

    # ------------------------------------------------------------------
    # shape ops

    def reshape(self, *shape):
        a, orig = self.node, self.data.shape

        def backward(g):
            a.accumulate(g.reshape(orig))

        return Tensor._node(self.data.reshape(shape), (a,), backward)

    def swapaxes(self, axis1: int, axis2: int):
        a = self.node

        def backward(g):
            a.accumulate(np.swapaxes(g, axis1, axis2))

        return Tensor._node(np.swapaxes(self.data, axis1, axis2), (a,), backward)

    # ------------------------------------------------------------------
    # reductions

    def sum(self, axis=None, keepdims: bool = False):
        a, orig = self.node, self.data.shape

        def backward(g):
            g = g if axis is None or keepdims else np.expand_dims(g, axis)
            a.accumulate(np.broadcast_to(g, orig).astype(np.float64), owned=True)

        return Tensor._node(self.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather; the backward pass scatter-adds into the table."""
    idx = np.asarray(ids, dtype=np.int64)
    node, shape = table.node, table.data.shape

    def backward(g):
        if node.grad is None:
            node.grad = np.zeros(shape)
        np.add.at(node.grad, idx, g)

    return Tensor._node(table.data[idx], (node,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    nodes = tuple(t.node for t in tensors)
    offsets = np.concatenate([[0], np.cumsum([t.data.shape[axis] for t in tensors])])

    def backward(g):
        for node, a, b in zip(nodes, offsets[:-1], offsets[1:]):
            if node.requires_grad:
                node.accumulate(g[(slice(None),) * (axis % g.ndim) + (slice(int(a), int(b)),)])

    return Tensor._node(np.concatenate([t.data for t in tensors], axis=axis), nodes, backward)


def slice_rows(t: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of the second-to-last axis."""
    node, shape = t.node, t.data.shape

    def backward(g):
        full = np.zeros(shape)
        full[..., start:stop, :] = g
        node.accumulate(full, owned=True)

    return Tensor._node(t.data[..., start:stop, :], (node,), backward)


def linear_array(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None, relu: bool = False):
    """``x @ weight + bias`` for ``x`` (..., k) and a (k, m) weight, as one
    2-D GEMM over all rows, rectified with ``relu``."""
    k, m = weight.shape
    y = x.reshape(-1, k) @ weight
    if bias is not None:
        y += bias
    if relu:
        np.maximum(y, 0.0, out=y)
    return y.reshape(*x.shape[:-1], m)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None, relu: bool = False) -> Tensor:
    """``linear_array`` as a node; its backward pass is one 2-D GEMM too.
    With ``relu`` it keeps no pre-activation: the output is positive
    exactly where the pre-activation was."""
    k, m = weight.shape
    rows, w, x_shape = x.data.reshape(-1, k), weight.data, x.data.shape
    y = linear_array(x.data, w, None if bias is None else bias.data, relu)
    rectified = y.reshape(-1, m) if relu else None  # the output is kept only to rectify g
    x_node, w_node, b_node = x.node, weight.node, None if bias is None else bias.node

    def backward(g):
        g = g.reshape(-1, m)
        if rectified is not None:
            g = g * (rectified > 0)
        if x_node.requires_grad:
            x_node.accumulate((g @ w.T).reshape(x_shape), owned=True)
        if w_node.requires_grad:
            w_node.accumulate(rows.T @ g, owned=True)
        if b_node is not None and b_node.requires_grad:
            b_node.accumulate(g.sum(axis=0), owned=True)

    parents = (x_node, w_node) if b_node is None else (x_node, w_node, b_node)
    return Tensor._node(y, parents, backward)


def add_norm_array(x: np.ndarray, h: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """``LN(x + h)`` over the last axis: the sum normalized to zero mean
    and unit variance, scaled by ``gain`` and shifted by ``bias``. Returns
    the output, the normalized sum and the inverse standard deviation.
    The sum and its reductions are centered and scaled in place."""
    s = x + h
    n = s.shape[-1]
    mean = np.add.reduce(s, axis=-1, keepdims=True)
    mean *= 1.0 / n
    s -= mean
    inv = np.add.reduce(s * s, axis=-1, keepdims=True)
    inv *= 1.0 / n
    inv += eps
    inv **= -0.5
    s *= inv
    out = s * gain
    out += bias
    return out, s, inv


def add_norm(
    x: Tensor, h: Tensor, gain: Tensor, bias: Tensor, eps: float, rate: float, rng: np.random.Generator | None
) -> Tensor:
    """``LN(x + dropout(h))``, a post-norm sublayer's output from its input
    ``x`` and its result ``h``, both (..., n), as a node of
    ``add_norm_array``. Inverted dropout zeroes each entry of ``h`` with
    probability ``rate`` and scales the rest by 1 / (1 - rate); it is the
    identity when ``rng`` is None (eval mode) or ``rate`` is 0."""
    s = h.data
    keep = None
    if rng is not None and rate > 0.0:
        keep = rng.random(h.shape) >= rate
        s = s * (keep / (1.0 - rate))
    out, normed, inv = add_norm_array(x.data, s, gain.data, bias.data, eps)
    n = out.shape[-1]
    parents = x_node, h_node, gain_node, bias_node = x.node, h.node, gain.node, bias.node
    g_weight = gain.data

    def backward(g):
        if gain_node.requires_grad:
            gain_node.accumulate((g * normed).reshape(-1, n).sum(axis=0), owned=True)
        if bias_node.requires_grad:
            bias_node.accumulate(g.reshape(-1, n).sum(axis=0), owned=True)
        gn = g * g_weight
        mean_gn = gn.sum(axis=-1, keepdims=True) * (1.0 / n)
        mean_gn_normed = (gn * normed).sum(axis=-1, keepdims=True) * (1.0 / n)
        gs = inv * (gn - mean_gn - normed * mean_gn_normed)
        if h_node.requires_grad:  # before x owns gs
            h_node.accumulate(gs if keep is None else gs * (keep / (1.0 - rate)), owned=keep is not None)
        if x_node.requires_grad:
            x_node.accumulate(gs, owned=True)

    return Tensor._node(out, parents, backward)


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., rows, d) -> (..., heads, rows, d / heads), as a view; one head stays unsplit."""
    return x.reshape(*x.shape[:-1], heads, -1).swapaxes(-3, -2) if heads > 1 else x


def merge_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """The inverse of ``split_heads``."""
    return x.swapaxes(-3, -2).reshape(*x.shape[:-3], x.shape[-2], -1) if heads > 1 else x


def attention_array(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float, mask: np.ndarray | None = None, always_shift=False
):
    """``softmax(q kᵀ * scale + mask) v`` over the last two axes; leading
    axes broadcast, and ``mask`` is additive (-1e9 hides a key). Returns
    the output, the weights unnormalised and their row sums: in [1, keys]
    where rows are shifted by their max, with ``always_shift`` or unless
    ``scale · max‖q_i‖ · max‖k_j‖`` plus the largest |row max| of ``mask``,
    a bound on the scores, is below 300; else in [e^-300, keys · e^300]."""
    # One scores array, changed in place: it can be megabytes. The queries
    # take the scale and the output the softmax division, not the scores.
    e = (q * scale) @ k.swapaxes(-1, -2)
    if mask is not None:
        e += mask
    if not always_shift:  # Cauchy–Schwarz: |q_i · k_j| ≤ ‖q_i‖ ‖k_j‖; a NaN or inf bound shifts
        bound = scale * (np.einsum("...i,...i->...", q, q).max() * np.einsum("...i,...i->...", k, k).max()) ** 0.5
        always_shift = not bound + (0.0 if mask is None else np.abs(np.maximum.reduce(mask, axis=-1)).max()) < 300.0
    if always_shift:
        e -= np.maximum.reduce(e, axis=-1, keepdims=True)
    np.exp(e, out=e)
    sums = np.add.reduce(e, axis=-1, keepdims=True)
    out = e @ v
    out /= sums
    return out, e, sums


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    mask: np.ndarray | None = None,
    return_weights: bool = False,
    heads: int = 1,
):
    """``attention_array`` as a node. With ``heads`` > 1, each of ``heads``
    equal slices of the last axis attends on its own, split and merged
    inside this node, and ``mask`` broadcasts against each head's (...,
    queries, keys) scores. With ``return_weights`` the weights, (...,
    heads, queries, keys) when heads > 1, come back as a constant."""
    qs, ks, vs = (split_heads(t.data, heads) for t in (q, k, v))
    if mask is not None and heads > 1 and mask.ndim > 1:
        mask = mask[..., None, :, :]
    out, p, sums = attention_array(qs, ks, vs, scale, mask)
    if return_weights:
        p /= sums
    parents = q_node, k_node, v_node = q.node, k.node, v.node

    def backward(g):
        if not return_weights:  # the weights, normalised in place only for this pass
            np.divide(p, sums, out=p)
        g = split_heads(g, heads)
        if v_node.requires_grad:
            v_node.accumulate(merge_heads(_unbroadcast(p.swapaxes(-1, -2) @ g, vs.shape), heads), owned=True)
        ds = g @ vs.swapaxes(-1, -2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        if q_node.requires_grad:
            q_node.accumulate(merge_heads(_unbroadcast(ds @ ks, qs.shape), heads), owned=True)
        if k_node.requires_grad:
            k_node.accumulate(merge_heads(_unbroadcast(ds.swapaxes(-1, -2) @ qs, ks.shape), heads), owned=True)

    out = Tensor._node(merge_heads(out, heads), parents, backward)
    return (out, Tensor(p)) if return_weights else out


def cross_entropy(logits: Tensor, targets, valid: np.ndarray | None = None) -> Tensor:
    """``-log softmax(logits)[target]`` for each row of ``logits`` (..., n)
    and its index in ``targets`` (...), as shape (...). Where the boolean
    ``valid`` (...) is False the entry counts 0 and passes no gradient.
    The node keeps the probabilities and the indices for its backward
    pass, not the logits or the log-probabilities."""
    idx = np.asarray(targets, dtype=np.int64)[..., None]
    logp = log_softmax(logits.data)
    out = -np.take_along_axis(logp, idx, axis=-1)[..., 0]
    sm = np.exp(logp)
    if valid is not None:
        out = out * valid
    node = logits.node

    def backward(g):
        g = (g if valid is None else g * valid)[..., None]
        grad = sm * g
        np.put_along_axis(grad, idx, np.take_along_axis(grad, idx, axis=-1) - g, axis=-1)
        node.accumulate(grad, owned=True)

    return Tensor._node(out, (node,), backward)
