import numpy as np
import pytest

from empgen.autodiff import (
    Tensor,
    concat,
    embedding,
    log_softmax,
    no_grad,
    parameter,
    slice_rows,
    softmax,
    take_per_row,
)

from .oracles import fd_gradient, softmax_oracle


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def check_unary(make_loss, shape, seed=0, tol=1e-6):
    rng = np.random.default_rng(seed)
    x = parameter(rng.normal(0, 1, shape))
    loss = make_loss(x)
    loss.backward()
    fd = fd_gradient(lambda: float(make_loss(x).data), x.data, h=1e-6)
    assert rel_err(x.grad, fd) < tol


def test_add_mul_broadcast_grads():
    rng = np.random.default_rng(1)
    a = parameter(rng.normal(0, 1, (3, 4)))
    b = parameter(rng.normal(0, 1, (4,)))  # broadcast over rows

    def loss():
        return ((a + b) * (a * 2.0 + 1.0)).sum()

    loss().backward()
    fd_a = fd_gradient(lambda: float(loss().data), a.data, h=1e-6)
    fd_b = fd_gradient(lambda: float(loss().data), b.data, h=1e-6)
    assert rel_err(a.grad, fd_a) < 1e-6
    assert rel_err(b.grad, fd_b) < 1e-6


def test_matmul_grads_2d_and_3d():
    rng = np.random.default_rng(2)
    a = parameter(rng.normal(0, 1, (2, 3, 4)))
    b = parameter(rng.normal(0, 1, (2, 4, 5)))

    def loss():
        return (a @ b).sum()

    loss().backward()
    assert rel_err(a.grad, fd_gradient(lambda: float(loss().data), a.data, 1e-6)) < 1e-6
    assert rel_err(b.grad, fd_gradient(lambda: float(loss().data), b.data, 1e-6)) < 1e-6


def test_matmul_broadcast_grad():
    rng = np.random.default_rng(3)
    a = parameter(rng.normal(0, 1, (2, 3, 4)))
    b = parameter(rng.normal(0, 1, (4, 5)))  # broadcast over the stack dim

    def loss():
        return ((a @ b) * 0.5).sum()

    loss().backward()
    assert rel_err(b.grad, fd_gradient(lambda: float(loss().data), b.data, 1e-6)) < 1e-6


def test_softmax_matches_oracle_and_grad():
    rng = np.random.default_rng(4)
    x = parameter(rng.normal(0, 2, (5, 7)))
    y = softmax(x, axis=-1)
    for i in range(5):
        np.testing.assert_allclose(y.data[i], softmax_oracle(list(x.data[i])), atol=1e-12)

    def loss():
        out = softmax(x, axis=-1)
        return (out * out).sum()

    loss().backward()
    assert rel_err(x.grad, fd_gradient(lambda: float(loss().data), x.data, 1e-6)) < 1e-5


def test_log_softmax_grad():
    check_unary(lambda x: (log_softmax(x, axis=-1) * 0.3).sum(), (4, 6), tol=1e-5)


def test_reductions_and_pow():
    check_unary(lambda x: x.sum(axis=0).sum(), (3, 4))
    check_unary(lambda x: x.mean(axis=-1, keepdims=True).sum(), (3, 4))
    check_unary(lambda x: ((x * x) + 1.0).pow(0.5).sum(), (3, 3))
    check_unary(lambda x: x.relu().sum(), (5, 5))


def test_reshape_swapaxes_concat_slice():
    rng = np.random.default_rng(5)
    a = parameter(rng.normal(0, 1, (4, 6)))
    b = parameter(rng.normal(0, 1, (2, 6)))

    def loss():
        stacked = concat([a, b], axis=0)
        part = slice_rows(stacked, 1, 5)
        return (part.reshape(2, 12).swapaxes(0, 1) * 0.7).sum()

    loss().backward()
    assert rel_err(a.grad, fd_gradient(lambda: float(loss().data), a.data, 1e-6)) < 1e-6
    assert rel_err(b.grad, fd_gradient(lambda: float(loss().data), b.data, 1e-6)) < 1e-6


def test_embedding_scatter_grad():
    rng = np.random.default_rng(6)
    table = parameter(rng.normal(0, 1, (7, 3)))
    ids = [0, 2, 2, 5]  # repeated rows must accumulate

    def loss():
        return (embedding(table, ids) * 2.0).sum()

    loss().backward()
    fd = fd_gradient(lambda: float(loss().data), table.data, 1e-6)
    assert rel_err(table.grad, fd) < 1e-6


def test_take_per_row_grad():
    rng = np.random.default_rng(7)
    x = parameter(rng.normal(0, 1, (4, 5)))
    idx = [1, 0, 4, 2]

    def loss():
        return take_per_row(x, idx).sum()

    loss().backward()
    fd = fd_gradient(lambda: float(loss().data), x.data, 1e-6)
    assert rel_err(x.grad, fd) < 1e-6


def test_grad_accumulates_across_backward_calls():
    x = parameter(np.ones((2, 2)))
    (x * 3.0).sum().backward()
    (x * 3.0).sum().backward()
    np.testing.assert_allclose(x.grad, np.full((2, 2), 6.0))
    x.zero_grad()
    assert x.grad is None


def test_backward_requires_scalar():
    x = parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        (x * 1.0).backward()


def test_constants_build_no_graph():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = a @ b + a
    assert not out.requires_grad
    assert out._parents == ()


def test_no_grad_records_no_parents_and_keeps_leaves_trainable():
    x = parameter(np.ones((2, 3)))
    w = parameter(np.full((3, 2), 0.5))
    with no_grad():
        out = softmax((x @ w).relu() + x.sum(axis=1, keepdims=True), axis=-1)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
    assert x.requires_grad and w.requires_grad
    taped = (x @ w).sum()
    assert taped.requires_grad and taped._parents


def test_no_grad_nests_and_restores_after_an_exception():
    x = parameter(np.ones(2))
    with no_grad():
        with no_grad():
            assert not (x * 2.0).requires_grad
        assert not (x * 2.0).requires_grad
    assert (x * 2.0).requires_grad
    with pytest.raises(RuntimeError, match="inside"):
        with no_grad():
            raise RuntimeError("inside")
    out = (x * 2.0).sum()
    assert out.requires_grad
    out.backward()
    np.testing.assert_allclose(x.grad, [2.0, 2.0])


def test_no_grad_holds_only_in_its_own_thread():
    import threading

    x = parameter(np.ones(2))
    seen = []
    worker = threading.Thread(target=lambda: seen.append((x * 2.0).requires_grad))
    with no_grad():
        worker.start()
        worker.join(timeout=10)
        assert not (x * 2.0).requires_grad
    assert not worker.is_alive()
    assert seen == [True]


# ----------------------------------------------------------------------
# fused nodes and tape release


def test_fused_nodes_match_composed_ops_and_differences():
    from empgen.autodiff import attention, layer_norm, linear

    rng = np.random.default_rng(8)
    x = parameter(rng.normal(0, 1, (2, 3, 4)))
    w = parameter(rng.normal(0, 1, (4, 5)))
    b = parameter(rng.normal(0, 1, (5,)))
    gain = parameter(rng.normal(1, 0.3, (5,)))
    shift = parameter(rng.normal(0, 1, (5,)))
    k = parameter(rng.normal(0, 1, (2, 6, 5)))
    v = parameter(rng.normal(0, 1, (2, 6, 5)))
    mask = np.where(np.arange(6) < np.array([[4], [6]]), 0.0, -1e9)[:, None, :]
    probe = rng.normal(0, 1, (2, 3, 5))

    def fused():
        h = layer_norm(linear(x, w, b), gain, shift, 1e-5)
        return (attention(h, k, v, 0.7, mask) * Tensor(probe)).sum()

    def composed():
        h = x @ w + b
        centered = h - h.mean(axis=-1, keepdims=True)
        inv = ((centered * centered).mean(axis=-1, keepdims=True) + 1e-5).pow(-0.5)
        h = centered * inv * gain + shift
        weights = softmax((h @ k.swapaxes(-1, -2)) * 0.7 + Tensor(mask), axis=-1)
        return ((weights @ v) * Tensor(probe)).sum()

    assert float(fused().data) == float(composed().data)
    fused().backward()
    ours = {name: t.grad.copy() for name, t in zip("xwbgskv", (x, w, b, gain, shift, k, v))}
    for name, t in zip("xwbgskv", (x, w, b, gain, shift, k, v)):
        t.zero_grad()
    composed().backward()
    for name, t in zip("xwbgskv", (x, w, b, gain, shift, k, v)):
        np.testing.assert_allclose(ours[name], t.grad, rtol=1e-12, atol=1e-13, err_msg=name)
        fd = fd_gradient(lambda: float(fused().data), t.data, h=1e-5)
        assert rel_err(ours[name], fd) < 1e-5, name
    # Padded keys get no gradient at all.
    assert not ours["k"][0, 4:].any() and not ours["v"][0, 4:].any()


def test_backward_releases_intermediates_and_keeps_leaf_grads():
    import gc
    import weakref

    from empgen.autodiff import layer_norm, linear

    rng = np.random.default_rng(9)
    x = parameter(rng.normal(0, 1, (3, 4)))
    w = parameter(rng.normal(0, 1, (4, 4)))
    gain, shift = parameter(np.ones(4)), parameter(np.zeros(4))
    hidden = linear(x, w)
    out = layer_norm(hidden.relu(), gain, shift, 1e-5)
    loss = (out * out).sum()
    refs = [weakref.ref(t) for t in (hidden, out)]
    del hidden, out
    gc.collect()
    assert all(r() is not None for r in refs)  # held by the tape
    loss.backward()
    gc.collect()
    assert all(r() is None for r in refs)
    assert loss.grad is None and loss._parents == ()
    for leaf in (x, w, gain, shift):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape


def test_accumulate_copies_the_first_gradient():
    a = parameter(np.zeros(3))
    b = parameter(np.zeros(3))
    (a + b).sum().backward()  # both receive the same incoming array
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, np.ones(3))
