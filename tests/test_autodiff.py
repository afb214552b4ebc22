import numpy as np
import pytest

from empgen.autodiff import (
    Node,
    Tensor,
    add_norm,
    attention,
    attention_array,
    concat,
    cross_entropy,
    embedding,
    linear,
    linear_array,
    log_softmax,
    no_grad,
    parameter,
    slice_rows,
    softmax,
)

from .helpers import buffer_of
from .oracles import fd_gradient, reference


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


def test_matmul_broadcast_grad():
    rng = np.random.default_rng(3)
    a = parameter(rng.normal(0, 1, (2, 3, 4)))
    b = parameter(rng.normal(0, 1, (4, 5)))  # broadcast over the stack dim

    def loss():
        return ((a @ b) * 0.5).sum()

    loss().backward()
    assert rel_err(b.grad, fd_gradient(lambda: float(loss().data), b.data, 1e-6)) < 1e-6


def test_softmax_and_log_softmax_match_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 2, (2, 5, 7))
    logp = log_softmax(x)
    probs = softmax(x.copy())
    for row, lp, p in zip(x.reshape(-1, 7), logp.reshape(-1, 7), probs.reshape(-1, 7)):
        np.testing.assert_allclose(p, reference.softmax_rows(row), atol=1e-12)
        np.testing.assert_allclose(lp, reference.log_softmax_rows(row), atol=1e-12)
    scores = x.copy()
    assert softmax(scores, axis=1) is scores  # in place
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-12)


def test_cross_entropy_matches_log_softmax_and_differences():
    rng = np.random.default_rng(7)
    # Leading axes (2, 3) with padded entries, and a (B,) label vector.
    for shape, targets, valid in (
        ((2, 3, 5), [[1, 0, 4], [2, 2, 3]], np.array([[True, True, False], [True, False, False]])),
        ((4, 5), [1, 0, 4, 2], None),
    ):
        x = parameter(rng.normal(0, 1, shape))
        weights = Tensor(rng.normal(0, 1, shape[:-1]))

        def loss():
            return (cross_entropy(x, targets, valid) * weights).sum()

        picked = -np.take_along_axis(log_softmax(x.data), np.array(targets)[..., None], axis=-1)[..., 0]
        expected = picked if valid is None else np.where(valid, picked, 0.0)
        np.testing.assert_allclose(cross_entropy(x, targets, valid).data, expected, atol=1e-12)
        loss().backward()
        assert rel_err(x.grad, fd_gradient(lambda: float(loss().data), x.data, 1e-6)) < 1e-6
        if valid is not None:
            assert not x.grad[~valid].any()


def test_sum_grads():
    check_unary(lambda x: x.sum(axis=0).sum(), (3, 4))
    check_unary(lambda x: (x.sum(axis=-1, keepdims=True) * x).sum(), (3, 4))
    check_unary(lambda x: (x.sum(axis=(0, 2)) * Tensor([1.0, -2.0, 0.5])).sum(), (2, 3, 4))


@pytest.mark.parametrize("bias, relu", [(False, False), (True, False), (False, True), (True, True)])
def test_linear_array_gives_2d_rows_the_bits_of_their_reshaped_path(bias, relu):
    # A (B, d) input is multiplied as it is, with no reshape pair around
    # the GEMM; the same rows as (1, B, d) or (B, 1, d) go through it.
    rng = np.random.default_rng(16)
    x, w = rng.normal(0, 1, (5, 8)), rng.normal(0, 1, (8, 6))
    b = rng.normal(0, 1, 6) if bias else None
    rows = linear_array(x, w, b, relu)
    assert rows.shape == (5, 6)
    assert np.array_equal(rows, linear_array(x[None], w, b, relu)[0])
    assert np.array_equal(rows, linear_array(x[:, None], w, b, relu)[:, 0])


def test_relu_linear_gradients_away_from_the_kink():
    rng = np.random.default_rng(15)
    x = parameter(rng.normal(0, 1, (2, 3, 4)))
    w = parameter(rng.normal(0, 1, (4, 6)))
    b = parameter(rng.normal(0, 1, (6,)))
    pre = x.data @ w.data + b.data
    # Every pre-activation is far from 0 next to the difference step.
    assert np.abs(pre).min() > 1e-2 and (pre > 0).any() and (pre < 0).any()
    probe = rng.normal(0, 1, (2, 3, 6))

    def loss():
        return (linear(x, w, b, relu=True) * Tensor(probe)).sum()

    np.testing.assert_array_equal(linear(x, w, b, relu=True).data, np.maximum(pre, 0.0))
    loss().backward()
    for name, t in zip("xwb", (x, w, b)):
        fd = fd_gradient(lambda: float(loss().data), t.data, h=1e-6)
        assert rel_err(t.grad, fd) < 1e-6, name


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
        out = cross_entropy(linear(x, w, relu=True) + x.sum(axis=1, keepdims=True), [0, 1])
        assert not out.requires_grad
        assert out._parents == () and out.node.backward is None
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
    rng = np.random.default_rng(8)
    # Attention skips the row-max shift where it has more scores than
    # query and key entries and its Cauchy–Schwarz bound, 0.7 · max‖h_i‖ ·
    # max‖k_j‖, is below 300. Three queries over 6 keys make too few
    # scores, 12 over 12 or 8 over 14 enough, and keys 60 times larger
    # pass the bound. Each case is checked the same way.
    for rows, keys, size, shifted in ((3, 6, 1.0, True), (12, 12, 1.0, False), (8, 14, 60.0, True)):
        mask = np.where(np.arange(keys) < np.array([[4], [keys]]), 0.0, -1e9)[:, None, :]
        x = parameter(rng.normal(0, 1, (2, rows, 4)))
        w = parameter(rng.normal(0, 1, (4, 5)))
        b = parameter(rng.normal(0, 1, (5,)))
        r = parameter(rng.normal(0, 1, (2, rows, 5)))  # the sublayer's input
        gain = parameter(rng.normal(1, 0.3, (5,)))
        shift = parameter(rng.normal(0, 1, (5,)))
        k = parameter(rng.normal(0, size, (2, keys, 5)))
        v = parameter(rng.normal(0, 1, (2, keys, 5)))
        probe = rng.normal(0, 1, (2, rows, 5))
        leaves = dict(zip("xwbrgskv", (x, w, b, r, gain, shift, k, v)))

        def attended():
            h = add_norm(r, linear(x, w, b), gain, shift, 1e-5, 0.3, np.random.default_rng(5))
            return attention(h, k, v, 0.7, mask)

        def fused():
            return (attended() * Tensor(probe)).sum()

        def normed():  # add_norm's float operations, in numpy
            h = (x.data.reshape(-1, 4) @ w.data + b.data).reshape(2, rows, 5)
            s = r.data + h * ((np.random.default_rng(5).random(h.shape) >= 0.3) / (1.0 - 0.3))
            centered = s - s.sum(axis=-1, keepdims=True) * (1.0 / 5)
            var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / 5)
            return centered * (var + 1e-5) ** -0.5 * gain.data + shift.data

        def composed():  # the same float operations, in numpy
            # Attention scales the queries and divides its output by the sums.
            scores = (normed() * 0.7) @ k.data.swapaxes(-1, -2) + mask
            weights = np.exp(scores - scores.max(axis=-1, keepdims=True) if shifted else scores)
            return (weights @ v.data) / weights.sum(axis=-1, keepdims=True)

        bound = 0.7 * np.linalg.norm(normed(), axis=-1).max() * np.linalg.norm(k.data, axis=-1).max()
        assert (rows * keys <= 5 * (rows + keys) or bound >= 300) == shifted
        np.testing.assert_array_equal(attended().data, composed())
        assert float(fused().data) == float((composed() * probe).sum())
        fused().backward()
        for name, t in leaves.items():
            fd = fd_gradient(lambda: float(fused().data), t.data, h=1e-5)
            assert rel_err(t.grad, fd) < 1e-5, (rows, size, name)
        # Padded keys get no gradient at all.
        assert not k.grad[0, 4:].any() and not v.grad[0, 4:].any()


def test_a_row_with_every_key_hidden_stays_finite():
    # Unshifted, such a row would sum to exp(-1e9) = 0 and give 0 / 0; the
    # bound counts the mask's row maxima, so it takes the shifted path,
    # though the scores outnumber the entries of q and k.
    rng = np.random.default_rng(4)
    q, k, v = (rng.normal(0, 1, (2, 12, 4)) for _ in range(3))
    mask = np.where(np.arange(12) < np.array([[10], [0]]), 0.0, -1e9)[:, None, :]
    out, _, sums = attention_array(q, k, v, 0.5, mask)
    assert np.isfinite(out).all() and (sums >= 1).all()
    e = (q[:1] * 0.5) @ k[:1].swapaxes(-1, -2) + mask[:1]  # the shifted path's float operations
    e = np.exp(e - e.max(axis=-1, keepdims=True))
    np.testing.assert_array_equal(out[:1], (e @ v[:1]) / e.sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("rate", [0.0, 0.4])
def test_add_norm_gradients_with_dropout_on_and_off(rate):
    rng = np.random.default_rng(16)
    x = parameter(rng.normal(0, 1, (2, 3, 6)))
    h = parameter(rng.normal(0, 1, (2, 3, 6)))
    gain = parameter(rng.normal(1, 0.3, (6,)))
    shift = parameter(rng.normal(0, 1, (6,)))
    probe = rng.normal(0, 1, (2, 3, 6))

    def drops():  # a fixed mask draw; None turns dropout off
        return np.random.default_rng(17) if rate else None

    def loss():
        return (add_norm(x, h, gain, shift, 1e-5, rate, drops()) * Tensor(probe)).sum()

    # The mask is one rng.random(h.shape) draw, as inverted dropout makes it.
    keep = np.random.default_rng(17).random(h.shape) >= rate
    s = x.data + h.data * (keep / (1.0 - rate))
    normed = (s - s.mean(axis=-1, keepdims=True)) / np.sqrt(s.var(axis=-1, keepdims=True) + 1e-5)
    out = add_norm(x, h, gain, shift, 1e-5, rate, drops()).data
    np.testing.assert_allclose(out, normed * gain.data + shift.data, rtol=1e-12, atol=1e-14)
    loss().backward()
    for name, t in zip(("x", "h", "gain", "shift"), (x, h, gain, shift)):
        fd = fd_gradient(lambda: float(loss().data), t.data, h=1e-6)
        assert rel_err(t.grad, fd) < 1e-6, name
    assert rate == 0.0 or (not h.grad[~keep].any() and keep.any() and not keep.all())


def test_backward_releases_intermediates_and_keeps_leaf_grads():
    import gc
    import weakref

    rng = np.random.default_rng(9)
    x = parameter(rng.normal(0, 1, (3, 4)))
    w = parameter(rng.normal(0, 1, (4, 4)))
    gain, shift = parameter(np.ones(4)), parameter(np.zeros(4))
    hidden = linear(x, w, relu=True)
    out = add_norm(x, hidden, gain, shift, 1e-5, 0.5, np.random.default_rng(0))
    loss = (out * out).sum()
    # The Tensors are freed with their last reference. The arrays that a
    # backward formula reads stay on the tape: the ReLU output rectifies its
    # linear's gradient and ``out`` is a factor of the product's.
    tensors = [weakref.ref(t) for t in (hidden, out)]
    arrays = [weakref.ref(buffer_of(t.data)) for t in (hidden, out)]
    del hidden, out
    gc.collect()
    assert all(r() is None for r in tensors)
    assert all(r() is not None for r in arrays)
    loss.backward()
    gc.collect()
    assert all(r() is None for r in arrays)
    assert loss.grad is None and loss._parents == ()
    for leaf in (x, w, gain, shift):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape


def test_accumulate_copies_the_first_gradient():
    a = parameter(np.zeros(3))
    b = parameter(np.zeros(3))
    (a + b).sum().backward()  # both receive the same incoming array
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, np.ones(3))


@pytest.mark.parametrize("op", ["slice_rows", "sum", "mul"])
def test_backward_passes_hand_over_their_fresh_gradients_uncopied(op, monkeypatch):
    # Each of these backward passes makes a new array, so it passes it as
    # owned and the first accumulation keeps it rather than copying it.
    x = parameter(np.arange(6.0).reshape(2, 3))
    out = {"slice_rows": lambda: slice_rows(x, 0, 1), "sum": lambda: x.sum(axis=0), "mul": lambda: x * x}[op]()
    accumulate, flags = Node.accumulate, []

    def spy(node, grad, owned=False):
        flags.append(owned)
        accumulate(node, grad, owned)

    monkeypatch.setattr(Node, "accumulate", spy)
    out.sum().backward()
    expected = {"slice_rows": [[1.0] * 3, [0.0] * 3], "sum": np.ones((2, 3)), "mul": 2 * x.data}[op]
    np.testing.assert_array_equal(x.grad, expected)
    assert flags[0] is False and all(flags[1:]), flags  # the first call seeds the loss's own gradient


def test_shared_gradient_stays_distinct_over_two_passes():
    rng = np.random.default_rng(12)
    a, b = parameter(rng.normal(0, 1, (2, 3))), parameter(rng.normal(0, 1, (2, 3)))
    w = parameter(rng.normal(0, 1, (3, 4)))

    def loss():
        return linear(a + b, w).sum()  # the add hands one array to both leaves

    loss().backward()
    assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
    first = a.grad.copy()
    np.testing.assert_array_equal(b.grad, first)
    first_w = w.grad.copy()
    loss().backward()
    np.testing.assert_allclose(a.grad, 2 * first, rtol=1e-15)
    np.testing.assert_allclose(b.grad, 2 * first, rtol=1e-15)
    np.testing.assert_allclose(w.grad, 2 * first_w, rtol=1e-15)


def split_heads(t, heads):
    return t.reshape(*t.shape[:-1], heads, t.shape[-1] // heads).swapaxes(-3, -2)


def test_multi_head_attention_matches_split_attend_merge():
    rng = np.random.default_rng(13)
    q = parameter(rng.normal(0, 1, (2, 3, 8)))
    k = parameter(rng.normal(0, 1, (2, 5, 8)))
    v = parameter(rng.normal(0, 1, (2, 5, 8)))
    mask = np.where(np.arange(5) < np.array([[3], [5]]), 0.0, -1e9)[:, None, :]
    probe = rng.normal(0, 1, (2, 3, 8))

    def fused():
        return attention(q, k, v, 0.6, mask, heads=4)

    def composed():
        out = attention(split_heads(q, 4), split_heads(k, 4), split_heads(v, 4), 0.6, mask[:, None])
        return out.swapaxes(-3, -2).reshape(2, 3, 8)

    np.testing.assert_array_equal(fused().data, composed().data)
    grads = []
    for make in (fused, composed):
        (make() * Tensor(probe)).sum().backward()
        grads.append([t.grad.copy() for t in (q, k, v)])
        for t in (q, k, v):
            t.zero_grad()
    for name, ours, theirs in zip("qkv", *grads):
        np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=1e-13, err_msg=name)
    _, weights = attention(q, k, v, 0.6, mask, return_weights=True, heads=4)
    assert weights.shape == (2, 4, 3, 5)
    np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, rtol=1e-14)


def test_multi_head_attention_gradients_over_hypotheses_and_padding():
    rng = np.random.default_rng(14)
    q = parameter(rng.normal(0, 1, (3, 2, 8)))  # three hypotheses
    k = parameter(rng.normal(0, 1, (6, 8)))  # one unbatched memory
    v = parameter(rng.normal(0, 1, (6, 8)))
    mask = np.where(np.arange(6) < 4, 0.0, -1e9)[None, :]  # two padded keys
    probe = rng.normal(0, 1, (3, 2, 8))

    def loss():
        return (attention(q, k, v, 0.5, mask, heads=4) * Tensor(probe)).sum()

    loss().backward()
    for name, t in zip("qkv", (q, k, v)):
        fd = fd_gradient(lambda: float(loss().data), t.data, h=1e-5)
        assert rel_err(t.grad, fd) < 1e-6, name
    assert not k.grad[4:].any() and not v.grad[4:].any()
