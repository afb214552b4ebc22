import math

import numpy as np
import pytest

from empgen.autodiff import Tensor
from empgen.emotion import (
    classify_emotion,
    emotion_logits,
    emotion_nll,
    fuse_features,
    pool_knowledge,
)
from empgen.layers import Linear

from .helpers import emotion_loss
from .oracles import fd_gradient, softmax_oracle


def pool_one(rows: np.ndarray) -> Tensor:
    """The pooled knowledge of one unpadded sample, as a batch of one."""
    return pool_knowledge(Tensor(rows[None]), np.array([len(rows)]))


def test_pool_equal_rows_returns_row(rng):
    v = rng.normal(0, 1, 6)
    np.testing.assert_allclose(pool_one(np.tile(v, (4, 1))).data[0], v, atol=1e-12)


def test_pool_single_row_identity(rng):
    v = rng.normal(0, 1, (1, 5))
    np.testing.assert_array_equal(pool_one(v).data, v)


def test_pool_random_matrix_vs_mean_oracle(rng):
    m = rng.normal(0, 1, (7, 6))
    ours = pool_one(m).data[0]
    theirs = np.array([sum(m[i][j] for i in range(7)) / 7 for j in range(6)])
    np.testing.assert_allclose(ours, theirs, atol=1e-12)


def test_pool_empty_errors():
    with pytest.raises(ValueError):
        pool_knowledge(Tensor(np.zeros((1, 0, 4))), np.array([0]))


def test_fuse_concatenation_order():
    ctx = Tensor(np.array([[[1.0, 2.0], [9.0, 9.0]]]))
    an = Tensor(np.array([[[3.0, 4.0]]]))
    pooled = Tensor(np.array([[5.0, 6.0]]))
    fused = fuse_features(ctx, an, pooled, 2)
    np.testing.assert_array_equal(fused.data, [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])


def test_fuse_length_is_3d(rng):
    for d in (2, 5, 16):
        ctx = Tensor(rng.normal(0, 1, (1, 3, d)))
        an = Tensor(rng.normal(0, 1, (1, 2, d)))
        pooled = Tensor(rng.normal(0, 1, (1, d)))
        assert fuse_features(ctx, an, pooled, d).shape == (1, 3 * d)


def test_fuse_zero_fills_missing_streams(rng):
    ctx = Tensor(rng.normal(0, 1, (1, 3, 4)))
    fused = fuse_features(ctx, None, None, 4)
    np.testing.assert_array_equal(fused.data[0, :4], ctx.data[0, 0])
    np.testing.assert_array_equal(fused.data[0, 4:], np.zeros(8))


def test_fuse_zero_fills_analysis_slot_only(rng):
    # Configs without the analysis stream: middle slice zeroed, the other
    # two slices untouched.
    ctx = Tensor(rng.normal(0, 1, (1, 3, 4)))
    pooled = Tensor(rng.normal(0, 1, (1, 4)))
    fused = fuse_features(ctx, None, pooled, 4)
    np.testing.assert_array_equal(fused.data[0, :4], ctx.data[0, 0])
    np.testing.assert_array_equal(fused.data[0, 4:8], np.zeros(4))
    np.testing.assert_array_equal(fused.data[0, 8:], pooled.data[0])


def test_fuse_round_trip_bit_exact(rng):
    ctx = Tensor(rng.normal(0, 1, (1, 3, 4)))
    an = Tensor(rng.normal(0, 1, (1, 2, 4)))
    pooled = pool_one(rng.normal(0, 1, (5, 4)))
    fused = fuse_features(ctx, an, pooled, 4).data[0]
    assert np.array_equal(fused[:4], ctx.data[0, 0])
    assert np.array_equal(fused[4:8], an.data[0, 0])
    assert np.array_equal(fused[8:], pooled.data[0])


def test_fuse_width_mismatch(rng):
    with pytest.raises(ValueError, match="width"):
        fuse_features(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros((1, 1, 6))), None, 4)


def test_zero_classifier_gives_uniform_over_32(rng):
    params = Linear(rng, 12, 32)
    params.weight.data[:] = 0.0
    probs = classify_emotion(Tensor(rng.normal(0, 1, (1, 12))), params)
    np.testing.assert_allclose(probs, np.full((1, 32), 1.0 / 32), atol=1e-12)


def test_softmax_shift_invariance(rng):
    params = Linear(rng, 6, 8)
    feature = Tensor(rng.normal(0, 1, (1, 6)))
    base = classify_emotion(feature, params)
    params.bias.data += 7.3  # constant shift of all logits
    shifted = classify_emotion(feature, params)
    np.testing.assert_allclose(base, shifted, atol=1e-9)


def test_classify_matches_exp_normalize_oracle(rng):
    params = Linear(rng, 9, 6)
    feature = Tensor(rng.normal(0, 1, (1, 9)))
    probs = classify_emotion(feature, params)[0]
    logits = emotion_logits(feature, params).data[0]
    np.testing.assert_allclose(probs, softmax_oracle(list(logits)), atol=1e-10)
    assert abs(probs.sum() - 1.0) < 1e-12


def test_argmax_invariant_under_joint_rescaling(rng):
    params = Linear(rng, 6, 5, bias=False)
    params.weight.data = rng.normal(0, 1, (6, 5))
    feature = rng.normal(0, 1, (1, 6))
    base = classify_emotion(Tensor(feature), params)
    scaled_params = Linear(rng, 6, 5, bias=False)
    scaled_params.weight.data = params.weight.data / 3.0
    scaled = classify_emotion(Tensor(feature * 3.0), scaled_params)
    assert int(np.argmax(base)) == int(np.argmax(scaled))
    np.testing.assert_allclose(base, scaled, atol=1e-9)


def test_emotion_loss_values():
    probs = np.zeros(32)
    probs[4] = 1.0
    assert emotion_loss(probs, 4) == 0.0
    uniform = np.full(32, 1.0 / 32)
    assert abs(emotion_loss(uniform, 9) - math.log(32)) < 1e-9


def test_emotion_loss_random_vs_log_lookup(rng):
    raw = rng.uniform(0.01, 1.0, 16)
    probs = raw / raw.sum()
    for idx in (0, 7, 15):
        assert abs(emotion_loss(probs, idx) - (-math.log(probs[idx]))) < 1e-12


def test_emotion_loss_nonnegative_and_zero_iff_certain(rng):
    for _ in range(20):
        raw = rng.uniform(0.001, 1.0, 8)
        probs = raw / raw.sum()
        idx = int(rng.integers(0, 8))
        loss = emotion_loss(probs, idx)
        assert loss >= 0.0
        assert (loss == 0.0) == (probs[idx] == 1.0)


def test_emotion_loss_index_range():
    with pytest.raises(IndexError):
        emotion_loss(np.full(8, 1 / 8), 8)


def test_emotion_nll_matches_loss_and_gradient(rng):
    params = Linear(rng, 6, 5)
    feature = Tensor(rng.normal(0, 1, (1, 6)))
    nll = emotion_nll(feature, params, [3])
    assert nll.shape == (1,)
    probs = classify_emotion(feature, params)[0]
    assert abs(float(nll.data[0]) - emotion_loss(probs, 3)) < 1e-12

    def loss():
        return float(emotion_nll(feature, params, [3]).data.sum())

    params.weight.zero_grad()
    emotion_nll(feature, params, [3]).sum().backward()
    fd = fd_gradient(loss, params.weight.data, h=1e-5)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(params.weight.grad)), 1e-6)
    assert np.max(np.abs(fd - params.weight.grad) / denom) < 1e-6
