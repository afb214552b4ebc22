import numpy as np
import pytest

from empgen.autodiff import Tensor, parameter
from empgen.corpus import CLS_ID, Vocab
from empgen.encoder import (
    EncoderStack,
    FusionParams,
    analysis_token_ids,
    encode_relations,
    fuse_sensible,
    relation_token_ids,
)
from empgen.knowledge import KnowledgeBundle, RELATIONS
from empgen.training import TrainConfig

from .helpers import encode_one, relation_cls_positions
from .oracles import fusion_oracle, reference

# Values computed before the build with an explicit-loop arithmetic script
# over rng(42) draws; the scale inside the softmax is sqrt(2*d) = 2.
FUSION_CASE_EXPECTED = np.array(
    [
        [0.4171780828423889, -0.5357206047043133],
        [0.4583776453007688, -0.9451489245515237],
    ]
)
FUSION_CASE_ATTENTION = np.array(
    [
        [0.3735643137392887, 0.6264356862607112],
        [0.603973071813704, 0.39602692818629603],
    ]
)


def micro_stack(seed=0, vocab_size=16, d=4, layers=1, heads=2):
    rng = np.random.default_rng(seed)
    return EncoderStack(rng, vocab_size, d, layers, heads, ffn_mult=2, dropout=0.0)


def test_encode_shape_and_determinism():
    stack = micro_stack()
    out1 = stack.encode_padded(np.array([[1, 2]]), np.array([2]))
    out2 = stack.encode_padded(np.array([[1, 2]]), np.array([2]))
    assert out1.shape == (1, 2, 4)
    np.testing.assert_array_equal(out1.data, out2.data)
    assert np.all(np.isfinite(out1.data))


def test_encode_rejects_out_of_range_ids():
    stack = micro_stack(vocab_size=8)
    with pytest.raises(ValueError, match="out of range"):
        encode_one(stack, [7, 8])


def assert_encoders_match_reference(model, heads, ids):
    oracle = reference.ModelOracle.of(model, heads)
    for stack in ("context_encoder", "relation_encoder"):
        ours = encode_one(getattr(model, stack), ids)
        np.testing.assert_allclose(ours, oracle.encode(stack, ids), atol=1e-12, err_msg=stack)


def test_encoder_forward_matches_independent_oracle():
    model = TrainConfig(seed=5, d=4, layers=1, heads=2, ffn_mult=2, dropout=0.0).build_model(12)
    assert_encoders_match_reference(model, 2, [3, 1, 7, 2])


def test_encoder_two_layer_oracle():
    model = TrainConfig(seed=9, d=8, layers=2, heads=2, ffn_mult=2, dropout=0.0).build_model(10)
    assert_encoders_match_reference(model, 2, [0, 4, 9, 3, 3])


def test_encode_cause_same_math_as_context(monkeypatch):
    # The model encodes the cause span with the context's encoder stack.
    import empgen.model
    from empgen.model import AblationPlan, PreparedSample

    model = TrainConfig(seed=0, d=4, layers=1, heads=2, ffn_mult=2, dropout=0.0).build_model(16)
    ids = [2, 4, 5]
    prep = PreparedSample("s", context_ids=[1, 3], target_ids=[3], emotion_index=0, cause_ids=ids)
    seen = []

    def capture(ctx, cause, params, **kwargs):
        seen.append(cause.data)
        return ctx

    monkeypatch.setattr(empgen.model, "fuse_sensible", capture)
    model.encode_batch([prep], AblationPlan("fusion", True, False, False))
    np.testing.assert_array_equal(seen[0], encode_one(model.context_encoder, ids)[None])


# ----------------------------------------------------------------------
# fusion attention


def test_fusion_single_cause_row_collapses_to_value():
    # With one key the softmax weight is exactly 1, so every output row
    # equals the value projection of the single cause row.
    rng = np.random.default_rng(3)
    ctx = Tensor(rng.normal(0, 1, (4, 6)))
    cause = Tensor(rng.normal(0, 1, (1, 6)))
    params = FusionParams.create(rng, 6)
    fused = fuse_sensible(ctx, cause, params)
    expected = cause.data @ params.w_v.data.T
    for i in range(4):
        np.testing.assert_allclose(fused.data[i], expected[0], atol=1e-12)


def test_fusion_zero_query_key_gives_uniform_mean():
    rng = np.random.default_rng(4)
    ctx = Tensor(rng.normal(0, 1, (3, 4)))
    cause = Tensor(rng.normal(0, 1, (5, 4)))
    params = FusionParams(
        w_q=parameter(np.zeros((4, 4))),
        w_k=parameter(np.zeros((4, 4))),
        w_v=parameter(rng.normal(0, 1, (4, 4))),
    )
    fused, attention = fuse_sensible(ctx, cause, params, return_attention=True)
    np.testing.assert_allclose(attention.data, np.full((3, 5), 0.2), atol=1e-12)
    mean_value = (cause.data @ params.w_v.data.T).mean(axis=0)
    for i in range(3):
        np.testing.assert_allclose(fused.data[i], mean_value, atol=1e-12)


def test_fusion_pinned_micro_case():
    rng = np.random.default_rng(42)
    ctx = Tensor(rng.normal(0, 1, (2, 2)))
    cause = Tensor(rng.normal(0, 1, (2, 2)))
    params = FusionParams(
        w_q=parameter(rng.normal(0, 1, (2, 2))),
        w_k=parameter(rng.normal(0, 1, (2, 2))),
        w_v=parameter(rng.normal(0, 1, (2, 2))),
    )
    fused, attention = fuse_sensible(ctx, cause, params, return_attention=True)
    np.testing.assert_allclose(fused.data, FUSION_CASE_EXPECTED, atol=1e-9)
    np.testing.assert_allclose(attention.data, FUSION_CASE_ATTENTION, atol=1e-9)
    # and against the loop oracle recomputed in-process
    np.testing.assert_allclose(
        fused.data,
        fusion_oracle(ctx.data, cause.data, params.w_q.data, params.w_k.data, params.w_v.data),
        atol=1e-12,
    )


def test_fusion_uses_sqrt_2d_scale():
    # A sqrt(d) implementation would differ from the loop oracle, which
    # hard-codes sqrt(2*d).
    rng = np.random.default_rng(8)
    ctx = Tensor(rng.normal(0, 1, (3, 2)))
    cause = Tensor(rng.normal(0, 1, (4, 2)))
    params = FusionParams.create(rng, 2)
    fused = fuse_sensible(ctx, cause, params)
    oracle = fusion_oracle(ctx.data, cause.data, params.w_q.data, params.w_k.data, params.w_v.data)
    np.testing.assert_allclose(fused.data, oracle, atol=1e-12)


def test_fusion_rows_sum_to_one_randomized(rng):
    for _ in range(50):
        lu, ld, d = int(rng.integers(1, 7)), int(rng.integers(1, 7)), 4
        ctx = Tensor(rng.normal(0, 2, (lu, d)))
        cause = Tensor(rng.normal(0, 2, (ld, d)))
        params = FusionParams.create(rng, d)
        fused, attention = fuse_sensible(ctx, cause, params, return_attention=True)
        assert fused.shape == (lu, d)  # output length equals context length
        np.testing.assert_allclose(attention.data.sum(axis=-1), np.ones(lu), atol=1e-6)


def test_fusion_width_mismatch_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="width"):
        fuse_sensible(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 6))), FusionParams.create(rng, 4))


def test_fusion_init_range():
    rng = np.random.default_rng(1)
    params = FusionParams.create(rng, 16)
    bound = 1.0 / np.sqrt(16)
    for t in (params.w_q, params.w_k, params.w_v):
        assert t.shape == (16, 16)
        assert np.all(np.abs(t.data) <= bound)


# ----------------------------------------------------------------------
# relation and analysis encoding


def make_bundle(texts=None):
    texts = texts or [f"tok{i} tok{i} tok{i}" for i in range(5)]
    return KnowledgeBundle(dict(zip(RELATIONS, texts)))


def test_relations_total_rows():
    vocab = Vocab.from_texts(["tok0 tok1 tok2 tok3 tok4"])
    bundle = make_bundle()
    token_lists = relation_token_ids(bundle, vocab)
    stack = micro_stack(vocab_size=len(vocab))
    rep = encode_relations([token_lists], stack)
    assert rep.shape[:2] == (1, 20)  # 5 * (3 tokens + summary)


def test_relation_row_zero_is_first_relation_summary():
    vocab = Vocab.from_texts(["a b c"])
    bundle = make_bundle(["a", "b b", "c", "a b", "c c c"])
    token_lists = relation_token_ids(bundle, vocab)
    assert all(ids[0] == CLS_ID for ids in token_lists)
    stack = micro_stack(vocab_size=len(vocab))
    rep = encode_relations([token_lists], stack)
    solo = encode_one(stack, token_lists[0])
    np.testing.assert_array_equal(rep.data[0, 0], solo[0])


def test_relation_cls_positions_are_prefix_sums():
    vocab = Vocab.from_texts(["a b c"])
    bundle = make_bundle(["a", "b b", "c", "a b", "c c c"])
    token_lists = relation_token_ids(bundle, vocab)
    positions = relation_cls_positions(token_lists)
    lengths = [len(ids) for ids in token_lists]
    expected = [sum(lengths[:i]) for i in range(5)]
    assert positions == expected


def test_relation_rows_property_random_bundles(rng):
    vocab = Vocab.from_texts(["w0 w1 w2 w3 w4 w5 w6 w7"])
    stack = micro_stack(vocab_size=len(vocab))
    for _ in range(20):
        texts = [
            " ".join(f"w{int(i)}" for i in rng.integers(0, 8, int(rng.integers(1, 6))))
            for _ in range(5)
        ]
        bundle = make_bundle(texts)
        token_lists = relation_token_ids(bundle, vocab)
        rep = encode_relations([token_lists], stack)
        total_tokens = sum(len(vocab.encode_text(t)) for t in texts)
        assert rep.shape[:2] == (1, total_tokens + 5)


def test_analysis_ids_prefix_and_truncation():
    vocab = Vocab.from_texts(["word " * 50])
    text = " ".join(["word"] * 9)
    ids = analysis_token_ids(text, vocab)
    assert len(ids) == 10 and ids[0] == CLS_ID
    long_text = " ".join(["word"] * 500)
    ids = analysis_token_ids(long_text, vocab, max_len=128)
    assert len(ids) == 128 and ids[0] == CLS_ID


def test_encode_analysis_shape():
    vocab = Vocab.from_texts(["alpha beta gamma"])
    stack = micro_stack(vocab_size=len(vocab))
    rep = encode_one(stack, analysis_token_ids("alpha beta gamma beta", vocab))
    assert rep.shape == (5, 4)

