import json

import numpy as np
import pytest

from empgen.knowledge import AnalysisCache, EchoLlmClient, TemplateCommonsenseProvider
from empgen.model import PLANS, Providers
from empgen.selectors import HeuristicCauseDetector, OracleSentimentPredictor
from empgen.training import (
    Adam,
    CheckpointError,
    TrainConfig,
    check_gradients,
    grad_check,
    load_checkpoint,
    micro_prepared_sample,
    save_checkpoint,
    train,
)


def tiny_config(**overrides):
    base = dict(
        seed=5, d=16, layers=1, heads=2, ffn_mult=2, dropout=0.1,
        learning_rate=1e-3, epochs=2, batch_size=8, ablation="full",
    )
    base.update(overrides)
    return TrainConfig(**base)


def fresh_providers(lexicon):
    return Providers(
        sentiment=OracleSentimentPredictor(),
        cause=HeuristicCauseDetector(lexicon),
        commonsense=TemplateCommonsenseProvider(),
        llm=EchoLlmClient(),
        analysis_cache=AnalysisCache(),
    )


def test_total_equals_nll_plus_emo_exactly(mini_samples, mini_vocab, lexicon):
    result = train(tiny_config(), mini_samples[:24], mini_vocab, fresh_providers(lexicon))
    assert len(result.history) > 0
    for record in result.history:
        assert record.total == record.nll + record.emo  # bitwise, same floats


def test_training_log_written(tmp_path, mini_samples, mini_vocab, lexicon):
    log = tmp_path / "log.jsonl"
    result = train(tiny_config(epochs=1), mini_samples[:16], mini_vocab, fresh_providers(lexicon), log_path=log)
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    assert len(lines) == len(result.history)
    assert {"step", "epoch", "nll", "emo", "total"} <= set(lines[0])


def test_determinism_identical_histories(mini_samples, mini_vocab, lexicon):
    r1 = train(tiny_config(), mini_samples[:24], mini_vocab, fresh_providers(lexicon))
    r2 = train(tiny_config(), mini_samples[:24], mini_vocab, fresh_providers(lexicon))
    assert [h.to_dict() for h in r1.history] == [h.to_dict() for h in r2.history]


def test_vanilla_ignores_providers_entirely(mini_samples, mini_vocab, lexicon):
    config = tiny_config(ablation="vanilla")
    with_providers = fresh_providers(lexicon)
    r1 = train(config, mini_samples[:16], mini_vocab, with_providers)
    r2 = train(config, mini_samples[:16], mini_vocab, providers=None)
    assert [h.total for h in r1.history] == [h.total for h in r2.history]
    assert with_providers.call_counts() == {"sentiment": 0, "cause": 0, "commonsense": 0, "llm": 0}


def test_ablation_provider_footprints(mini_samples, mini_vocab, lexicon):
    expected_zero = {
        "vanilla": {"sentiment", "cause", "commonsense", "llm"},
        "self_pres": {"llm"},
        "analysis": {"cause"},
        "full": set(),
    }
    for ablation, zeros in expected_zero.items():
        providers = fresh_providers(lexicon)
        train(tiny_config(ablation=ablation, epochs=1), mini_samples[:8], mini_vocab, providers)
        counts = providers.call_counts()
        for name, count in counts.items():
            if name in zeros:
                assert count == 0, (ablation, name)
            else:
                assert count > 0, (ablation, name)


def test_ablation_gradient_footprints_distinct(mini_samples, mini_vocab, lexicon):
    # One step per config; the set of parameters receiving gradient must
    # differ across all four configurations.
    from empgen.model import prepare_samples
    from empgen.training import gradient_footprint

    footprints = {}
    for ablation in PLANS:
        config = tiny_config(ablation=ablation, epochs=1, batch_size=4, dropout=0.0)
        plan = PLANS[ablation]
        providers = fresh_providers(lexicon)
        prepared = prepare_samples(mini_samples[:4], mini_vocab, providers, plan)
        model = config.build_model(len(mini_vocab))
        fwd = model.forward_sample(prepared[0], plan)
        (fwd.nll_sum * (1.0 / fwd.token_count) + fwd.emo_nll).backward()
        footprints[ablation] = gradient_footprint(model)
    assert len(set(footprints.values())) == 4
    assert not any("fusion" in n for n in footprints["vanilla"])
    assert not any("relation_encoder" in n for n in footprints["vanilla"])
    assert any("fusion" in n for n in footprints["full"])
    assert "decoder.segment_embedding[2]" in footprints["analysis"]
    assert "decoder.segment_embedding[2]" not in footprints["self_pres"]


def test_nan_loss_aborts_with_batch_id(mini_samples, mini_vocab, lexicon):
    from empgen.training import TrainingDiverged

    config = tiny_config(epochs=1, dropout=0.0)
    poisoned = config.build_model(len(mini_vocab))
    poisoned.classifier.weight.data[0, 0] = np.nan
    with pytest.raises(TrainingDiverged, match="step 1"):
        train(config, mini_samples[:16], mini_vocab, fresh_providers(lexicon), initial_model=poisoned)


def test_grad_clip_bounds_update(mini_samples, mini_vocab, lexicon):
    config = tiny_config(grad_clip=1.0, epochs=1)
    result = train(config, mini_samples[:8], mini_vocab, fresh_providers(lexicon))
    assert all(np.isfinite(h.total) for h in result.history)


def test_overfit_eight_samples_two_hundred_steps(mini_samples, mini_vocab, lexicon):
    # Pinned regression: this recipe reproducibly collapses the loss by
    # far more than the 90% bound asserted here.
    config = TrainConfig(
        seed=3, d=32, layers=1, heads=2, ffn_mult=2, dropout=0.0,
        learning_rate=3e-3, epochs=200, batch_size=8, ablation="full",
    )
    result = train(config, mini_samples[:8], mini_vocab, fresh_providers(lexicon))
    first, last = result.history[0].total, result.history[-1].total
    assert last < 0.1 * first


def test_strict_sum_mode_total(mini_samples, mini_vocab, lexicon):
    config = tiny_config(strict_sum=True, epochs=1)
    result = train(config, mini_samples[:8], mini_vocab, fresh_providers(lexicon))
    h = result.history[0]
    assert h.total == h.nll + h.emo
    assert h.nll == h.nll_sum / 8  # per-sample mean of the raw sums


# ----------------------------------------------------------------------
# gradient checking


def test_grad_check_passes_micro_model():
    report = grad_check()
    assert report.passed
    groups = report.group_errors()
    assert {"encoder", "fusion", "decoder", "emotion"} <= set(groups)
    assert all(err < 1e-4 for err in groups.values())


def test_grad_check_detects_corruption():
    from empgen.training import micro_prepared_sample

    config = TrainConfig(seed=3, d=8, layers=1, heads=2, ffn_mult=2, dropout=0.0,
                         num_emotions=5, ablation="full")
    prep = micro_prepared_sample()
    model = config.build_model(24)
    plan = PLANS["full"]

    def loss():
        fwd = model.forward_sample(prep, plan)
        return float(fwd.nll_sum.data / fwd.token_count + fwd.emo_nll.data)

    model.zero_grad()
    fwd = model.forward_sample(prep, plan)
    (fwd.nll_sum * (1.0 / fwd.token_count) + fwd.emo_nll).backward()
    params = model.named_parameters()
    analytic = {k: p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for k, p in params.items()}
    analytic["classifier.weight"] = analytic["classifier.weight"] + 1.0  # corrupted fixture
    report = check_gradients(loss, params, analytic)
    assert not report.passed
    worst = max(e.max_rel_error for e in report.entries if e.name == "classifier.weight")
    assert worst > 1e-2


def test_grad_check_empty_params_passes():
    report = check_gradients(lambda: 0.0, {}, {})
    assert report.passed
    assert report.entries == []


# ----------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path, mini_samples, mini_vocab, lexicon):
    config = tiny_config(epochs=1)
    result = train(config, mini_samples[:8], mini_vocab, fresh_providers(lexicon))
    plan = PLANS[config.ablation]
    before = result.model.forward_sample(result.prepared[0], plan)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, result.model, config, len(mini_vocab), rng=result.rng)
    loaded = load_checkpoint(path)
    after = loaded.model.forward_sample(result.prepared[0], plan)
    assert float(before.nll_sum.data) == float(after.nll_sum.data)
    assert float(before.emo_nll.data) == float(after.emo_nll.data)
    for name, p in result.model.named_parameters().items():
        np.testing.assert_array_equal(p.data, loaded.model.named_parameters()[name].data)


def test_checkpoint_version_mismatch(tmp_path, mini_vocab):
    config = tiny_config()
    model = config.build_model(len(mini_vocab))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, model, config, len(mini_vocab))
    import numpy as np_

    # rewrite the metadata with a bumped version
    data = dict(np_.load(path, allow_pickle=False))
    meta = json.loads(str(data["meta"]))
    meta["version"] = 99
    data["meta"] = np_.array(json.dumps(meta))
    np_.savez(path, **data)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncated_file(tmp_path, mini_vocab):
    config = tiny_config()
    model = config.build_model(len(mini_vocab))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, model, config, len(mini_vocab))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 3])
    with pytest.raises(CheckpointError, match="corrupt"):
        load_checkpoint(path)


def test_checkpoint_write_is_atomic(tmp_path, mini_vocab, monkeypatch):
    config = tiny_config()
    model = config.build_model(len(mini_vocab))
    save_checkpoint(tmp_path / "ck", model, config, len(mini_vocab))  # np.savez adds ".npz"
    assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]
    before = (tmp_path / "ck.npz").read_bytes()

    def interrupted(fh, **arrays):
        fh.write(b"PK partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", interrupted)
    for p in model.named_parameters().values():
        p.data = p.data + 1.0
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(tmp_path / "ck.npz", model, config, len(mini_vocab))
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]
    assert (tmp_path / "ck.npz").read_bytes() == before
    loaded = load_checkpoint(tmp_path / "ck.npz")
    fresh = config.build_model(len(mini_vocab))
    for name, p in loaded.model.named_parameters().items():
        np.testing.assert_array_equal(p.data, fresh.named_parameters()[name].data)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint(tmp_path / "absent.npz")


def test_shared_relation_encoder_trains(mini_samples, mini_vocab, lexicon):
    config = tiny_config(epochs=1, share_relation_encoder=True)
    result = train(config, mini_samples[:8], mini_vocab, fresh_providers(lexicon))
    assert result.model.relation_encoder is result.model.context_encoder
    # no relation_encoder group: its tensors dedupe into the context encoder
    assert not any(n.startswith("relation_encoder") for n in result.model.named_parameters())
    assert all(np.isfinite(h.total) for h in result.history)


def test_bias_free_classifier_trains(mini_samples, mini_vocab, lexicon):
    config = tiny_config(epochs=1, classifier_bias=False)
    result = train(config, mini_samples[:8], mini_vocab, fresh_providers(lexicon))
    assert result.model.classifier.bias is None
    assert "classifier.bias" not in result.model.named_parameters()


def test_checkpoint_restores_optimizer_state(tmp_path, mini_samples, mini_vocab, lexicon):
    config = tiny_config(epochs=1)
    result = train(config, mini_samples[:8], mini_vocab, fresh_providers(lexicon))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, result.model, config, len(mini_vocab), optimizer=result.optimizer)
    loaded = load_checkpoint(path)
    assert loaded.optimizer is not None
    assert loaded.optimizer.t == result.optimizer.t
    for name in result.optimizer.params:
        np.testing.assert_array_equal(loaded.optimizer.m[name], result.optimizer.m[name])
        np.testing.assert_array_equal(loaded.optimizer.v[name], result.optimizer.v[name])


def test_adam_moves_toward_minimum():
    from empgen.autodiff import parameter

    x = parameter(np.array([4.0]))
    opt = Adam({"x": x})
    for _ in range(800):
        opt.zero_grad()
        (x * x).sum().backward()
        opt.step(0.05)
    assert abs(float(x.data[0])) < 0.05
