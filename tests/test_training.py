import gc
import json
import warnings

import numpy as np
import pytest

from empgen.corpus import Vocab
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


@pytest.mark.parametrize(
    "field,value",
    [
        ("dropout", 1.0),
        ("dropout", -0.5),
        ("grad_clip", -1.0),
        ("grad_clip", 0.0),
        ("ffn_mult", 0),
        ("max_context_len", 0),
        ("max_analysis_len", 0),
        ("max_gen_len", 0),
        ("num_emotions", 0),
    ],
)
def test_bad_config_values_are_refused_by_name(field, value, tmp_path, capsys):
    from empgen.cli import main

    with pytest.raises(ValueError, match=rf"^{field} must be .*, got {value}$"):
        tiny_config(**{field: value})
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps({field: value}), encoding="utf-8")
    out = tmp_path / "run"
    args = ["train", "--data-dir", str(tmp_path / "data"), "--out", str(out), "--config", str(bad)]
    assert main(args) == 1
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not out.exists()


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

    from .helpers import gradient_footprint

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
    save_checkpoint(path, result.model, config, mini_vocab, rng=result.rng)
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
    save_checkpoint(path, model, config, mini_vocab)
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
    save_checkpoint(path, model, config, mini_vocab)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 3])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)
        gc.collect()
    # The refused file is closed, not left for the garbage collector.
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def reordered(vocab):
    """The same tokens with two ordinary tokens' ids swapped."""
    mapping = dict(vocab.token_to_id)
    a, b = vocab.id_to_token[-2:]
    mapping[a], mapping[b] = mapping[b], mapping[a]
    return Vocab(mapping)


def test_checkpoint_refuses_another_vocabulary(tmp_path, mini_vocab):
    config = tiny_config()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, config.build_model(len(mini_vocab)), config, mini_vocab)
    assert load_checkpoint(path, mini_vocab).vocab_size == len(mini_vocab)
    other = reordered(mini_vocab)
    assert len(other) == len(mini_vocab) and other.fingerprint() != mini_vocab.fingerprint()
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path, other)
    assert mini_vocab.fingerprint() in str(err.value) and other.fingerprint() in str(err.value)
    smaller = Vocab({t: i for i, t in enumerate(mini_vocab.id_to_token[:-1])})
    with pytest.raises(CheckpointError, match="tokens"):
        load_checkpoint(path, smaller)


def test_checkpoint_without_fingerprint_loads_with_a_warning(tmp_path, mini_vocab):
    config = tiny_config()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, config.build_model(len(mini_vocab)), config, mini_vocab)
    data = dict(np.load(path, allow_pickle=False))
    meta = json.loads(str(data["meta"]))
    del meta["vocab_fingerprint"]
    data["meta"] = np.array(json.dumps(meta))
    np.savez(path, **data)
    with pytest.warns(UserWarning, match="fingerprint"):
        loaded = load_checkpoint(path, reordered(mini_vocab))
    assert loaded.vocab_size == len(mini_vocab)


def test_checkpoint_whose_config_holds_min_freq_loads(tmp_path, mini_vocab):
    config = tiny_config()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, config.build_model(len(mini_vocab)), config, mini_vocab)
    with np.load(path, allow_pickle=False) as archive:
        data = dict(archive)
    meta = json.loads(str(data["meta"]))

    def load_with(**fields):
        data["meta"] = np.array(json.dumps({**meta, "config": {**meta["config"], **fields}}))
        np.savez(path, **data)
        return load_checkpoint(path, mini_vocab)

    # As every checkpoint saved before these fields went: each at its default.
    old_defaults = dict(min_freq=1, strict_sum=False, share_relation_encoder=False, classifier_bias=True)
    loaded = load_with(**old_defaults)
    assert loaded.config == config
    for name, p in config.build_model(len(mini_vocab)).named_parameters().items():
        np.testing.assert_array_equal(loaded.model.named_parameters()[name].data, p.data)
    for name, value in (("strict_sum", True), ("share_relation_encoder", True), ("classifier_bias", False)):
        with pytest.raises(ValueError, match=rf"^{name} is no longer a setting"):
            load_with(**{**old_defaults, name: value})


def test_checkpoint_write_is_atomic(tmp_path, mini_vocab, monkeypatch):
    config = tiny_config()
    model = config.build_model(len(mini_vocab))
    save_checkpoint(tmp_path / "ck", model, config, mini_vocab)  # np.savez adds ".npz"
    assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]
    before = (tmp_path / "ck.npz").read_bytes()

    def interrupted(fh, **arrays):
        fh.write(b"PK partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", interrupted)
    for p in model.named_parameters().values():
        p.data = p.data + 1.0
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(tmp_path / "ck.npz", model, config, mini_vocab)
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


def test_checkpoint_restores_optimizer_state(tmp_path, mini_samples, mini_vocab, lexicon):
    config = tiny_config(epochs=1)
    result = train(config, mini_samples[:8], mini_vocab, fresh_providers(lexicon))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, result.model, config, mini_vocab, optimizer=result.optimizer)
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


# ----------------------------------------------------------------------
# batched, padded training


def padded_micro_pair():
    """Two micro samples whose every stream differs in length, so a batch
    of both pads each stream (and the relations within a sample)."""
    from empgen.model import PreparedSample

    longer = PreparedSample(
        sample_id="micro-b",
        context_ids=[5, 9, 4, 11],
        target_ids=[8, 12, 13, 2],
        emotion_index=3,
        cause_ids=[7, 8, 4],
        relation_ids=[[5, 7, 9], [5], [5, 8, 8, 10], [5, 11], [5, 6]],
        analysis_ids=[5, 9],
    )
    return [micro_prepared_sample(), longer]


def test_grad_check_passes_on_a_padded_pair():
    from empgen.model import PLANS
    from empgen.training import TrainConfig as Config

    preps = padded_micro_pair()
    config = Config(seed=3, d=8, layers=1, heads=2, ffn_mult=2, dropout=0.0, num_emotions=5)
    memory, _ = config.build_model(24).encode_batch(preps, PLANS["full"])
    # Padding shows in every memory stream: context, knowledge and analysis.
    hidden = memory.key_mask < 0
    for segment in (0, 1, 2):
        assert hidden[:, memory.segment_ids == segment].any(), segment
    report = grad_check(preps=preps)
    assert report.passed, report.summary()
    assert {"encoder", "fusion", "decoder", "emotion"} <= set(report.group_errors())


def test_padded_batch_equals_each_sample_alone():
    # Knowledge, context, cause, analysis and target all differ in length.
    from empgen.model import PLANS

    preps = padded_micro_pair()
    model = TrainConfig(seed=3, d=8, layers=1, heads=2, ffn_mult=2, dropout=0.0, num_emotions=5).build_model(24)
    for plan in PLANS.values():
        batch = model.forward_batch(preps, plan)
        for i, prep in enumerate(preps):
            alone = model.forward_sample(prep, plan)
            np.testing.assert_allclose(batch.feature.data[i], alone.feature.data[0], rtol=0, atol=1e-13)
            valid = batch.memory.key_mask is None or batch.memory.key_mask[i] == 0
            rows = batch.memory.values.data[i][valid]
            np.testing.assert_allclose(rows, alone.memory.values.data[0], rtol=0, atol=1e-13)
            np.testing.assert_allclose(batch.per_token_nll[i], alone.per_token_nll, rtol=0, atol=1e-13)
            assert abs(batch.nll_sum.data[i] - alone.nll_sum.data) < 1e-12
            assert abs(batch.emo_nll.data[i] - alone.emo_nll.data) < 1e-12


def reference_train(config, prepared, vocab_size):
    """The per-sample training loop: one forward and one backward per
    sample, the history's floats summed in sample order."""
    from empgen.training import LossBreakdown, gradient_norm

    plan = PLANS[config.ablation]
    rng = np.random.default_rng(config.seed)
    model = config.build_model(vocab_size, rng)
    params = model.named_parameters()
    opt = Adam(params, config.adam_beta1, config.adam_beta2, config.adam_eps)
    history, grads, step = [], [], 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(prepared))
        for start in range(0, len(order), config.batch_size):
            batch = [prepared[i] for i in order[start : start + config.batch_size]]
            step += 1
            opt.zero_grad()
            tokens = sum(len(p.target_ids) for p in batch)
            nll_sum = emo = 0.0
            for prep in batch:
                fwd = model.forward_sample(prep, plan)
                (fwd.nll_sum * (1.0 / tokens) + fwd.emo_nll * (1.0 / len(batch))).backward()
                nll_sum += float(fwd.nll_sum.data)
                emo += float(fwd.emo_nll.data)
            norm = gradient_norm(params)
            grads.append({k: p.grad.copy() for k, p in params.items() if p.grad is not None})
            opt.step(config.learning_rate)
            nll, emo = nll_sum / tokens, emo / len(batch)
            history.append(LossBreakdown(step, epoch, nll, emo, nll + emo, tokens, nll_sum, norm))
    return model, history, grads


@pytest.mark.parametrize("ablation", ["vanilla", "self_pres", "analysis", "full"])
def test_batched_steps_match_per_sample_loop_and_oracle(ablation, mini_samples, mini_vocab, lexicon, monkeypatch):
    from empgen.model import prepare_samples
    from empgen.training import micro_batches

    from .oracles import sample_losses_oracle

    config = tiny_config(ablation=ablation, dropout=0.0, batch_size=7, epochs=2)
    plan = PLANS[ablation]
    samples = mini_samples[:14]
    prepared = prepare_samples(samples, mini_vocab, fresh_providers(lexicon), plan)
    assert any(len(run) > 1 for run in micro_batches(prepared[:7], plan))

    # Each step's gradients, and its parameters before the update.
    seen_grads, seen_params = [], []
    original_step = Adam.step

    def recording_step(self, lr):
        seen_grads.append({k: p.grad.copy() for k, p in self.params.items() if p.grad is not None})
        seen_params.append({k: p.data.copy() for k, p in self.params.items()})
        original_step(self, lr)

    monkeypatch.setattr(Adam, "step", recording_step)
    result = train(config, samples, mini_vocab, fresh_providers(lexicon))
    monkeypatch.undo()
    model, history, grads = reference_train(config, result.prepared, len(mini_vocab))
    assert len(result.history) == len(history) == 4

    # Every step's losses against the numpy oracle at that step's parameters;
    # the batches follow the same seeded draws as train().
    rng = np.random.default_rng(config.seed)
    replay = config.build_model(len(mini_vocab), rng)
    batches = [order[i : i + 7] for order in (rng.permutation(14), rng.permutation(14)) for i in (0, 7)]
    for record, params, batch in zip(result.history, seen_params, batches):
        for name, p in replay.named_parameters().items():
            p.data = params[name]
        losses = [sample_losses_oracle(replay, result.prepared[i], plan) for i in batch]
        nll = sum(per_token.sum() for per_token, _ in losses) / record.token_count
        emo = sum(e for _, e in losses) / len(batch)
        assert abs(record.nll - nll) <= 1e-10 * nll and abs(record.emo - emo) <= 1e-10 * emo, record.step

    # Losses and every gradient against the per-sample loop.
    for ours, ref in zip(result.history, history):
        for field in ("nll", "emo", "total", "nll_sum", "grad_norm"):
            a, b = getattr(ours, field), getattr(ref, field)
            assert abs(a - b) <= 1e-10 * abs(b), (ours.step, field, a, b)
    for ours, ref in zip(seen_grads, grads):
        assert ours.keys() == ref.keys()
        for name in ref:
            scale = np.abs(ref[name]).max()
            np.testing.assert_allclose(ours[name], ref[name], rtol=1e-10, atol=1e-10 * scale, err_msg=name)


def test_micro_batches_keep_order_and_budget(mini_samples, mini_vocab, lexicon, monkeypatch):
    import empgen.training
    from empgen.model import padded_rows, prepare_samples
    from empgen.training import micro_batches

    plan = PLANS["full"]
    prepared = prepare_samples(mini_samples[:16], mini_vocab, fresh_providers(lexicon), plan)
    runs = micro_batches(prepared, plan)
    assert [p for run in runs for p in run] == prepared
    assert all(padded_rows(run, plan) <= empgen.training.MICRO_BATCH_ROWS for run in runs)
    monkeypatch.setattr(empgen.training, "MICRO_BATCH_ROWS", 1)
    assert micro_batches(prepared, plan) == [[p] for p in prepared]


def test_train_groups_each_batch_by_length(mini_samples, mini_vocab, lexicon, monkeypatch):
    import empgen.training
    from empgen.model import padded_rows
    from empgen.training import micro_batches

    runs = []

    def recording(batch, plan):
        out = micro_batches(batch, plan)
        runs.extend(out)
        return out

    monkeypatch.setattr(empgen.training, "micro_batches", recording)
    config = tiny_config(epochs=1, batch_size=16)
    result = train(config, mini_samples[:16], mini_vocab, fresh_providers(lexicon))
    monkeypatch.undo()
    assert len(result.history) == 1 and len(runs) > 1

    plan = PLANS[config.ablation]
    grouped = [p.sample_id for run in runs for p in run]
    assert sorted(grouped) == sorted(p.sample_id for p in result.prepared)
    rows = {p.sample_id: padded_rows([p], plan) for p in result.prepared}
    assert [rows[i] for i in grouped] == sorted(rows[i] for i in grouped)

    # The seeded shuffle that train() draws after building its model.
    rng = np.random.default_rng(config.seed)
    config.build_model(len(mini_vocab), rng)
    shuffled = [result.prepared[i] for i in rng.permutation(16)]
    assert grouped == [p.sample_id for p in sorted(shuffled, key=lambda p: rows[p.sample_id])]
    assert len({rows[i] for i in grouped}) < len(grouped)  # some ties were kept in order
    consecutive = sum(padded_rows(run, plan) for run in micro_batches(shuffled, plan))
    assert sum(padded_rows(run, plan) for run in runs) <= consecutive


def test_models_share_one_read_only_position_table(mini_vocab):
    a = tiny_config().build_model(len(mini_vocab))
    b = tiny_config(seed=9).build_model(len(mini_vocab))
    tables = [m.context_encoder.positions for m in (a, b)] + [a.relation_encoder.positions, b.decoder.positions]
    assert all(t is tables[0] for t in tables)
    assert not tables[0].flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        tables[0][0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        tables[0][3:5] += 1.0


def test_backward_releases_the_tape_on_a_real_step(mini_samples, mini_vocab, lexicon):
    import gc
    import weakref

    from empgen.model import prepare_samples

    plan = PLANS["full"]
    config = tiny_config(dropout=0.0)
    prepared = prepare_samples(mini_samples[:3], mini_vocab, fresh_providers(lexicon), plan)
    model = config.build_model(len(mini_vocab))
    fwd = model.forward_batch(prepared, plan)
    loss = fwd.nll_sum.sum() + fwd.emo_nll.sum()
    memory = weakref.ref(fwd.memory.values)
    fwd = None
    gc.collect()
    assert memory() is not None  # the tape holds it until backward
    loss.backward()
    gc.collect()
    assert memory() is None
    assert all(p.grad is not None for p in model.named_parameters().values())


# ----------------------------------------------------------------------
# length guard


def test_overlong_cause_names_sample_stream_and_limit(mini_samples, mini_vocab, lexicon):
    from empgen.model import prepare_samples

    plan = PLANS["full"]
    model = tiny_config().build_model(len(mini_vocab))
    prepared = prepare_samples(mini_samples[:2], mini_vocab, fresh_providers(lexicon), plan)
    prepared[1].cause_ids = [7] * 720
    with pytest.raises(ValueError, match=r"sample '.+': cause of 720 tokens .* 512 positions") as err:
        model.forward_batch(prepared, plan)
    assert prepared[1].sample_id in str(err.value)
    with pytest.raises(ValueError, match="cause of 720 tokens"):
        model.forward_sample(prepared[1], plan)


def test_overlong_target_fails_the_step_by_sample_id(mini_samples, mini_vocab, lexicon):
    from dataclasses import replace

    long_reply = replace(mini_samples[3], gold_response=" ".join(["thanks"] * 600))
    samples = mini_samples[:3] + [long_reply]
    with pytest.raises(ValueError, match=rf"sample '{long_reply.id}': target of 601 tokens .* 512 positions"):
        train(tiny_config(epochs=1), samples, mini_vocab, fresh_providers(lexicon))


def test_cause_without_word_tokens_fails_before_the_first_step(mini_samples, mini_vocab, lexicon):
    from dataclasses import replace

    from empgen.corpus import Utterance

    mute = replace(mini_samples[2], id="mute", history=(Utterance("speaker", "¡¿…!", 0),))
    with pytest.raises(ValueError, match=r"sample 'mute': cause holds no word token"):
        train(tiny_config(epochs=1), [*mini_samples[:2], mute], mini_vocab, fresh_providers(lexicon))


# ----------------------------------------------------------------------
# step telemetry


def test_step_log_records_grad_norm_and_wall_time(tmp_path, mini_samples, mini_vocab, lexicon):
    log, timing = tmp_path / "log.jsonl", tmp_path / "timing.jsonl"
    result = train(
        tiny_config(epochs=1), mini_samples[:16], mini_vocab, fresh_providers(lexicon),
        log_path=log, timing_path=timing,
    )
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    times = [json.loads(l) for l in timing.read_text().splitlines()]
    assert [l["grad_norm"] for l in lines] == [h.grad_norm for h in result.history]
    assert all(l["grad_norm"] > 0 for l in lines)
    assert [t["step"] for t in times] == [l["step"] for l in lines]
    assert all(t["wall_ms"] > 0 for t in times)
    assert "wall_ms" not in lines[0]
    # Padding telemetry: the real and padded encoder rows of the step's
    # micro-batches, and target tokens over the step's wall time.
    from empgen.model import padded_rows

    plan = PLANS["full"]
    assert sum(t["encoder_rows"] for t in times) == padded_rows(result.prepared, plan, padded=False)
    assert all(0 < t["encoder_rows"] < t["padded_encoder_rows"] for t in times)
    for t, record in zip(times, result.history):
        assert t["tokens_per_s"] == pytest.approx(record.token_count / (t["wall_ms"] / 1e3), rel=1e-3)
    for field in ("encoder_rows", "padded_encoder_rows", "tokens_per_s"):
        assert field not in lines[0]


def test_grad_norm_is_the_norm_before_clipping(mini_samples, mini_vocab, lexicon, monkeypatch):
    from empgen.training import gradient_norm

    clipped_norms = []
    original_step = Adam.step

    def recording_step(self, lr):
        clipped_norms.append(gradient_norm(self.params))
        original_step(self, lr)

    clip = 1e-3
    monkeypatch.setattr(Adam, "step", recording_step)
    clipped = train(tiny_config(epochs=1, grad_clip=clip), mini_samples[:8], mini_vocab, fresh_providers(lexicon))
    monkeypatch.undo()
    free = train(tiny_config(epochs=1), mini_samples[:8], mini_vocab, fresh_providers(lexicon))
    # Same seed, same first batch: the same gradient before clipping.
    assert clipped.history[0].grad_norm == free.history[0].grad_norm
    assert clipped.history[0].grad_norm > 100 * clip
    assert abs(clipped_norms[0] - clip) <= 1e-12
