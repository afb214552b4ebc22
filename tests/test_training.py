import gc
import json
import re
import warnings

import numpy as np
import pytest

from empgen.corpus import Vocab
from empgen.knowledge import AnalysisCache, EchoLlmClient, TemplateCommonsenseProvider
from empgen.model import PLANS, Providers
from empgen.selectors import HeuristicCauseDetector, OracleSentimentPredictor
from empgen.training import Adam, CheckpointError, TrainConfig, load_checkpoint, save_checkpoint, train

from .helpers import buffer_of
from .oracles import check_gradients, grad_check, micro_prepared_sample, plan_losses, reference


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
    assert f"error: config {bad}: {field} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"d": "8"}, "d must be an integer, got '8'"),
        ({"d": 8.5}, "d must be an integer, got 8.5"),
        ({"epochs": True}, "epochs must be an integer, got True"),
        ({"learning_rate": "1e-3"}, "learning_rate must be a number, got '1e-3'"),
        ({"grad_clip": [1.0]}, "grad_clip must be a number or None, got [1.0]"),
        ({"ablation": 1}, "ablation must be a string, got 1"),
        ({"d": 10, "heads": 4}, "d must be divisible by heads, got d=10 and heads=4"),
    ],
    ids=["d a string", "d a float", "epochs a bool", "lr a string", "grad_clip a list", "ablation a number", "d over heads"],
)
def test_wrong_typed_config_fields_are_refused_by_name(fields, message, tmp_path, capsys):
    from empgen.cli import main

    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        tiny_config(**fields)
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps(fields), encoding="utf-8")
    out = tmp_path / "run"
    args = ["train", "--data-dir", str(tmp_path / "data"), "--out", str(out), "--config", str(bad)]
    assert main(args) == 1
    assert f"error: config {bad}: {message}" in capsys.readouterr().err
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


def test_nan_loss_aborts_with_batch_id(monkeypatch, mini_samples, mini_vocab, lexicon):
    from empgen.training import TrainingDiverged

    build = TrainConfig.build_model

    def poisoned(self, vocab_size, rng=None):
        model = build(self, vocab_size, rng)
        model.classifier.weight.data[0, 0] = np.nan
        return model

    monkeypatch.setattr(TrainConfig, "build_model", poisoned)
    with pytest.raises(TrainingDiverged, match="step 1"):
        train(tiny_config(epochs=1, dropout=0.0), mini_samples[:16], mini_vocab, fresh_providers(lexicon))


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
    config = TrainConfig(seed=3, d=8, layers=1, heads=2, ffn_mult=2, dropout=0.0, ablation="full")
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
    save_checkpoint(path, result.model, config, mini_vocab)
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
    old_defaults = dict(
        min_freq=1, strict_sum=False, share_relation_encoder=False, classifier_bias=True,
        adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-8, num_emotions=32,
    )
    loaded = load_with(**old_defaults)
    assert loaded.config == config
    for name, p in config.build_model(len(mini_vocab)).named_parameters().items():
        np.testing.assert_array_equal(loaded.model.named_parameters()[name].data, p.data)
    retired = (
        ("strict_sum", True), ("share_relation_encoder", True), ("classifier_bias", False),
        ("adam_beta1", 0.8), ("adam_beta2", 0.99), ("adam_eps", 1e-6), ("num_emotions", 5), ("num_emotions", 400),
    )
    for name, value in retired:
        with pytest.raises(CheckpointError, match=rf"config that is refused: {name} is no longer a setting"):
            load_with(**{**old_defaults, name: value})


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint(tmp_path / "absent.npz")


def test_checkpoint_holds_only_the_parameters_and_meta(tmp_path, mini_vocab):
    config = tiny_config()
    model = config.build_model(len(mini_vocab))
    save_checkpoint(tmp_path / "ck.npz", model, config, mini_vocab)
    with np.load(tmp_path / "ck.npz", allow_pickle=False) as archive:
        names = set(archive.files)
        meta = json.loads(str(archive["meta"]))
    assert names == {"meta"} | {f"param/{name}" for name in model.named_parameters()}
    assert set(meta) == {"version", "config", "vocab_size", "vocab_fingerprint"}


def test_checkpoint_with_optimizer_and_rng_state_loads_them_ignored(tmp_path, mini_vocab):
    """An archive laid out as checkpoints were before they held only the
    model: Adam's moments as arrays, and the step count, epoch and RNG
    state in the metadata."""
    config = tiny_config()
    model = config.build_model(len(mini_vocab))
    params = model.named_parameters()
    arrays = {f"param/{name}": p.data for name, p in params.items()}
    for name, p in params.items():
        arrays[f"adam_m/{name}"] = np.full_like(p.data, 0.5)
        arrays[f"adam_v/{name}"] = np.full_like(p.data, 0.25)
    meta = {
        "version": 1,
        "config": config.to_dict(),
        "vocab_size": len(mini_vocab),
        "vocab_fingerprint": mini_vocab.fingerprint(),
        "epoch": 2,
        "adam_t": 7,
        "rng_state": json.dumps(np.random.default_rng(1).bit_generator.state),
    }
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(tmp_path / "old.npz", **arrays)
    loaded = load_checkpoint(tmp_path / "old.npz", mini_vocab)
    assert loaded.config == config and loaded.vocab_size == len(mini_vocab)
    for name, p in loaded.model.named_parameters().items():
        assert p.data.dtype == np.float64
        assert p.data.tobytes() == params[name].data.tobytes()


def rewritten(path, edit):
    """Rewrite the checkpoint at ``path`` with ``edit`` applied to its
    arrays by name, the metadata parsed."""
    with np.load(path, allow_pickle=False) as archive:
        data = dict(archive)
    data["meta"] = json.loads(str(data["meta"]))
    edit(data)
    if isinstance(data["meta"], dict):
        data["meta"] = np.array(json.dumps(data["meta"]))
    np.savez(path, **data)


def flip_array_byte(path):
    """Flip one byte inside the stored data of a parameter array."""
    with np.load(path, allow_pickle=False) as archive:
        needle = archive["param/classifier.weight"].tobytes()[:64]
    raw = bytearray(path.read_bytes())
    raw[raw.index(needle) + 8] ^= 0x40
    path.write_bytes(bytes(raw))


def set_item(name, index, value):
    return lambda data: data[name].__setitem__(index, value)


DAMAGE = {
    "flipped array byte": (None, "corrupt checkpoint .*CRC"),
    "meta not JSON": (lambda d: d.update(meta=np.array("{not json")), "metadata is not JSON"),
    "meta a list": (lambda d: d.update(meta=np.array("[1, 2]")), "not a JSON object"),
    "meta without config": (lambda d: d["meta"].pop("config"), "no config object"),
    "vocab_size a string": (set_item("meta", "vocab_size", "37"), "vocab_size '37' is not"),
    "fingerprint a number": (set_item("meta", "vocab_fingerprint", 7), "vocab_fingerprint 7 is not"),
    "config d a string": (
        lambda d: d["meta"]["config"].update(d="16"),
        r"ck\.npz holds a config that is refused: d must be an integer, got '16'",
    ),
    "config max_gen_len past the positions": (
        lambda d: d["meta"]["config"].update(max_gen_len=600),
        r"refused: max_gen_len must be at most the model's 512 positions, got 600",
    ),
    "parameter missing": (lambda d: d.pop("param/decoder.out_proj.bias"), "missing array param/decoder.out_proj"),
    "parameter NaN": (lambda d: d["param/fusion.w_q"].fill(np.nan), "fusion.w_q holds NaN or infinite"),
    "parameter inf": (set_item("param/classifier.bias", 0, np.inf), "classifier.bias holds NaN or infinite"),
    "parameter strings": (
        lambda d: d.update({"param/classifier.bias": d["param/classifier.bias"].astype(str)}),
        "classifier.bias holds <U32, not float64",
    ),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_checkpoint_is_refused_by_name(tmp_path, mini_vocab, damage):
    config = tiny_config()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, config.build_model(len(mini_vocab)), config, mini_vocab)
    edit, message = DAMAGE[damage]
    if edit is None:
        flip_array_byte(path)
    else:
        rewritten(path, edit)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path, mini_vocab)


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
    config = Config(seed=3, d=8, layers=1, heads=2, ffn_mult=2, dropout=0.0)
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
    model = TrainConfig(seed=3, d=8, layers=1, heads=2, ffn_mult=2, dropout=0.0).build_model(24)
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
    opt = Adam(params)
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
    config.build_model(len(mini_vocab), rng)  # the draws of the initial parameters
    batches = [order[i : i + 7] for order in (rng.permutation(14), rng.permutation(14)) for i in (0, 7)]
    for record, params, batch in zip(result.history, seen_params, batches):
        oracle = reference.ModelOracle(params, config.heads)
        losses = [plan_losses(oracle, result.prepared[i], plan) for i in batch]
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
    memory = weakref.ref(buffer_of(fwd.memory.values.data))
    feature = weakref.ref(buffer_of(fwd.feature.data))
    fwd = None
    gc.collect()
    assert memory() is None  # only the add of the segment embeddings read it
    assert feature() is not None  # the emotion classifier's backward reads it
    loss.backward()
    gc.collect()
    assert feature() is None
    assert all(p.grad is not None for p in model.named_parameters().values())


def test_tape_lets_go_of_sublayer_results_and_logits_before_backward(
    mini_samples, mini_vocab, lexicon, monkeypatch
):
    # No backward formula reads the result that ``add_norm`` adds to its
    # input or the logits behind ``cross_entropy``: both are freed as soon
    # as the forward pass drops them, before ``backward()`` runs.
    import weakref

    import empgen.decoder
    import empgen.layers
    from empgen.model import prepare_samples

    refs = {"sublayer": [], "logits": []}

    def watching(fn, key, position):
        def wrapper(*args, **kwargs):
            refs[key].append(weakref.ref(buffer_of(args[position].data)))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(empgen.layers, "add_norm", watching(empgen.layers.add_norm, "sublayer", 1))
    monkeypatch.setattr(empgen.decoder, "cross_entropy", watching(empgen.decoder.cross_entropy, "logits", 0))
    plan = PLANS["full"]
    prepared = prepare_samples(mini_samples[:3], mini_vocab, fresh_providers(lexicon), plan)
    model = tiny_config(dropout=0.25).build_model(len(mini_vocab))
    fwd = model.forward_batch(prepared, plan, np.random.default_rng(0))
    loss = fwd.nll_sum.sum() + fwd.emo_nll.sum()
    gc.collect()
    assert len(refs["sublayer"]) > 1 and len(refs["logits"]) == 1
    assert all(r() is None for r in refs["sublayer"] + refs["logits"])
    loss.backward()
    assert all(p.grad is not None for p in model.named_parameters().values())


def test_training_tape_keeps_no_dropout_mask_or_relu_input_and_stays_in_budget(
    mini_samples, mini_vocab, lexicon
):
    from empgen.model import padded_rows, prepare_samples

    from .helpers import tape_of

    plan = PLANS["full"]
    # An FFN width (5 * 16) that no other array on the tape has as its last axis.
    config = tiny_config(layers=2, ffn_mult=5, dropout=0.25)
    prepared = prepare_samples(mini_samples[:4], mini_vocab, fresh_providers(lexicon), plan)
    assert padded_rows(prepared, plan) == 636
    model = config.build_model(len(mini_vocab))
    fwd = model.forward_batch(prepared, plan, np.random.default_rng(0))
    nodes, arrays = tape_of(fwd.nll_sum.sum() * 0.01 + fwd.emo_nll.sum() * 0.25, model.named_parameters())
    masks = [a for a in arrays if a.dtype == np.float64 and np.isin(a, (0.0, 1 / 0.75)).all()]
    assert not masks, "a float64 dropout mask is on the tape"
    hidden = [a for a in arrays if a.ndim and a.shape[-1] == 5 * config.d and (a < 0).any()]
    assert not hidden, "a ReLU pre-activation is on the tape"
    # The cross-entropy's probabilities; no logits or log-probabilities.
    assert len([a for a in arrays if a.ndim and a.shape[-1] == len(mini_vocab)]) <= 1
    # 4.07 MB in 142 nodes, whose closures keep only the arrays a backward
    # formula reads; 4.84 MB when each node also held its own value and its
    # parents' values, and 7.02 MB in 202 nodes with dropout, residual add,
    # LayerNorm, ReLU and the loss's log-softmax and pick recorded apart.
    assert len(nodes) == 142
    assert sum(a.nbytes for a in arrays) < 4.1e6


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


def test_a_cause_past_the_positions_keeps_its_suffix_and_is_answered(mini_vocab, labels, lexicon):
    from empgen.corpus import encode_cause_ids, parse_sample
    from empgen.model import prepare_sample

    # Three turns of 207 tokens, each naming the gold emotion, so each is a
    # cause turn: 623 cause tokens with the separators, where the context
    # keeps its last 256.
    text = "turn {} i felt so " + "alone " * 202
    turns = [{"role": ("speaker", "listener")[i % 2], "text": text.format(i)} for i in range(3)]
    sample = parse_sample({"id": "long-cause", "history": turns, "emotion": "lonely", "response": "oh no"}, labels)
    plan = PLANS["full"]
    prep = prepare_sample(sample, mini_vocab, fresh_providers(lexicon), plan)
    whole = encode_cause_ids(list(sample.history), mini_vocab)
    assert len(whole) == 623 and prep.cause_ids == whole[-512:]
    model = tiny_config().build_model(len(mini_vocab))
    [reply] = model.respond([prep], plan, mini_vocab, max_gen_len=4)
    assert reply.response.ids and np.isfinite(reply.per_token_nll).all()


def test_train_and_evaluate_check_every_length_before_any_work(
    mini_samples, mini_vocab, lexicon, tmp_path, monkeypatch
):
    from dataclasses import replace

    from empgen.evaluation import evaluate
    from empgen.model import EmpathyModel

    long_reply = replace(mini_samples[3], gold_response=" ".join(["thanks"] * 600))
    samples = mini_samples[:3] + [long_reply]  # the long one comes last
    worked = []
    for name in ("forward_batch", "respond"):
        monkeypatch.setattr(EmpathyModel, name, lambda *a, name=name, **k: worked.append(name))
    config = tiny_config(epochs=1, batch_size=2)
    refusal = rf"sample '{long_reply.id}': target of 601 tokens .* 512 positions"
    with pytest.raises(ValueError, match=refusal):
        train(config, samples, mini_vocab, fresh_providers(lexicon), log_path=tmp_path / "log.jsonl")
    with pytest.raises(ValueError, match=refusal):
        evaluate(config.build_model(len(mini_vocab)), config, samples, mini_vocab, fresh_providers(lexicon))
    assert worked == [] and not (tmp_path / "log.jsonl").exists()


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


# ----------------------------------------------------------------------
# the model's size against the machine's memory


@pytest.mark.parametrize(
    "fields", [{}, dict(layers=2, ffn_mult=3), dict(d=8, heads=1, max_context_len=600)]
)
def test_model_bytes_count_every_parameter_and_the_position_table(fields):
    config = tiny_config(**fields)
    model = config.build_model(30)
    params = sum(p.data.size for p in model.named_parameters().values())
    table = model.context_encoder.positions.size
    assert sum(config.model_bytes(30, training=False).values()) == 8 * (params + table)
    assert sum(config.model_bytes(30, training=True).values()) == 32 * params + 8 * table


def test_the_memory_check_refuses_only_past_physical_memory(monkeypatch):
    from empgen import training

    config = tiny_config()
    need = sum(config.model_bytes(10_000, training=True).values())
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need}
    monkeypatch.setattr(training.os, "sysconf", memory.__getitem__)
    config.check_memory(10_000, training=True)  # an exact fit
    memory["SC_PHYS_PAGES"] = need - 1
    refusal = r"needs an estimated 0\.0 GiB to train, .* most is for the vocabulary of 10000 tokens$"
    with pytest.raises(ValueError, match=refusal):
        config.check_memory(10_000, training=True)
    config.check_memory(10_000, training=False)  # a quarter of the bytes per parameter

    def unknown(name):  # as os.sysconf on a system that does not say: nothing is refused
        raise ValueError("unrecognized configuration name")

    monkeypatch.setattr(training.os, "sysconf", unknown)
    config.check_memory(10**12, training=True)


def test_a_checkpoint_whose_model_is_past_physical_memory_is_refused_unbuilt(tmp_path, mini_vocab, monkeypatch):
    from empgen import training

    config = tiny_config()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, config.build_model(len(mini_vocab)), config, mini_vocab)
    with np.load(path, allow_pickle=False) as archive:
        data = dict(archive)
    data["meta"] = np.array(json.dumps({**json.loads(str(data["meta"])), "vocab_size": 10**12}))
    np.savez(path, **data)
    monkeypatch.setattr(training, "EmpathyModel", lambda *a: pytest.fail("the model was built"))
    refusal = rf"^checkpoint {re.escape(str(path))} holds a config that is refused: .* the vocabulary of {10**12} tokens$"
    with pytest.raises(CheckpointError, match=refusal):
        load_checkpoint(path)
