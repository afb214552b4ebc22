import json

import numpy as np
import pytest

from empgen.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """make-fixtures + prepare-data once for the whole module."""
    root = tmp_path_factory.mktemp("cli")
    fixtures_dir = root / "fixtures"
    data_dir = root / "data"
    assert main(["make-fixtures", "--out", str(fixtures_dir), "--seed", "7", "--size", "64"]) == 0
    assert (
        main(
            [
                "prepare-data",
                "--input", str(fixtures_dir / "corpus.jsonl"),
                "--out", str(data_dir),
                "--seed", "0",
            ]
        )
        == 0
    )
    return root


def fast_config(tmp_path, **overrides):
    config = dict(
        seed=3, d=16, layers=1, heads=2, ffn_mult=2, dropout=0.0,
        learning_rate=1e-3, epochs=1, batch_size=8, ablation="full",
    )
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_prepare_data_outputs(workspace):
    data = workspace / "data"
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "vocab.json", "run_manifest.json"):
        assert (data / name).exists()
    n_train = len((data / "train.jsonl").read_text().splitlines())
    n_val = len((data / "val.jsonl").read_text().splitlines())
    n_test = len((data / "test.jsonl").read_text().splitlines())
    assert (n_train, n_val, n_test) == (52, 6, 6)


def test_prepare_data_rerun_identical(workspace, tmp_path):
    out2 = tmp_path / "data2"
    assert (
        main(
            [
                "prepare-data",
                "--input", str(workspace / "fixtures" / "corpus.jsonl"),
                "--out", str(out2),
                "--seed", "0",
            ]
        )
        == 0
    )
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "vocab.json"):
        assert (out2 / name).read_bytes() == (workspace / "data" / name).read_bytes()


def test_prepare_data_missing_input(tmp_path, capsys):
    code = main(["prepare-data", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_flags_are_checked_like_the_config_file(workspace, tmp_path, capsys):
    run = tmp_path / "run"
    args = ["train", "--data-dir", str(workspace / "data"), "--out", str(run), "--config", str(fast_config(tmp_path))]
    assert main([*args, "--epochs", "0"]) == 1
    assert "error: epochs must be positive, got 0" in capsys.readouterr().err
    assert not run.exists()


def test_config_file_setting_min_freq_is_refused(workspace, tmp_path, capsys):
    run = tmp_path / "run"
    refusals = [
        ({"min_freq": 2}, "prepare-data --min-freq"),
        ({"strict_sum": True}, "strict_sum is no longer a setting"),
        ({"share_relation_encoder": True}, "share_relation_encoder is no longer a setting"),
        ({"classifier_bias": False}, "classifier_bias is no longer a setting"),
    ]
    for overrides, message in refusals:
        config = fast_config(tmp_path, **overrides)
        assert main(["train", "--data-dir", str(workspace / "data"), "--out", str(run), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert next(iter(overrides)) in err and message in err
        assert not run.exists()


def test_debug_flag_prints_the_traceback(tmp_path, capsys):
    args = ["prepare-data", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert main(["--debug", *args]) == 1
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "nope.jsonl" in err.splitlines()[-1]


def test_build_knowledge_refuses_vanilla(workspace, capsys):
    code = main(
        [
            "build-knowledge",
            "--data-dir", str(workspace / "data"),
            "--out", str(workspace / "kn_vanilla"),
            "--ablation", "vanilla",
        ]
    )
    assert code == 2
    assert "nothing to build" in capsys.readouterr().err


def test_build_knowledge_idempotent_and_resumable(workspace, capsys):
    out = workspace / "knowledge"
    args = [
        "build-knowledge",
        "--data-dir", str(workspace / "data"),
        "--out", str(out),
        "--ablation", "full",
    ]
    assert main(args) == 0
    first = (out / "analysis_cache.jsonl").read_bytes()
    capsys.readouterr()
    # second run: everything cached, zero llm calls
    assert main(args) == 0
    message = capsys.readouterr().out
    assert "'llm': 0" in message
    assert (out / "analysis_cache.jsonl").read_bytes() == first
    assert (out / "commonsense_fixture.jsonl").exists()


def test_train_evaluate_generate_chat(workspace, tmp_path, capsys):
    data = str(workspace / "data")
    run = tmp_path / "run"
    config = fast_config(tmp_path)
    assert main(["train", "--data-dir", data, "--out", str(run), "--config", str(config)]) == 0
    assert (run / "checkpoint.npz").exists()
    assert (run / "train_log.jsonl").exists()
    assert (run / "run_manifest.json").exists()
    capsys.readouterr()

    eval_out = tmp_path / "eval"
    assert (
        main(
            [
                "evaluate",
                "--checkpoint", str(run / "checkpoint.npz"),
                "--data-dir", data,
                "--split", "test",
                "--out", str(eval_out),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["Model", "PPL", "B-1", "B-2", "B-3", "B-4", "R-1", "R-2", "Dist-1", "Dist-2", "Acc"]
    report = json.loads((eval_out / "report.json").read_text())
    assert report["sample_count"] == 6

    # beam decoding path end to end
    assert (
        main(
            [
                "evaluate",
                "--checkpoint", str(run / "checkpoint.npz"),
                "--data-dir", data,
                "--out", str(tmp_path / "eval_beam"),
                "--strategy", "beam",
                "--beam-size", "2",
            ]
        )
        == 0
    )
    capsys.readouterr()

    # metric filter prints only the requested columns
    assert (
        main(
            [
                "evaluate",
                "--checkpoint", str(run / "checkpoint.npz"),
                "--data-dir", data,
                "--out", str(tmp_path / "eval_filtered"),
                "--metrics", "PPL,B-2,Acc",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert [l.split()[0] for l in lines] == ["PPL", "B-2", "Acc"]

    # ablation mismatch refused
    code = main(
        [
            "evaluate",
            "--checkpoint", str(run / "checkpoint.npz"),
            "--data-dir", data,
            "--out", str(tmp_path / "eval2"),
            "--ablation", "vanilla",
        ]
    )
    assert code == 2
    capsys.readouterr()

    dialogue = tmp_path / "dialogue.json"
    dialogue.write_text(
        json.dumps({"history": [{"role": "speaker", "text": "i felt so thankful about the trip"}]}),
        encoding="utf-8",
    )
    assert (
        main(
            [
                "generate",
                "--checkpoint", str(run / "checkpoint.npz"),
                "--data-dir", data,
                "--dialogue", str(dialogue),
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].startswith("predicted emotion: ")

    # chat without --interactive behaves like generate
    assert (
        main(
            [
                "chat",
                "--checkpoint", str(run / "checkpoint.npz"),
                "--data-dir", data,
                "--dialogue", str(dialogue),
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].startswith("predicted emotion: ")


def test_train_reproducible_checkpoints(workspace, tmp_path):
    data = str(workspace / "data")
    config = fast_config(tmp_path)
    run1, run2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--data-dir", data, "--out", str(run1), "--config", str(config)]) == 0
    assert main(["train", "--data-dir", data, "--out", str(run2), "--config", str(config)]) == 0
    assert (run1 / "train_log.jsonl").read_bytes() == (run2 / "train_log.jsonl").read_bytes()


def test_manifest_contents(workspace):
    manifest = json.loads((workspace / "data" / "run_manifest.json").read_text())
    assert manifest["command"] == "prepare-data"
    assert manifest["seed"] == 0
    assert len(manifest["config_hash"]) == 64
    assert manifest["code_version"]


def test_fixture_manifest_records_checksums(workspace):
    from empgen.util import sha256_hex

    manifest = json.loads((workspace / "fixtures" / "run_manifest.json").read_text())
    checksums = manifest["config"]["checksums"]
    assert "corpus.jsonl" in checksums
    corpus_bytes = (workspace / "fixtures" / "corpus.jsonl").read_bytes()
    assert checksums["corpus.jsonl"] == sha256_hex(corpus_bytes)


def test_generate_encodes_each_stream_once(workspace, tmp_path, capsys, monkeypatch):
    from empgen.cli import _load_split, build_parser, build_providers
    from empgen.corpus import LabelSet, Vocab, parse_sample
    from empgen.encoder import EncoderStack
    from empgen.model import PLANS, prepare_sample
    from empgen.training import load_checkpoint

    data = workspace / "data"
    run = tmp_path / "run"
    assert main(["train", "--data-dir", str(data), "--out", str(run), "--config", str(fast_config(tmp_path))]) == 0
    record = {"history": [{"role": "speaker", "text": "i felt so thankful about the trip"}]}
    dialogue = tmp_path / "dialogue.json"
    dialogue.write_text(json.dumps(record), encoding="utf-8")
    capsys.readouterr()

    calls = []
    encode_padded = EncoderStack.encode_padded

    def counted_encode_padded(stack, ids, lengths, rng=None):
        # A one-row call is one stream's sequence, a batch of one.
        calls.append(ids[0].tolist() if len(ids) == 1 else len(ids))
        return encode_padded(stack, ids, lengths, rng)

    monkeypatch.setattr(EncoderStack, "encode_padded", counted_encode_padded)
    args = ["generate", "--checkpoint", str(run / "checkpoint.npz"), "--data-dir", str(data)]
    args += ["--dialogue", str(dialogue)]
    assert main(args) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    monkeypatch.undo()

    # The same reply and emotion as two separate calls, which encode twice.
    labels = LabelSet.default()
    loaded = load_checkpoint(run / "checkpoint.npz")
    vocab = Vocab.load(data / "vocab.json")
    sample = parse_sample({**record, "id": "adhoc", "emotion": labels.names[0], "response": "placeholder"}, labels)
    train_samples = _load_split(data, "train", labels)
    providers = build_providers(build_parser().parse_args(args), loaded.config, train_samples, labels)
    plan = PLANS[loaded.config.ablation]
    prep = prepare_sample(sample, vocab, providers, plan)
    reply = loaded.model.generate_response(prep, plan, vocab)
    emotion = labels.by_index(int(np.argmax(loaded.model.classify(prep, plan)))).name
    assert printed == [reply.text, f"predicted emotion: {emotion}"]
    # context, cause and analysis once each, the five relations in one padded call
    assert calls == [prep.context_ids, prep.cause_ids, 5, prep.analysis_ids]


def test_commands_refuse_a_reordered_vocabulary(workspace, tmp_path, capsys):
    import shutil

    from empgen.corpus import Vocab
    from empgen.training import TrainConfig, save_checkpoint

    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    vocab = Vocab.load(data / "vocab.json")
    config = TrainConfig(seed=3, d=16, layers=1, heads=2, ffn_mult=2)
    checkpoint = tmp_path / "checkpoint.npz"
    save_checkpoint(checkpoint, config.build_model(len(vocab)), config, vocab)
    mapping = dict(vocab.token_to_id)
    a, b = vocab.id_to_token[-2:]
    mapping[a], mapping[b] = mapping[b], mapping[a]
    other = Vocab(mapping)
    other.save(data / "vocab.json")
    dialogue = tmp_path / "dialogue.json"
    dialogue.write_text(json.dumps({"history": [{"role": "speaker", "text": "i am here"}]}), encoding="utf-8")
    common = ["--checkpoint", str(checkpoint), "--data-dir", str(data)]
    for args in (
        ["evaluate", *common, "--out", str(tmp_path / "eval")],
        ["generate", *common, "--dialogue", str(dialogue)],
        ["chat", *common, "--dialogue", str(dialogue)],
    ):
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert vocab.fingerprint() in err and other.fingerprint() in err, args[0]
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize(
    "command,flag",
    [("generate", "--seed"), ("generate", "--ablation"), ("chat", "--epochs"), ("evaluate", "--config")],
)
def test_inference_commands_refuse_training_flags(workspace, tmp_path, capsys, command, flag):
    # The checkpoint's config decides; a flag that would be ignored is refused.
    value = {"--seed": "3", "--ablation": "full", "--epochs": "2", "--config": str(tmp_path / "c.json")}[flag]
    args = [command, "--checkpoint", str(tmp_path / "checkpoint.npz"), "--data-dir", str(workspace / "data")]
    args += {"generate": ["--dialogue", "d.json"], "chat": [], "evaluate": ["--out", str(tmp_path / "e")]}[command]
    with pytest.raises(SystemExit) as exit_info:
        main([*args, flag, value])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_interactive_chat_decodes_like_generate(workspace, tmp_path, capsys, monkeypatch):
    from empgen.corpus import Vocab
    from empgen.training import TrainConfig, save_checkpoint

    data = workspace / "data"
    vocab = Vocab.load(data / "vocab.json")
    # An untrained model whose beam-2 reply differs from its greedy one.
    config = TrainConfig(seed=4, d=16, layers=1, heads=2, ffn_mult=2)
    checkpoint = tmp_path / "checkpoint.npz"
    save_checkpoint(checkpoint, config.build_model(len(vocab)), config, vocab)
    line = "i felt so thankful about the trip"
    dialogue = tmp_path / "dialogue.json"
    dialogue.write_text(json.dumps({"history": [{"role": "speaker", "text": line}]}), encoding="utf-8")
    common = ["--checkpoint", str(checkpoint), "--data-dir", str(data)]

    def generated(*flags):
        capsys.readouterr()
        assert main(["generate", *common, "--dialogue", str(dialogue), *flags]) == 0
        return capsys.readouterr().out.splitlines()[0]

    lines = iter([line])

    def one_line_then_eof(prompt):
        try:
            return next(lines)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", one_line_then_eof)
    capsys.readouterr()
    assert main(["chat", *common, "--interactive", "--strategy", "beam", "--beam-size", "2"]) == 0
    replies = [l for l in capsys.readouterr().out.splitlines() if l.startswith("bot> ")]
    beam = generated("--strategy", "beam", "--beam-size", "2")
    assert replies == [f"bot> {beam}"]
    assert beam != generated("--strategy", "greedy")  # the flags reached the decoder


def test_chat_without_dialogue_is_refused_before_loading(workspace, tmp_path, capsys):
    # The checkpoint does not exist: loading it first would report that instead.
    args = ["chat", "--checkpoint", str(tmp_path / "missing.npz"), "--data-dir", str(workspace / "data")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "--dialogue" in err and "not found" not in err


def test_evaluate_refuses_unknown_metrics_before_running(workspace, tmp_path, capsys):
    from empgen.corpus import Vocab
    from empgen.training import TrainConfig, save_checkpoint

    data = workspace / "data"
    vocab = Vocab.load(data / "vocab.json")
    config = TrainConfig(seed=3, d=16, layers=1, heads=2, ffn_mult=2)
    checkpoint = tmp_path / "checkpoint.npz"
    save_checkpoint(checkpoint, config.build_model(len(vocab)), config, vocab)
    out = tmp_path / "eval"
    args = ["evaluate", "--checkpoint", str(checkpoint), "--data-dir", str(data), "--out", str(out)]
    assert main([*args, "--metrics", "PPL,B-5"]) == 1
    assert "'B-5'" in capsys.readouterr().err
    assert not (out / "report.json").exists() and not (out / "run_manifest.json").exists()
