import argparse
import errno
import io
import json
import os
import platform

import numpy as np
import pytest

from empgen import cli, util
from empgen.cli import build_parser, main


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
    # A flag's refusal names the flag, before the output directory is made.
    assert main([*args, "--epochs", "0"]) == 1
    assert "error: --epochs: epochs must be positive, got 0" in capsys.readouterr().err
    assert not run.exists()
    assert main([*args, "--seed", "-1"]) == 1
    assert "error: --seed: seed must be non-negative, got -1" in capsys.readouterr().err
    assert not run.exists()
    # The file's own values are checked first, by its path, even one a flag sets.
    config = fast_config(tmp_path, epochs=0)
    assert main([*args, "--epochs", "1"]) == 1
    assert f"error: config {config}: epochs must be positive, got 0" in capsys.readouterr().err
    assert not run.exists()


def test_config_file_setting_min_freq_is_refused(workspace, tmp_path, capsys):
    run = tmp_path / "run"
    refusals = [
        ({"min_freq": 2}, "prepare-data --min-freq"),
        ({"strict_sum": True}, "strict_sum is no longer a setting"),
        ({"share_relation_encoder": True}, "share_relation_encoder is no longer a setting"),
        ({"classifier_bias": False}, "classifier_bias is no longer a setting"),
        ({"adam_beta1": 0.8}, "adam_beta1 is no longer a setting"),
        ({"adam_beta2": 0.99}, "adam_beta2 is no longer a setting"),
        ({"adam_eps": 1e-6}, "adam_eps is no longer a setting"),
    ]
    for overrides, message in refusals:
        config = fast_config(tmp_path, **overrides)
        assert main(["train", "--data-dir", str(workspace / "data"), "--out", str(run), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert next(iter(overrides)) in err and message in err
        assert not run.exists()


def test_config_file_generation_cap_past_the_positions_is_refused(workspace, tmp_path, capsys):
    # A reply longer than the position table would crash the decoder.
    run = tmp_path / "run"
    args = ["train", "--data-dir", str(workspace / "data"), "--out", str(run), "--config"]
    assert main([*args, str(fast_config(tmp_path, max_gen_len=513))]) == 1
    assert "max_gen_len must be at most the model's 512 positions, got 513" in capsys.readouterr().err
    assert not run.exists()
    assert main([*args, str(fast_config(tmp_path, max_gen_len=600, max_context_len=600))]) == 0


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_a_model_past_physical_memory_is_refused_before_any_work(workspace, tmp_path, capsys, monkeypatch, command):
    from empgen import training

    monkeypatch.setattr(training, "prepare_samples", lambda *a: pytest.fail("the samples were prepared"))
    monkeypatch.setattr(training, "EmpathyModel", lambda *a: pytest.fail("the model was built"))
    run = tmp_path / "run"
    config = fast_config(tmp_path, d=2**20, heads=1)  # about 1e15 bytes to train
    assert main([command, "--data-dir", str(workspace / "data"), "--out", str(run), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "GiB to train" in err and err.rstrip().endswith("most is for d=1048576, layers=1 and ffn_mult=2")
    assert not run.exists()


@pytest.mark.parametrize("command", ["train", "ablate", "build-knowledge"])
def test_config_file_emotion_count_other_than_the_labels_is_refused(workspace, tmp_path, capsys, command):
    run = tmp_path / "run"
    for count in (5, 400):
        config = fast_config(tmp_path, num_emotions=count)
        assert main([command, "--data-dir", str(workspace / "data"), "--out", str(run), "--config", str(config)]) == 1
        assert f"config {config}: num_emotions must be the 32 emotion labels, got {count}" in capsys.readouterr().err
        assert not run.exists()


@pytest.mark.parametrize("command", ["evaluate", "generate"])
def test_checkpoint_emotion_count_other_than_the_labels_is_refused(workspace, tmp_path, capsys, monkeypatch, command):
    from empgen.corpus import Vocab
    from empgen.training import TrainConfig, save_checkpoint

    data = workspace / "data"
    vocab = Vocab.load(data / "vocab.json")
    dialogue = tmp_path / "dialogue.json"
    dialogue.write_text(json.dumps(THANKFUL), encoding="utf-8")
    out = tmp_path / "eval"
    extra = {"evaluate": ["--out", str(out)], "generate": ["--dialogue", str(dialogue)]}[command]
    monkeypatch.setattr(cli, "build_providers", lambda *_: pytest.fail("the providers were built"))
    for count in (5, 400):
        config = TrainConfig(seed=3, d=16, layers=1, heads=2, ffn_mult=2, num_emotions=count)
        checkpoint = tmp_path / "checkpoint.npz"
        save_checkpoint(checkpoint, config.build_model(len(vocab)), config, vocab)
        assert main([command, "--checkpoint", str(checkpoint), "--data-dir", str(data), *extra]) == 1
        err = capsys.readouterr().err
        assert f"checkpoint {checkpoint}: num_emotions must be the 32 emotion labels, got {count}" in err
        assert not out.exists()


def test_debug_flag_prints_the_traceback(tmp_path, capsys):
    args = ["prepare-data", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert main(["--debug", *args]) == 1
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "nope.jsonl" in err.splitlines()[-1]


# Each command's options in parser order: the option strings, default,
# type, choices and whether it is required.
ABLATIONS = ["vanilla", "self_pres", "analysis", "full"]
SPLIT = [("--split", "test", None, ["train", "val", "test"], False)]
SEARCH = [("--strategy", "greedy", None, ["greedy", "beam"], False), ("--beam-size", 3, int, None, False)]
CONFIG = [("--config", None, None, None, False), ("--seed", None, int, None, False)]
ABLATION = [("--ablation", None, None, ABLATIONS, False)]
EPOCHS = [("--epochs", None, int, None, False)]
PROVIDERS = [
    ("--sentiment-backend", "lexicon", None, ["lexicon", "oracle", "fixture"], False),
    ("--cause-backend", "heuristic", None, ["heuristic", "fixture"], False),
    ("--commonsense-backend", "template", None, ["template", "fixture"], False),
    ("--llm-backend", "echo", None, ["echo", "fixture", "http"], False),
    *[(f"--{name}", None, None, None, False) for name in (
        "sentiment-fixture", "cause-fixture", "commonsense-fixture", "llm-fixture", "llm-url", "llm-model",
        "knowledge-dir",
    )],
]
DATA_OUT = [("--data-dir", None, None, None, True), ("--out", None, None, None, True)]
CHECKPOINT = [("--checkpoint", None, None, None, True), ("--data-dir", None, None, None, True)]
FLAG_SURFACE = {
    None: [("--debug", False, None, None, False)],
    "make-fixtures": [
        ("--out", None, None, None, True), ("--seed", 7, int, None, False), ("--size", 200, int, None, False)
    ],
    "prepare-data": [
        ("--input", None, None, None, True),
        ("--out", None, None, None, True),
        ("--seed", 0, int, None, False),
        ("--ratios", "0.8,0.1,0.1", None, None, False),
        ("--min-freq", 1, int, None, False),
    ],
    "build-knowledge": [
        *DATA_OUT, ("--continue-on-error", False, None, None, False), *CONFIG, *ABLATION, *PROVIDERS
    ],
    "train": [*DATA_OUT, *CONFIG, *ABLATION, *EPOCHS, *PROVIDERS],
    "evaluate": [
        *CHECKPOINT,
        *SPLIT,
        ("--out", None, None, None, True),
        *SEARCH,
        ("--metrics", None, None, None, False),
        *ABLATION,
        *PROVIDERS,
    ],
    "generate": [*CHECKPOINT, ("--dialogue", None, None, None, True), *SEARCH, *PROVIDERS],
    "ablate": [*DATA_OUT, *SPLIT, *CONFIG, *EPOCHS, *PROVIDERS],
    "chat": [*CHECKPOINT, *SEARCH, *PROVIDERS],
}


def test_every_command_keeps_its_flags():
    def options(parser):
        return [
            (" ".join(a.option_strings), a.default, a.type, a.choices and list(a.choices), a.required)
            for a in parser._actions
            if a.option_strings and a.dest != "help"
        ]

    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert options(parser) == FLAG_SURFACE[None]
    assert list(commands.choices) == [name for name in FLAG_SURFACE if name]
    for name, command in commands.choices.items():
        assert options(command) == FLAG_SURFACE[name], name


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


def test_train_reproducible_checkpoints(workspace, tmp_path):
    data = str(workspace / "data")
    config = fast_config(tmp_path)
    run1, run2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--data-dir", data, "--out", str(run1), "--config", str(config)]) == 0
    assert main(["train", "--data-dir", data, "--out", str(run2), "--config", str(config)]) == 0
    assert (run1 / "train_log.jsonl").read_bytes() == (run2 / "train_log.jsonl").read_bytes()


def test_manifest_contents(workspace):
    import empgen

    manifest = json.loads((workspace / "data" / "run_manifest.json").read_text())
    assert manifest["command"] == "prepare-data"
    assert manifest["seed"] == 0
    assert len(manifest["config_hash"]) == 64
    assert manifest["code_version"] == empgen.__version__
    # The build that made the run's round-off.
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}


def test_numpy_build_says_unknown_where_numpy_does_not_say(monkeypatch):
    from empgen.cli import numpy_build

    def old_show_config():  # numpy before 1.26 takes no mode
        return None

    monkeypatch.setattr(np, "show_config", old_show_config)
    assert numpy_build()["blas"] == {"name": "unknown", "version": "unknown"}


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
    train_samples = _load_split(data, "train")
    providers = build_providers(build_parser().parse_args(args), loaded.config, train_samples)
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
        ["chat", *common],  # loads the checkpoint before it reads a line
    ):
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert vocab.fingerprint() in err and other.fingerprint() in err, args[0]
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize(
    "command,flag",
    [
        ("generate", "--seed"),
        ("generate", "--ablation"),
        ("chat", "--epochs"),
        ("evaluate", "--config"),
        ("ablate", "--ablation"),
        ("build-knowledge", "--epochs"),
    ],
)
def test_inference_commands_refuse_training_flags(workspace, tmp_path, capsys, command, flag):
    # A flag the command would ignore is refused: the checkpoint's config
    # decides for evaluate, generate and chat, ablate runs each of the four
    # ablations, and build-knowledge trains nothing.
    value = {"--seed": "3", "--ablation": "full", "--epochs": "2", "--config": str(tmp_path / "c.json")}[flag]
    checkpoint = ["--checkpoint", str(tmp_path / "checkpoint.npz")]
    out = ["--out", str(tmp_path / "e")]
    args = [command, "--data-dir", str(workspace / "data")]
    args += {
        "generate": [*checkpoint, "--dialogue", "d.json"],
        "chat": checkpoint,
        "evaluate": [*checkpoint, *out],
        "ablate": out,
        "build-knowledge": out,
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        main([*args, flag, value])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("provider", ["sentiment", "cause", "commonsense", "llm"])
def test_fixture_backend_without_a_file_is_refused_by_flag(workspace, tmp_path, capsys, provider):
    out = tmp_path / "out"
    common = ["--data-dir", str(workspace / "data"), "--out", str(out), f"--{provider}-backend", "fixture"]
    assert main(["train", *common, "--config", str(fast_config(tmp_path))]) == 1
    assert f"--{provider}-fixture" in capsys.readouterr().err
    assert not out.exists()
    # build-knowledge looks for the commonsense and llm files in its own
    # output dir, which it has not made yet.
    assert main(["build-knowledge", *common]) == 1
    assert not out.exists()


def test_fixture_backends_train_like_the_backends_that_wrote_them(workspace, tmp_path):
    # make-fixtures writes the gold emotion, the heuristic's cause turns, and
    # the template and echo backends' outputs, so reading them back trains
    # the same model.
    fixtures_dir = workspace / "fixtures"
    common = ["train", "--data-dir", str(workspace / "data"), "--config", str(fast_config(tmp_path))]
    built = [
        "--sentiment-backend", "oracle", "--cause-backend", "heuristic",
        "--commonsense-backend", "template", "--llm-backend", "echo",
    ]
    read = []
    for provider, name in (
        ("sentiment", "selector"), ("cause", "selector"), ("commonsense", "commonsense"), ("llm", "analysis")
    ):
        read += [f"--{provider}-backend", "fixture", f"--{provider}-fixture", str(fixtures_dir / f"{name}_fixture.jsonl")]
    runs = [tmp_path / "built", tmp_path / "read"]
    for run, flags in zip(runs, (built, read)):
        assert main([*common, "--out", str(run), *flags]) == 0
    for name in ("checkpoint.npz", "train_log.jsonl"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


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
    assert main(["chat", *common, "--strategy", "beam", "--beam-size", "2"]) == 0
    replies = [l for l in capsys.readouterr().out.splitlines() if l.startswith("bot> ")]
    beam = generated("--strategy", "beam", "--beam-size", "2")
    assert replies == [f"bot> {beam}"]
    assert beam != generated("--strategy", "greedy")  # the flags reached the decoder


def untrained_checkpoint(data, tmp_path):
    """An untrained d=16 checkpoint over the data dir's vocabulary."""
    from empgen.corpus import Vocab
    from empgen.training import TrainConfig, save_checkpoint

    vocab = Vocab.load(data / "vocab.json")
    config = TrainConfig(seed=4, d=16, layers=1, heads=2, ffn_mult=2)
    model = config.build_model(len(vocab))
    save_checkpoint(tmp_path / "checkpoint.npz", model, config, vocab)
    return tmp_path / "checkpoint.npz", model, config, vocab


THANKFUL = {"history": [{"role": "speaker", "text": "i felt so thankful about the trip"}]}


@pytest.mark.parametrize("strategy", ["greedy", "beam"])
def test_generate_runs_the_search_and_no_teacher_forced_pass(workspace, tmp_path, capsys, monkeypatch, strategy):
    from empgen.cli import _load_split, build_parser, build_providers
    from empgen.corpus import LabelSet, parse_sample
    from empgen.decoder import DecoderStack, DecoderStep, generate
    from empgen.model import PLANS, prepare_sample

    data = workspace / "data"
    checkpoint, model, config, vocab = untrained_checkpoint(data, tmp_path)
    record = {**THANKFUL, "response": "thank you for telling me"}
    dialogue = tmp_path / "dialogue.json"
    dialogue.write_text(json.dumps(record), encoding="utf-8")
    calls, forwards = [], []
    step = DecoderStep.__call__
    monkeypatch.setattr(DecoderStep, "__call__", lambda self, tokens: calls.append(len(tokens)) or step(self, tokens))
    forward = DecoderStack.forward
    monkeypatch.setattr(DecoderStack, "forward", lambda *a, **k: forwards.append(1) or forward(*a, **k))
    args = ["generate", "--checkpoint", str(checkpoint), "--data-dir", str(data), "--dialogue", str(dialogue)]
    args += ["--strategy", strategy]
    capsys.readouterr()
    assert main(args) == 0
    printed = capsys.readouterr().out.splitlines()
    in_command = list(calls)
    assert in_command and not forwards  # search steps, and no teacher-forced pass

    # The search alone over the same memory makes the same calls.
    labels = LabelSet.default()
    sample = parse_sample({**record, "id": "adhoc", "emotion": labels.names[0]}, labels)
    providers = build_providers(build_parser().parse_args(args), config, _load_split(data, "train"))
    plan = PLANS[config.ablation]
    memory, _ = model.encode_batch([prepare_sample(sample, vocab, providers, plan)], plan)
    calls.clear()
    reply = generate(memory, model.decoder, vocab, strategy, 3, config.max_gen_len)
    assert in_command == calls
    assert printed[0] == reply.text
    if strategy == "greedy":
        assert len(calls) == len(reply.ids)


@pytest.mark.parametrize("beam_size", ["0", "vocabulary + 1", "1000000000"])
@pytest.mark.parametrize("command", ["evaluate", "generate", "chat"])
def test_a_beam_size_past_the_vocabulary_is_refused_by_the_flag(workspace, tmp_path, capsys, command, beam_size):
    # Only the refusal is checked: a search this wide is never started.
    data = workspace / "data"
    checkpoint, _, _, vocab = untrained_checkpoint(data, tmp_path)
    beam_size = str(len(vocab) + 1) if beam_size == "vocabulary + 1" else beam_size
    dialogue = tmp_path / "dialogue.json"
    dialogue.write_text(json.dumps(THANKFUL), encoding="utf-8")
    run = tmp_path / "run"
    extra = {"evaluate": ["--out", str(run)], "generate": ["--dialogue", str(dialogue)], "chat": []}[command]
    args = [command, "--checkpoint", str(checkpoint), "--data-dir", str(data), *extra]
    capsys.readouterr()
    assert main([*args, "--strategy", "beam", "--beam-size", beam_size]) == 1
    message = f"error: --beam-size must be from 1 to the vocabulary's {len(vocab)} tokens, got {beam_size}\n"
    assert capsys.readouterr() == ("", message)
    assert not run.exists()


def test_generate_answers_whatever_the_ignored_response_holds(workspace, tmp_path, capsys):
    data = workspace / "data"
    checkpoint, *_ = untrained_checkpoint(data, tmp_path)
    outputs = []
    for response in ({}, {"response": " ".join(["thanks"] * 601)}):  # past the 512 positions
        dialogue = tmp_path / "dialogue.json"
        dialogue.write_text(json.dumps({**THANKFUL, **response}), encoding="utf-8")
        capsys.readouterr()
        assert main(["generate", "--checkpoint", str(checkpoint), "--data-dir", str(data), "--dialogue", str(dialogue)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and "predicted emotion: " in outputs[1]


@pytest.mark.parametrize(
    "content",
    [b"[1, 2]", b'"x"', b"{not json", b'{"history": \xff}', b'{"history": 7}', b'{"history": []}'],
    ids=["list", "string", "not JSON", "not UTF-8", "history a number", "history empty"],
)
def test_generate_refuses_a_bad_dialogue_file_by_its_path(workspace, tmp_path, capsys, monkeypatch, content):
    data = workspace / "data"
    checkpoint, *_ = untrained_checkpoint(data, tmp_path)
    dialogue = tmp_path / "dialogue.json"
    dialogue.write_bytes(content)
    monkeypatch.setattr(cli, "build_providers", lambda *_: pytest.fail("the providers were built"))
    assert main(["generate", "--checkpoint", str(checkpoint), "--data-dir", str(data), "--dialogue", str(dialogue)]) == 1
    assert f"error: dialogue {dialogue}: " in capsys.readouterr().err


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


class FullDisk(io.FileIO):
    """A file that takes 10 bytes and then refuses more, as a full disk does."""

    def write(self, data):
        data = bytes(data)
        room = max(10 - self.tell(), 0)
        if len(data) > room:
            super().write(data[:room])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(data)


def run_command(*argv) -> int:
    """A command's result, its exceptions raised and not printed."""
    args = build_parser().parse_args([str(a) for a in argv])
    return args.fn(args)


def prepare_data(workspace, out):
    run_command("prepare-data", "--input", workspace / "fixtures" / "corpus.jsonl", "--out", out, "--seed", "0")


def evaluate_untrained(workspace, out):
    checkpoint, *_ = untrained_checkpoint(workspace / "data", out.parent)
    run_command("evaluate", "--checkpoint", checkpoint, "--data-dir", workspace / "data", "--out", out)


def ablate(workspace, out):
    config = fast_config(out.parent, d=8, batch_size=16)
    run_command("ablate", "--data-dir", workspace / "data", "--out", out, "--split", "val", "--config", config)


# Each output file and what writes it into the directory ``out``.
WRITERS = {
    "checkpoint.npz": lambda workspace, out: untrained_checkpoint(workspace / "data", out),
    "vocab.json": prepare_data,
    "train.jsonl": prepare_data,
    "run_manifest.json": prepare_data,
    "report.json": evaluate_untrained,
    "report.txt": evaluate_untrained,
    "ablation.txt": ablate,
    "ablation.json": ablate,
}


@pytest.mark.parametrize("name", list(WRITERS))
def test_an_interrupted_write_leaves_the_previous_file(workspace, tmp_path, monkeypatch, name):
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_bytes(b"previous\n")

    def full_disk(file, mode="r", *args, **kwargs):
        if "w" in mode and name in os.path.basename(file):
            return FullDisk(file, "w")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(util, "open", full_disk, raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        WRITERS[name](workspace, out)
    monkeypatch.undo()
    assert (out / name).read_bytes() == b"previous\n"
    assert [p.name for p in out.iterdir() if name in p.name] == [name]


@pytest.mark.parametrize("content", ["", "\n  \n"])
@pytest.mark.parametrize("command, split", [("train", "train"), ("evaluate", "test"), ("ablate", "test")])
def test_an_empty_split_file_is_refused_by_its_path_before_any_output(
    workspace, tmp_path, capsys, command, split, content
):
    import shutil

    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    (data / f"{split}.jsonl").write_text(content, encoding="utf-8")
    run = tmp_path / "run"
    args = [command, "--data-dir", str(data), "--out", str(run)]
    if command == "evaluate":
        args += ["--checkpoint", str(untrained_checkpoint(data, tmp_path)[0])]
    else:
        args += ["--config", str(fast_config(tmp_path))]
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr() == ("", f"error: split file {data / f'{split}.jsonl'} holds no samples\n")
    assert not run.exists()
