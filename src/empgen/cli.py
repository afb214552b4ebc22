"""Command-line surface: deterministic subcommands covering data
preparation, knowledge building, training, evaluation, generation, the
four-way ablation harness, and a simple chat entry point.

Every command with an --out directory writes a run manifest there; all
randomness flows from the single --seed flag.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, fixtures
from .corpus import (
    LabelSet, Vocab, build_vocab, dialogue_sample, load_dataset, read_dialogue, sample_to_record, split_dataset
)
from .decoder import DEFAULT_BEAM_SIZE
from .evaluation import METRIC_COLUMNS, evaluate, format_table, write_report
from .knowledge import (
    ANALYSIS_CACHE,
    ANALYSIS_FIXTURE,
    COMMONSENSE_FIXTURE,
    AnalysisCache,
    EchoLlmClient,
    FixtureCommonsenseProvider,
    FixtureLlmClient,
    HttpLlmClient,
    HttpLlmConfig,
    TemplateCommonsenseProvider,
    build_analysis_prompt,
    query_analysis,
)
from .model import ABLATION_ORDER, ABLATION_ROW_LABELS, PLANS, Providers, plan_providers, prepare_sample
from .selectors import (
    FileCauseDetector,
    FixtureSentimentPredictor,
    HeuristicCauseDetector,
    LexiconSentimentPredictor,
    OracleSentimentPredictor,
    load_lexicon,
    majority_label,
)
from .training import TrainConfig, load_checkpoint, save_checkpoint, train
from .util import canonical_json, now_iso, read_json, sha256_hex, write_file, write_jsonl

# The packaged emotion labels, the only ones the commands take.
LABELS = LabelSet.default()

# The data dir that prepare-data writes and the other commands read: one
# JSONL file of samples for each split, and the vocabulary.
SPLITS = ("train", "val", "test")
VOCAB_FILE = "vocab.json"


def _split_path(data_dir: str | Path, split: str) -> Path:
    return Path(data_dir) / f"{split}.jsonl"


def _load_split(data_dir: str | Path, split: str):
    return load_dataset(_split_path(data_dir, split), LABELS)


def _samples(data_dir: str | Path, split: str):
    """The split's samples to train on or evaluate, refused by the file when it holds none."""
    samples = _load_split(data_dir, split)
    if not samples:
        raise ValueError(f"split file {_split_path(data_dir, split)} holds no samples")
    return samples


def numpy_build() -> dict:
    """The Python and numpy versions and the name and version of numpy's
    BLAS, "unknown" where numpy does not say, which set a run's round-off."""
    blas = {}
    try:  # numpy before 1.26 has no mode="dicts"
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    blas = {key: str(blas.get(key, "unknown")) for key in ("name", "version")}
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def write_manifest(args, config: dict, seed: int) -> None:
    """``run_manifest.json`` in ``args.out``, for the command ``args`` runs,
    with the ``numpy_build`` that ran it."""
    manifest = {
        **numpy_build(),
        "command": args.command,
        "config": config,
        "config_hash": sha256_hex(canonical_json(config)),
        "seed": seed,
        "code_version": __version__,
        "out_dir": str(Path(args.out)),
        "created_at": now_iso(),
    }
    write_file(Path(args.out) / "run_manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _check_emotions(config: TrainConfig, where: str) -> None:
    """Refuse ``config``, by ``where``, unless its emotion head has one output per label."""
    if config.num_emotions != len(LABELS):
        raise ValueError(f"{where}: num_emotions must be the {len(LABELS)} emotion labels, got {config.num_emotions}")


def load_config(args) -> TrainConfig:
    """The ``--config`` file's settings, refused by the file's path, then
    the ``--seed``, ``--ablation`` and ``--epochs`` flags over them,
    each refused by the flag's name."""
    config = TrainConfig()
    if args.config:
        data = read_json(args.config, "config")
        try:  # every refusal of the file's content names the file
            if "min_freq" in data:
                raise ValueError("min_freq is not a training setting: set it with prepare-data --min-freq")
            config = TrainConfig.from_dict(data)
        except ValueError as exc:
            raise ValueError(f"config {args.config}: {exc}") from exc
        _check_emotions(config, f"config {args.config}")
    for name in ("seed", "ablation", "epochs"):
        value = getattr(args, name, None)
        if value is not None:
            try:
                config = replace(config, **{name: value})
            except ValueError as exc:
                raise ValueError(f"--{name}: {exc}") from exc
    return config


# The file in --knowledge-dir that each of these fixture backends reads
# when it is given no file of its own.
KNOWLEDGE_DIR_FILES = {"commonsense": COMMONSENSE_FIXTURE, "llm": ANALYSIS_FIXTURE}


def _fixture_path(args, provider: str) -> str | Path:
    """The file a fixture backend reads: ``--<provider>-fixture``, else, for
    commonsense and llm, the file in ``--knowledge-dir``."""
    path = getattr(args, f"{provider}_fixture")
    if path is None and provider in KNOWLEDGE_DIR_FILES and args.knowledge_dir:
        path = Path(args.knowledge_dir) / KNOWLEDGE_DIR_FILES[provider]
    if path is None:
        hint = " or --knowledge-dir" if provider in KNOWLEDGE_DIR_FILES else ""
        raise ValueError(f"--{provider}-backend fixture needs --{provider}-fixture{hint}")
    return path


def _http_llm(args, *_) -> HttpLlmClient:
    if not args.llm_url or not args.llm_model:
        raise ValueError("http llm backend needs --llm-url and --llm-model")
    return HttpLlmClient(HttpLlmConfig(args.llm_url, args.llm_model))


# Each provider's backends by name, the default first. Each builds its
# provider from the parsed flags and the training samples.
BACKENDS = {
    "sentiment": {
        "lexicon": lambda args, samples: LexiconSentimentPredictor(
            load_lexicon(LABELS), LABELS, majority_label(samples, LABELS)
        ),
        "oracle": lambda *_: OracleSentimentPredictor(),
        "fixture": lambda args, _: FixtureSentimentPredictor(_fixture_path(args, "sentiment"), LABELS),
    },
    "cause": {
        "heuristic": lambda *_: HeuristicCauseDetector(load_lexicon(LABELS)),
        "fixture": lambda args, _: FileCauseDetector(_fixture_path(args, "cause")),
    },
    "commonsense": {
        "template": lambda *_: TemplateCommonsenseProvider(),
        "fixture": lambda args, _: FixtureCommonsenseProvider(_fixture_path(args, "commonsense")),
    },
    "llm": {
        "echo": lambda *_: EchoLlmClient(),
        "fixture": lambda args, _: FixtureLlmClient(_fixture_path(args, "llm")),
        "http": _http_llm,
    },
}


def build_providers(args, config: TrainConfig, train_samples) -> Providers:
    """Instantiate the provider stack the active ablation plan needs."""
    plan = PLANS[config.ablation]
    providers = Providers()
    for name in plan_providers(plan):
        backend = BACKENDS[name][getattr(args, f"{name}_backend")]
        setattr(providers, name, backend(args, train_samples))
    if plan.use_analysis:
        cache_dir = args.knowledge_dir
        providers.analysis_cache = AnalysisCache(Path(cache_dir) / ANALYSIS_CACHE if cache_dir else None)
    return providers


def _add_provider_flags(p: argparse.ArgumentParser) -> None:
    for name, backends in BACKENDS.items():
        p.add_argument(f"--{name}-backend", default=next(iter(backends)), choices=list(backends))
    for name in BACKENDS:
        p.add_argument(f"--{name}-fixture", default=None)
    p.add_argument("--llm-url", default=None)
    p.add_argument("--llm-model", default=None)
    p.add_argument("--knowledge-dir", default=None)


# The flags that several commands take. --seed, --ablation and --epochs
# set those settings over the --config file (load_config).
SHARED_FLAGS = {
    "--data-dir": {"required": True},
    "--out": {"required": True},
    "--checkpoint": {"required": True},
    "--split": {"default": "test", "choices": SPLITS},
    "--strategy": {"default": "greedy", "choices": ["greedy", "beam"]},
    "--beam-size": {"type": int, "default": DEFAULT_BEAM_SIZE},
    "--config": {"default": None, "help": "JSON file of training settings"},
    "--seed": {"type": int, "default": None},
    "--ablation": {"default": None, "choices": ABLATION_ORDER},
    "--epochs": {"type": int, "default": None},
}


def _add_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **SHARED_FLAGS[flag])


# ----------------------------------------------------------------------
# subcommands


def cmd_make_fixtures(args) -> int:
    out = Path(args.out)
    records = fixtures.generate_mini_corpus(args.seed, args.size)
    write_jsonl(out / "corpus.jsonl", records)
    fixtures.write_selector_fixtures(records, out)
    fixtures.write_knowledge_fixtures(records, out)
    checksums = {
        p.name: sha256_hex(p.read_bytes()) for p in sorted(out.glob("*.jsonl"))
    }
    write_manifest(args, {"seed": args.seed, "size": args.size, "checksums": checksums}, args.seed)
    print(f"wrote {len(records)} dialogues and fixtures under {out}")
    return 0


def cmd_prepare_data(args) -> int:
    samples = load_dataset(args.input, LABELS)
    try:
        ratios = tuple(float(x) for x in args.ratios.split(","))
    except ValueError:
        ratios = ()
    if len(ratios) != 3:
        raise ValueError(f"--ratios must name three comma-separated fractions, got {args.ratios!r}")
    train_s, val_s, test_s = split_dataset(samples, ratios, args.seed)
    for name, part in zip(SPLITS, (train_s, val_s, test_s)):
        write_jsonl(_split_path(args.out, name), [sample_to_record(s) for s in part])
    vocab = build_vocab(train_s, args.min_freq)
    vocab.save(Path(args.out) / VOCAB_FILE)
    write_manifest(args, {"input": str(args.input), "ratios": list(ratios), "min_freq": args.min_freq}, args.seed)
    print(f"split {len(samples)} samples into {len(train_s)}/{len(val_s)}/{len(test_s)}; vocab {len(vocab)}")
    return 0


def cmd_build_knowledge(args) -> int:
    config = load_config(args)
    plan = PLANS[config.ablation]
    if not plan.use_knowledge and not plan.use_analysis:
        print(
            f"ablation {config.ablation!r} uses no external knowledge; nothing to build",
            file=sys.stderr,
        )
        return 2
    splits = [_load_split(args.data_dir, name) for name in SPLITS]
    out = Path(args.out)
    args.knowledge_dir = args.knowledge_dir or str(out)
    providers = build_providers(args, config, splits[0])
    commonsense_rows = {}
    built = 0
    failures = 0
    for split in splits:
        for sample in split:
            try:
                if plan.use_knowledge:
                    bundle = providers.commonsense.generate(sample.last_utterance.text)
                    h = FixtureCommonsenseProvider.utterance_hash(sample.last_utterance.text)
                    commonsense_rows.setdefault(
                        h,
                        {"hash": h, "utterance": sample.last_utterance.text, "relations": bundle.relations},
                    )
                if plan.use_analysis:
                    label = providers.sentiment.predict(sample)
                    prompt = build_analysis_prompt(sample, label)
                    query_analysis(prompt, providers.llm, providers.analysis_cache)
                built += 1
            except Exception as exc:  # per-sample failures surface individually
                failures += 1
                print(f"sample {sample.id}: {exc}", file=sys.stderr)
                if not args.continue_on_error:
                    raise
    if plan.use_knowledge:
        write_jsonl(out / COMMONSENSE_FIXTURE, list(commonsense_rows.values()))
    manifest = {"ablation": config.ablation, "data_dir": str(Path(args.data_dir)), "built": built, "failures": failures}
    write_manifest(args, manifest, config.seed)
    print(
        f"knowledge built for {built} samples "
        f"(provider calls: {providers.call_counts()}, failures: {failures})"
    )
    return 0 if failures == 0 else 1


def _load_trained(args):
    """The data dir's vocabulary, the checkpoint (refused unless trained on
    that vocabulary) and the providers its ablation needs. A ``--beam-size``
    outside 1 to the vocabulary size is refused first."""
    vocab = Vocab.load(Path(args.data_dir) / VOCAB_FILE)
    if not 1 <= args.beam_size <= len(vocab):
        raise ValueError(f"--beam-size must be from 1 to the vocabulary's {len(vocab)} tokens, got {args.beam_size}")
    loaded = load_checkpoint(args.checkpoint, vocab)
    _check_emotions(loaded.config, f"checkpoint {args.checkpoint}")
    providers = build_providers(args, loaded.config, _load_split(args.data_dir, "train"))
    return vocab, loaded, providers


def cmd_train(args) -> int:
    config = load_config(args)
    train_samples = _samples(args.data_dir, "train")
    vocab = Vocab.load(Path(args.data_dir) / VOCAB_FILE)
    providers = build_providers(args, config, train_samples)
    out = Path(args.out)
    result = train(
        config,
        train_samples,
        vocab,
        providers,
        log_path=out / "train_log.jsonl",
        timing_path=out / "train_timing.jsonl",
    )
    save_checkpoint(out / "checkpoint.npz", result.model, config, vocab)
    write_manifest(args, config.to_dict(), config.seed)
    first, last = result.history[0], result.history[-1]
    print(
        f"trained {config.epochs} epochs ({last.step} steps); "
        f"total {first.total:.4f} -> {last.total:.4f}; "
        f"provider calls: {result.provider_calls}"
    )
    return 0


def cmd_evaluate(args) -> int:
    wanted = [m.strip() for m in (args.metrics or "").split(",") if m.strip()]
    unknown = [m for m in wanted if m not in METRIC_COLUMNS]
    if unknown:
        raise ValueError(f"unknown metrics {unknown}; choose from {METRIC_COLUMNS}")
    vocab, loaded, providers = _load_trained(args)
    config = loaded.config
    if args.ablation and args.ablation != config.ablation:
        print(
            f"checkpoint was trained with ablation {config.ablation!r}, "
            f"got --ablation {args.ablation!r}",
            file=sys.stderr,
        )
        return 2
    samples = _samples(args.data_dir, args.split)
    report = evaluate(
        loaded.model,
        config,
        samples,
        vocab,
        providers,
        strategy=args.strategy,
        beam_size=args.beam_size,
        row_label=ABLATION_ROW_LABELS[config.ablation],
    )
    write_report(report, Path(args.out))
    manifest = {"checkpoint": str(args.checkpoint), "split": args.split, "strategy": args.strategy}
    write_manifest(args, manifest, config.seed)
    if args.metrics:
        values = dict(zip(METRIC_COLUMNS, report.row_values()))
        for name in wanted:
            print(f"{name} {values[name]:.2f}")
    else:
        print(format_table([report]))
    return 0


def _reply(sample, args, vocab: Vocab, loaded, providers: Providers):
    """The reply to one dialogue sample and its predicted emotion, decoded
    with ``args.strategy`` and ``args.beam_size``. The sample's response
    is not used: it goes with no target."""
    config, model = loaded.config, loaded.model
    plan = PLANS[config.ablation]
    providers.require(plan)
    prep = prepare_sample(sample, vocab, providers, plan, config.max_context_len, config.max_analysis_len)
    prep.target_ids = []
    [reply] = model.respond([prep], plan, vocab, args.strategy, args.beam_size, config.max_gen_len)
    return reply.response, LABELS.by_index(int(np.argmax(reply.emotion_probs))).name


def cmd_generate(args) -> int:
    sample = read_dialogue(args.dialogue, LABELS)
    vocab, loaded, providers = _load_trained(args)
    response, emotion = _reply(sample, args, vocab, loaded, providers)
    print(response.text)
    print(f"predicted emotion: {emotion}")
    return 0


def cmd_ablate(args) -> int:
    train_samples = _samples(args.data_dir, "train")
    test_samples = _samples(args.data_dir, args.split)
    vocab = Vocab.load(Path(args.data_dir) / VOCAB_FILE)
    base_config = load_config(args)
    out = Path(args.out)
    reports = []
    counter_log = {}
    for ablation in ABLATION_ORDER:
        config = replace(base_config, ablation=ablation)
        providers = build_providers(args, config, train_samples)
        result = train(config, train_samples, vocab, providers, log_path=out / f"train_{ablation}.jsonl")
        save_checkpoint(out / f"checkpoint_{ablation}.npz", result.model, config, vocab)
        eval_providers = build_providers(args, config, train_samples)
        report = evaluate(
            result.model,
            config,
            test_samples,
            vocab,
            eval_providers,
            row_label=ABLATION_ROW_LABELS[ablation],
        )
        reports.append(report)
        counter_log[ablation] = {
            "train": result.provider_calls,
            "eval": eval_providers.call_counts(),
        }
    table = format_table(reports)
    write_file(out / "ablation.txt", table + "\n")
    rows = {"rows": [r.to_dict() for r in reports], "provider_calls": counter_log}
    write_file(out / "ablation.json", json.dumps(rows, indent=2) + "\n")
    write_manifest(args, {"split": args.split, "base": base_config.to_dict()}, base_config.seed)
    print(table)
    return 0


def cmd_chat(args) -> int:
    vocab, loaded, providers = _load_trained(args)
    history = []
    print("speaker turns only; blank line quits")
    while True:
        try:
            line = input("you> ").strip()
        except EOFError:
            break
        if not line:
            break
        history.append({"role": "speaker", "text": line})
        sample = dialogue_sample({"id": f"chat-{len(history)}", "history": list(history)}, LABELS, "chat")
        response, _ = _reply(sample, args, vocab, loaded, providers)
        print(f"bot> {response.text}")
        history.append({"role": "listener", "text": response.text or "i see ."})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="empgen", description=__doc__)
    parser.add_argument("--debug", action="store_true", help="print the full traceback of an error")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-fixtures", help="generate the synthetic mini-corpus and fixtures")
    _add_flags(p, "--out")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--size", type=int, default=200)
    p.set_defaults(fn=cmd_make_fixtures)

    p = sub.add_parser("prepare-data", help="validate, split, and build the vocabulary")
    p.add_argument("--input", required=True)
    _add_flags(p, "--out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument("--min-freq", type=int, default=1)
    p.set_defaults(fn=cmd_prepare_data)

    p = sub.add_parser("build-knowledge", help="materialize knowledge caches for the splits")
    _add_flags(p, "--data-dir", "--out")
    p.add_argument("--continue-on-error", action="store_true")
    _add_flags(p, "--config", "--seed", "--ablation")
    _add_provider_flags(p)
    p.set_defaults(fn=cmd_build_knowledge)

    p = sub.add_parser("train", help="train one configuration")
    _add_flags(p, "--data-dir", "--out", "--config", "--seed", "--ablation", "--epochs")
    _add_provider_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a split")
    _add_flags(p, "--checkpoint", "--data-dir", "--split", "--out", "--strategy", "--beam-size")
    p.add_argument("--metrics", default=None, help="comma list of table columns to print, e.g. PPL,B-2,Acc")
    p.add_argument(
        "--ablation", default=None, choices=ABLATION_ORDER, help="refuse a checkpoint of another ablation"
    )
    _add_provider_flags(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("generate", help="respond to one dialogue JSON file")
    _add_flags(p, "--checkpoint", "--data-dir")
    p.add_argument("--dialogue", required=True)
    _add_flags(p, "--strategy", "--beam-size")
    _add_provider_flags(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("ablate", help="train and score all four configurations")
    _add_flags(p, "--data-dir", "--out", "--split", "--config", "--seed", "--epochs")
    _add_provider_flags(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("chat", help="talk with a trained model, one speaker turn per line")
    _add_flags(p, "--checkpoint", "--data-dir", "--strategy", "--beam-size")
    _add_provider_flags(p)
    p.set_defaults(fn=cmd_chat)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:
        if args.debug:
            traceback.print_exc()
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
