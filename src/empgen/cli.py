"""Command-line surface: deterministic subcommands covering data
preparation, knowledge building, training, evaluation, generation, the
four-way ablation harness, and a simple chat entry point.

Every command writes a run manifest into its output directory; all
randomness flows from the single --seed flag.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, fixtures
from .corpus import (
    LabelSet, Vocab, build_vocab, dialogue_sample, load_dataset, read_dialogue, sample_to_record, split_dataset
)
from .evaluation import METRIC_COLUMNS, evaluate, format_table, write_report
from .knowledge import (
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

def write_manifest(command: str, config: dict, seed: int, out_dir: Path) -> None:
    manifest = {
        "command": command,
        "config": config,
        "config_hash": sha256_hex(canonical_json(config)),
        "seed": seed,
        "code_version": __version__,
        "out_dir": str(out_dir),
        "created_at": now_iso(),
    }
    write_file(out_dir / "run_manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _check_emotions(config: TrainConfig, where: str) -> TrainConfig:
    """``config``, refused unless its emotion head has one output per label."""
    if config.num_emotions != (labels := len(LabelSet.default())):
        raise ValueError(f"{where}: num_emotions must be the {labels} emotion labels, got {config.num_emotions}")
    return config


def load_config(args) -> TrainConfig:
    data = {}
    if getattr(args, "config", None):
        data = read_json(args.config, "config")
        if "min_freq" in data:
            raise ValueError("min_freq is not a training setting: set it with prepare-data --min-freq")
    # Flags override the file before the config checks its values.
    for name in ("seed", "ablation", "epochs"):
        if getattr(args, name, None) is not None:
            data[name] = getattr(args, name)
    return _check_emotions(TrainConfig.from_dict(data), f"config {args.config}")


# The file in --knowledge-dir that each of these fixture backends reads
# when it is given no file of its own.
KNOWLEDGE_DIR_FILES = {"commonsense": "commonsense_fixture.jsonl", "llm": "analysis_fixture.jsonl"}


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
# provider from the parsed flags, the labels and the training samples.
BACKENDS = {
    "sentiment": {
        "lexicon": lambda args, labels, samples: LexiconSentimentPredictor(
            load_lexicon(labels=labels), labels, majority_label(samples, labels)
        ),
        "oracle": lambda *_: OracleSentimentPredictor(),
        "fixture": lambda args, labels, _: FixtureSentimentPredictor(_fixture_path(args, "sentiment"), labels),
    },
    "cause": {
        "heuristic": lambda args, labels, _: HeuristicCauseDetector(load_lexicon(labels=labels)),
        "fixture": lambda args, *_: FileCauseDetector(_fixture_path(args, "cause")),
    },
    "commonsense": {
        "template": lambda *_: TemplateCommonsenseProvider(),
        "fixture": lambda args, *_: FixtureCommonsenseProvider(_fixture_path(args, "commonsense")),
    },
    "llm": {
        "echo": lambda *_: EchoLlmClient(),
        "fixture": lambda args, *_: FixtureLlmClient(_fixture_path(args, "llm")),
        "http": _http_llm,
    },
}


def build_providers(args, config: TrainConfig, train_samples, labels: LabelSet) -> Providers:
    """Instantiate the provider stack the active ablation plan needs."""
    plan = PLANS[config.ablation]
    providers = Providers()
    for name in plan_providers(plan):
        backend = BACKENDS[name][getattr(args, f"{name}_backend")]
        setattr(providers, name, backend(args, labels, train_samples))
    if plan.use_analysis:
        cache_dir = args.knowledge_dir
        providers.analysis_cache = AnalysisCache(Path(cache_dir) / "analysis_cache.jsonl" if cache_dir else None)
    return providers


def _add_provider_flags(p: argparse.ArgumentParser) -> None:
    for name, backends in BACKENDS.items():
        p.add_argument(f"--{name}-backend", default=next(iter(backends)), choices=list(backends))
    for name in BACKENDS:
        p.add_argument(f"--{name}-fixture", default=None)
    p.add_argument("--llm-url", default=None)
    p.add_argument("--llm-model", default=None)
    p.add_argument("--knowledge-dir", default=None)


def _add_config_flags(p: argparse.ArgumentParser, ablation: bool = True, epochs: bool = True) -> None:
    p.add_argument("--config", default=None, help="JSON file of training settings")
    p.add_argument("--seed", type=int, default=None)
    if ablation:
        p.add_argument("--ablation", default=None, choices=ABLATION_ORDER)
    if epochs:
        p.add_argument("--epochs", type=int, default=None)


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
    write_manifest("make-fixtures", {"seed": args.seed, "size": args.size, "checksums": checksums}, args.seed, out)
    print(f"wrote {len(records)} dialogues and fixtures under {out}")
    return 0


def cmd_prepare_data(args) -> int:
    labels = LabelSet.default()
    samples = load_dataset(args.input, labels)
    ratios = tuple(float(x) for x in args.ratios.split(","))
    if len(ratios) != 3:
        raise ValueError("--ratios must name three comma-separated fractions")
    train_s, val_s, test_s = split_dataset(samples, ratios, args.seed)
    out = Path(args.out)
    for name, part in (("train", train_s), ("val", val_s), ("test", test_s)):
        write_jsonl(out / f"{name}.jsonl", [sample_to_record(s) for s in part])
    vocab = build_vocab(train_s, args.min_freq)
    vocab.save(out / "vocab.json")
    manifest = {"input": str(args.input), "ratios": list(ratios), "min_freq": args.min_freq}
    write_manifest("prepare-data", manifest, args.seed, out)
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
    labels = LabelSet.default()
    data_dir = Path(args.data_dir)
    splits = [_load_split(data_dir, name, labels) for name in ("train", "val", "test")]
    out = Path(args.out)
    args.knowledge_dir = args.knowledge_dir or str(out)
    providers = build_providers(args, config, splits[0], labels)
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
        write_jsonl(out / "commonsense_fixture.jsonl", list(commonsense_rows.values()))
    manifest = {"ablation": config.ablation, "data_dir": str(data_dir), "built": built, "failures": failures}
    write_manifest("build-knowledge", manifest, config.seed, out)
    print(
        f"knowledge built for {built} samples "
        f"(provider calls: {providers.call_counts()}, failures: {failures})"
    )
    return 0 if failures == 0 else 1


def _load_split(data_dir: Path, split: str, labels: LabelSet):
    return load_dataset(data_dir / f"{split}.jsonl", labels)


def _load_trained(args, labels: LabelSet):
    """The data dir's vocabulary, the checkpoint (refused unless trained on
    that vocabulary) and the providers its ablation needs."""
    data_dir = Path(args.data_dir)
    vocab = Vocab.load(data_dir / "vocab.json")
    loaded = load_checkpoint(args.checkpoint, vocab)
    _check_emotions(loaded.config, f"checkpoint {args.checkpoint}")
    providers = build_providers(args, loaded.config, _load_split(data_dir, "train", labels), labels)
    return vocab, loaded, providers


def cmd_train(args) -> int:
    config = load_config(args)
    labels = LabelSet.default()
    data_dir = Path(args.data_dir)
    train_samples = _load_split(data_dir, "train", labels)
    vocab = Vocab.load(data_dir / "vocab.json")
    providers = build_providers(args, config, train_samples, labels)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = train(
        config,
        train_samples,
        vocab,
        providers,
        log_path=out / "train_log.jsonl",
        timing_path=out / "train_timing.jsonl",
    )
    save_checkpoint(out / "checkpoint.npz", result.model, config, vocab)
    write_manifest("train", config.to_dict(), config.seed, out)
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
    labels = LabelSet.default()
    vocab, loaded, providers = _load_trained(args, labels)
    config = loaded.config
    if args.ablation and args.ablation != config.ablation:
        print(
            f"checkpoint was trained with ablation {config.ablation!r}, "
            f"got --ablation {args.ablation!r}",
            file=sys.stderr,
        )
        return 2
    samples = _load_split(Path(args.data_dir), args.split, labels)
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
    out = Path(args.out)
    write_report(report, out)
    manifest = {"checkpoint": str(args.checkpoint), "split": args.split, "strategy": args.strategy}
    write_manifest("evaluate", manifest, config.seed, out)
    if args.metrics:
        values = dict(zip(METRIC_COLUMNS, report.row_values()))
        for name in wanted:
            print(f"{name} {values[name]:.2f}")
    else:
        print(format_table([report]))
    return 0


def _reply(sample, args, vocab: Vocab, loaded, providers: Providers, labels: LabelSet):
    """The reply to one dialogue sample and its predicted emotion, decoded
    with ``args.strategy`` and ``args.beam_size``. The sample's response
    is not used: it goes with no target."""
    config, model = loaded.config, loaded.model
    plan = PLANS[config.ablation]
    providers.require(plan)
    prep = prepare_sample(sample, vocab, providers, plan, config.max_context_len, config.max_analysis_len)
    prep.target_ids = []
    [reply] = model.respond([prep], plan, vocab, args.strategy, args.beam_size, config.max_gen_len)
    return reply.response, labels.by_index(int(np.argmax(reply.emotion_probs))).name


def cmd_generate(args) -> int:
    labels = LabelSet.default()
    sample = read_dialogue(args.dialogue, labels)
    vocab, loaded, providers = _load_trained(args, labels)
    response, emotion = _reply(sample, args, vocab, loaded, providers, labels)
    print(response.text)
    print(f"predicted emotion: {emotion}")
    return 0


def cmd_ablate(args) -> int:
    labels = LabelSet.default()
    data_dir = Path(args.data_dir)
    train_samples = _load_split(data_dir, "train", labels)
    test_samples = _load_split(data_dir, args.split, labels)
    vocab = Vocab.load(data_dir / "vocab.json")
    base_config = load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    counter_log = {}
    for ablation in ABLATION_ORDER:
        config = replace(base_config, ablation=ablation)
        providers = build_providers(args, config, train_samples, labels)
        result = train(config, train_samples, vocab, providers, log_path=out / f"train_{ablation}.jsonl")
        save_checkpoint(out / f"checkpoint_{ablation}.npz", result.model, config, vocab)
        eval_providers = build_providers(args, config, train_samples, labels)
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
    write_manifest("ablate", {"split": args.split, "base": base_config.to_dict()}, base_config.seed, out)
    print(table)
    return 0


def cmd_chat(args) -> int:
    labels = LabelSet.default()
    vocab, loaded, providers = _load_trained(args, labels)
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
        sample = dialogue_sample({"id": f"chat-{len(history)}", "history": list(history)}, labels, "chat")
        response, _ = _reply(sample, args, vocab, loaded, providers, labels)
        print(f"bot> {response.text}")
        history.append({"role": "listener", "text": response.text or "i see ."})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="empgen", description=__doc__)
    parser.add_argument("--debug", action="store_true", help="print the full traceback of an error")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-fixtures", help="generate the synthetic mini-corpus and fixtures")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--size", type=int, default=200)
    p.set_defaults(fn=cmd_make_fixtures)

    p = sub.add_parser("prepare-data", help="validate, split, and build the vocabulary")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument("--min-freq", type=int, default=1)
    p.set_defaults(fn=cmd_prepare_data)

    p = sub.add_parser("build-knowledge", help="materialize knowledge caches for the splits")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--continue-on-error", action="store_true")
    _add_config_flags(p, epochs=False)
    _add_provider_flags(p)
    p.set_defaults(fn=cmd_build_knowledge)

    p = sub.add_parser("train", help="train one configuration")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    _add_provider_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--out", required=True)
    p.add_argument("--strategy", default="greedy", choices=["greedy", "beam"])
    p.add_argument("--beam-size", type=int, default=3)
    p.add_argument("--metrics", default=None, help="comma list of table columns to print, e.g. PPL,B-2,Acc")
    p.add_argument(
        "--ablation", default=None, choices=ABLATION_ORDER, help="refuse a checkpoint of another ablation"
    )
    _add_provider_flags(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("generate", help="respond to one dialogue JSON file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--dialogue", required=True)
    p.add_argument("--strategy", default="greedy", choices=["greedy", "beam"])
    p.add_argument("--beam-size", type=int, default=3)
    _add_provider_flags(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("ablate", help="train and score all four configurations")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    _add_config_flags(p, ablation=False)
    _add_provider_flags(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("chat", help="talk with a trained model, one speaker turn per line")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--strategy", default="greedy", choices=["greedy", "beam"])
    p.add_argument("--beam-size", type=int, default=3)
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
