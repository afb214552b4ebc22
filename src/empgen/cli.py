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
from pathlib import Path

import numpy as np

from . import fixtures
from .corpus import LabelSet, Vocab, build_vocab, load_dataset, parse_sample, sample_to_record, split_dataset
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
from .model import ABLATION_ORDER, ABLATION_ROW_LABELS, PLANS, Providers, prepare_sample
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
from .util import canonical_json, now_iso, sha256_hex, write_jsonl

PACKAGE_VERSION = "0.1.0"


def write_manifest(command: str, config: dict, seed: int, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "config": config,
        "config_hash": sha256_hex(canonical_json(config)),
        "seed": seed,
        "code_version": PACKAGE_VERSION,
        "out_dir": str(out_dir),
        "created_at": now_iso(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "run_manifest.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_config(args) -> TrainConfig:
    data = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if "min_freq" in data:
            raise ValueError("min_freq is not a training setting: set it with prepare-data --min-freq")
    # Flags override the file before the config checks its values.
    for name in ("seed", "ablation", "epochs"):
        if getattr(args, name, None) is not None:
            data[name] = getattr(args, name)
    return TrainConfig.from_dict(data)


def build_providers(args, config: TrainConfig, train_samples, labels: LabelSet) -> Providers:
    """Instantiate the provider stack the active ablation plan needs."""
    plan = PLANS[config.ablation]
    providers = Providers()
    knowledge_dir = Path(args.knowledge_dir) if getattr(args, "knowledge_dir", None) else None
    if plan.use_fusion or plan.use_analysis:
        backend = args.sentiment_backend
        if backend == "oracle":
            providers.sentiment = OracleSentimentPredictor()
        elif backend == "lexicon":
            lexicon = load_lexicon(labels=labels)
            providers.sentiment = LexiconSentimentPredictor(
                lexicon, labels, majority_label(train_samples, labels)
            )
        elif backend == "fixture":
            providers.sentiment = FixtureSentimentPredictor(args.sentiment_fixture, labels)
        else:
            raise ValueError(f"unknown sentiment backend {backend!r}")
    if plan.use_fusion:
        backend = args.cause_backend
        if backend == "heuristic":
            providers.cause = HeuristicCauseDetector(load_lexicon(labels=labels))
        elif backend in ("oracle", "fixture"):
            providers.cause = FileCauseDetector(args.cause_fixture)
        else:
            raise ValueError(f"unknown cause backend {backend!r}")
    if plan.use_knowledge:
        backend = args.commonsense_backend
        if backend == "template":
            providers.commonsense = TemplateCommonsenseProvider()
        elif backend == "fixture":
            path = args.commonsense_fixture or (
                knowledge_dir / "commonsense_fixture.jsonl" if knowledge_dir else None
            )
            if path is None:
                raise ValueError("fixture commonsense backend needs --commonsense-fixture")
            providers.commonsense = FixtureCommonsenseProvider(path)
        else:
            raise ValueError(f"unknown commonsense backend {backend!r}")
    if plan.use_analysis:
        backend = args.llm_backend
        if backend == "echo":
            providers.llm = EchoLlmClient()
        elif backend == "fixture":
            path = args.llm_fixture or (
                knowledge_dir / "analysis_fixture.jsonl" if knowledge_dir else None
            )
            if path is None:
                raise ValueError("fixture llm backend needs --llm-fixture")
            providers.llm = FixtureLlmClient(path)
        elif backend == "http":
            if not args.llm_url or not args.llm_model:
                raise ValueError("http llm backend needs --llm-url and --llm-model")
            providers.llm = HttpLlmClient(HttpLlmConfig(args.llm_url, args.llm_model))
        else:
            raise ValueError(f"unknown llm backend {backend!r}")
        cache_path = (
            knowledge_dir / "analysis_cache.jsonl" if knowledge_dir else None
        )
        providers.analysis_cache = AnalysisCache(cache_path)
    return providers


def _add_provider_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sentiment-backend", default="lexicon", choices=["oracle", "lexicon", "fixture"])
    p.add_argument("--cause-backend", default="heuristic", choices=["oracle", "heuristic", "fixture"])
    p.add_argument("--commonsense-backend", default="template", choices=["template", "fixture"])
    p.add_argument("--llm-backend", default="echo", choices=["echo", "fixture", "http"])
    p.add_argument("--sentiment-fixture", default=None)
    p.add_argument("--cause-fixture", default=None)
    p.add_argument("--commonsense-fixture", default=None)
    p.add_argument("--llm-fixture", default=None)
    p.add_argument("--llm-url", default=None)
    p.add_argument("--llm-model", default=None)
    p.add_argument("--knowledge-dir", default=None)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON file of training settings")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ablation", default=None, choices=ABLATION_ORDER)
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
    write_manifest(
        "make-fixtures",
        {"seed": args.seed, "size": args.size, "checksums": checksums},
        args.seed,
        out,
    )
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
    write_manifest(
        "prepare-data",
        {"input": str(args.input), "ratios": list(ratios), "min_freq": args.min_freq},
        args.seed,
        out,
    )
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
    out.mkdir(parents=True, exist_ok=True)
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
    write_manifest(
        "build-knowledge",
        {"ablation": config.ablation, "data_dir": str(data_dir), "built": built, "failures": failures},
        config.seed,
        out,
    )
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
    save_checkpoint(
        out / "checkpoint.npz",
        result.model,
        config,
        vocab,
        optimizer=result.optimizer,
        epoch=config.epochs,
        rng=result.rng,
    )
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
    write_manifest(
        "evaluate",
        {"checkpoint": str(args.checkpoint), "split": args.split, "strategy": args.strategy},
        config.seed,
        out,
    )
    if args.metrics:
        values = dict(zip(METRIC_COLUMNS, report.row_values()))
        for name in wanted:
            print(f"{name} {values[name]:.2f}")
    else:
        print(format_table([report]))
    return 0


def _reply(record: dict, args, vocab: Vocab, loaded, providers: Providers, labels: LabelSet):
    """The reply to one dialogue record and its predicted emotion, decoded
    with ``args.strategy`` and ``args.beam_size``."""
    config, model = loaded.config, loaded.model
    record = {"id": "adhoc", "emotion": labels.names[0], "response": "placeholder", **record}
    plan = PLANS[config.ablation]
    providers.require(plan)
    prep = prepare_sample(
        parse_sample(record, labels), vocab, providers, plan, config.max_context_len, config.max_analysis_len
    )
    [reply] = model.respond([prep], plan, vocab, args.strategy, args.beam_size, config.max_gen_len)
    return reply.response, labels.by_index(int(np.argmax(reply.emotion_probs))).name


def cmd_generate(args) -> int:
    labels = LabelSet.default()
    vocab, loaded, providers = _load_trained(args, labels)
    with open(args.dialogue, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    response, emotion = _reply(record, args, vocab, loaded, providers, labels)
    print(response.text)
    print(f"predicted emotion: {emotion}")
    return 0


def cmd_ablate(args) -> int:
    labels = LabelSet.default()
    data_dir = Path(args.data_dir)
    train_samples = _load_split(data_dir, "train", labels)
    test_samples = _load_split(data_dir, args.split, labels)
    vocab = Vocab.load(data_dir / "vocab.json")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base_config = load_config(args)
    reports = []
    counter_log = {}
    for ablation in ABLATION_ORDER:
        config = TrainConfig.from_dict(base_config.to_dict())
        config.ablation = ablation
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
    with open(out / "ablation.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table + "\n")
    with open(out / "ablation.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(
            {
                "rows": [r.to_dict() for r in reports],
                "provider_calls": counter_log,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    write_manifest(
        "ablate", {"split": args.split, "base": base_config.to_dict()}, base_config.seed, out
    )
    print(table)
    return 0


def cmd_chat(args) -> int:
    if not args.interactive:
        # Non-interactive default: read one dialogue JSON and answer once.
        if args.dialogue is None:
            raise ValueError("chat needs --dialogue, or --interactive to talk")
        return cmd_generate(args)
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
        record = {"id": f"chat-{len(history)}", "history": list(history)}
        response, _ = _reply(record, args, vocab, loaded, providers, labels)
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
    _add_config_flags(p)
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
    _add_config_flags(p)
    _add_provider_flags(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("chat", help="answer a dialogue file, or talk interactively")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--dialogue", default=None)
    p.add_argument("--interactive", action="store_true")
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
