"""The three workloads: inputs made from the seed, the timed operations,
and the correctness checks run after the timed loop.

Every workload drives the program through its public API from one
process and one thread, with offline providers (oracle sentiment,
heuristic cause, template commonsense, echo or fixture LLM) and the
default model shape (``full`` ablation, d=64, 2 layers, 4 heads, batch
16). Calls go through module attributes (``empgen.model.prepare_sample``
and so on) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

import empgen.evaluation
import empgen.model
import empgen.training
from empgen.corpus import LabelSet, build_vocab, parse_sample
from empgen.fixtures import generate_mini_corpus
from empgen.knowledge import (
    AnalysisCache,
    EchoLlmClient,
    FixtureLlmClient,
    TemplateCommonsenseProvider,
    build_analysis_prompt,
    query_analysis,
)
from empgen.selectors import HeuristicCauseDetector, OracleSentimentPredictor, load_lexicon

import oracle as ref

HEADS = 4
MAX_GEN_LEN = 32
MAX_CONTEXT_LEN = 256
MAX_ANALYSIS_LEN = 128
MAX_CAUSE_LEN = 512  # longer cause spans crash EncoderStack.encode today
VOCAB_SEED = MODEL_SEED = 0
WORK_DIR = Path(__file__).resolve().parent / "out" / "work"


def providers(lexicon, llm=None, cache=None) -> empgen.model.Providers:
    return empgen.model.Providers(
        sentiment=OracleSentimentPredictor(),
        cause=HeuristicCauseDetector(lexicon),
        commonsense=TemplateCommonsenseProvider(),
        llm=llm or EchoLlmClient(),
        analysis_cache=cache,
    )


def balanced(records: list[dict], seed: int, per_length: int) -> list[dict]:
    """``per_length`` dialogues of each turn count, in an order drawn from
    the seed, so that every seed gives the same mix of 1, 3 and 5 turns."""
    order = np.random.default_rng([seed, 1]).permutation(len(records))
    picked: dict[int, list[dict]] = {}
    for i in order:
        group = picked.setdefault(len(records[i]["history"]), [])
        if len(group) < per_length:
            group.append(records[i])
    if any(len(g) < per_length for g in picked.values()):
        raise ValueError(f"fewer than {per_length} dialogues of some turn count")
    return [r for group in zip(*(picked[n] for n in sorted(picked))) for r in group]


def fixed_model():
    """The vocabulary and untrained model that evaluate and generate_long
    serve, the same for every seed, as a fixed checkpoint would be.

    Initialised from the workload seed instead, an untrained model ends
    some replies at once on some seeds (one seed in 20 for evaluate, one
    in 5 for generate_long), which changes the work per sample by up to
    32 times and makes the figures depend on the seed.
    """
    vocab = build_vocab([parse_sample(r, LabelSet.default()) for r in generate_mini_corpus(VOCAB_SEED, 640)])
    return vocab, empgen.training.TrainConfig(seed=MODEL_SEED).build_model(len(vocab))


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16]


def _nll_matches_oracle(model, oracle_model, prep, tol=1e-9):
    """Teacher-forced NLL of one sample against the oracle."""
    fwd = model.forward_sample(prep, empgen.model.PLANS["full"])
    per_token, emo = oracle_model.sample_losses(prep)
    problems = []
    gap = np.max(np.abs(fwd.per_token_nll - per_token))
    if gap > tol:
        problems.append(f"{prep.sample_id}: per-token NLL differs from the oracle's by {gap:.3e}")
    gap = abs(float(fwd.emo_nll.data) - emo)
    if gap > tol:
        problems.append(f"{prep.sample_id}: emotion NLL differs from the oracle's by {gap:.3e}")
    return problems


class Workload:
    name = ""
    op = ""

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny

    def inputs(self) -> list[dict]:
        """The raw records this seed gives; the same seed gives the same records."""
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def operations(self, st) -> list:
        """The operations of one round, in order, as calls without
        arguments that return what the operation produced. Every round
        runs the same operations on the same inputs, so the i-th
        operation of every round does the same work and gives the same
        output."""
        raise NotImplementedError

    def work(self, st, i: int, output) -> tuple[int, int]:
        """Samples and tokens the i-th operation handled, given its output;
        called outside the timed region."""
        raise NotImplementedError

    def check(self, st, outputs: list) -> list[str]:
        """Problems found in the outputs of one round and in runs made
        apart from the timed loop; none if all is well."""
        raise NotImplementedError


# ----------------------------------------------------------------------


class Train(Workload):
    """``train()`` over short dialogues. An operation is one optimizer
    step: ``train()`` for one epoch over one batch of 16 dialogues, from a
    model built from the seed, so every call does the same work."""

    name = "train"
    op = "optimizer step"
    EPOCHS = 2
    LR = 3e-3  # large enough that two epochs lower the loss; speed does not depend on it

    def inputs(self):
        return balanced(generate_mini_corpus(self.seed, 96), self.seed, 6 if self.tiny else 11)[: 16 if self.tiny else 32]

    def setup(self):
        labels = LabelSet.default()
        samples = [parse_sample(r, labels) for r in self.inputs()]
        config = empgen.training.TrainConfig(
            seed=self.seed, epochs=1 if self.tiny else self.EPOCHS, learning_rate=self.LR
        )
        return {
            "samples": samples,
            "vocab": build_vocab(samples),
            "providers": providers(load_lexicon(labels=labels)),
            "config": config,
            "step_config": empgen.training.TrainConfig(seed=self.seed, epochs=1, learning_rate=self.LR),
        }

    def operations(self, st):
        size = st["step_config"].batch_size
        batches = [st["samples"][i : i + size] for i in range(0, len(st["samples"]), size)]

        def step(batch):
            result = empgen.training.train(st["step_config"], batch, st["vocab"], st["providers"])
            return [(h.total, h.token_count) for h in result.history]

        return [lambda b=b: step(b) for b in batches]

    def work(self, st, i, output):
        size = st["step_config"].batch_size
        return len(st["samples"][i * size : (i + 1) * size]), sum(tokens for _, tokens in output)

    def check(self, st, outputs):
        problems = []
        if any(len(out) != 1 for out in outputs):
            problems.append("an operation made other than one optimizer step")
        if not all(np.isfinite(total) for out in outputs for total, _ in out):
            problems.append("non-finite step loss in the timed steps")
        result = empgen.training.train(st["config"], st["samples"], st["vocab"], st["providers"])
        totals = [h.total for h in result.history]
        if not all(np.isfinite(totals)):
            problems.append("non-finite step loss")
        last = max(h.epoch for h in result.history)
        if last > 1:
            first_mean = np.mean([h.total for h in result.history if h.epoch == 1])
            last_mean = np.mean([h.total for h in result.history if h.epoch == last])
            if not last_mean < first_mean:
                problems.append(f"mean loss rose from epoch 1 ({first_mean:.4f}) to {last} ({last_mean:.4f})")
        model = result.model
        orc = ref.ModelOracle.of(model, HEADS)
        for prep in result.prepared[:3]:
            problems += _nll_matches_oracle(model, orc, prep)
        problems += self._gradients(model, result.prepared[0])
        return problems

    def _gradients(self, model, prep, h=1e-5):
        """Program gradients of one sample's NLL + emotion loss against
        central differences of the oracle's loss.

        In each probed tensor the entry with the largest gradient is
        tried first; an entry whose two probes put some ReLU input on
        different sides of 0 sits at a kink, where a central difference
        is no oracle, and the next largest is tried instead.
        """
        params = model.named_parameters()
        model.zero_grad()
        fwd = model.forward_sample(prep, empgen.model.PLANS["full"])
        (fwd.nll_sum + fwd.emo_nll).backward()
        arrays = {k: t.data for k, t in params.items()}
        orc = ref.ModelOracle(arrays, HEADS)

        def loss():
            orc.relu_signs = []
            per_token, emo = orc.sample_losses(prep)
            return per_token.sum() + emo, orc.relu_signs

        problems = []
        for name in (
            "context_encoder.layers.0.attn.wq.weight",
            "relation_encoder.layers.1.ffn.lin1.weight",
            "fusion.w_v",
            "decoder.layers.0.cross_attn.wv.weight",
            "decoder.layers.1.self_attn.wo.bias",
            "decoder.out_proj.weight",
            "classifier.weight",
        ):
            flat, gflat = arrays[name].reshape(-1), params[name].grad.reshape(-1)
            for i in np.argsort(-np.abs(gflat))[:5]:
                keep = flat[i]
                flat[i] = keep + h
                up, up_signs = loss()
                flat[i] = keep - h
                down, down_signs = loss()
                flat[i] = keep
                if all(np.array_equal(a, b) for a, b in zip(up_signs, down_signs)):
                    fd = (up - down) / (2 * h)
                    if abs(fd - gflat[i]) > 1e-6 + 1e-5 * abs(gflat[i]):
                        problems.append(f"gradient of {name}[{i}]: {gflat[i]!r} vs central difference {fd!r}")
                    break
            else:
                problems.append(f"{name}: every probed entry sits at a ReLU kink")
        model.zero_grad()
        return problems


# ----------------------------------------------------------------------


class Evaluate(Workload):
    """``evaluate()`` with greedy decoding over held-out short dialogues,
    on the fixed untrained model. An operation is one scored sample:
    ``evaluate()`` of one held-out dialogue."""

    name = "evaluate"
    op = "scored sample"

    def inputs(self):
        return balanced(generate_mini_corpus(self.seed, 96), self.seed, 2 if self.tiny else 6)[:16]

    def setup(self):
        labels = LabelSet.default()
        vocab, model = fixed_model()
        return {
            "held_out": [parse_sample(r, labels) for r in self.inputs()],
            "vocab": vocab,
            "config": empgen.training.TrainConfig(seed=MODEL_SEED),
            "model": model,
            "providers": providers(load_lexicon(labels=labels)),
        }

    def operations(self, st):
        def score(sample):
            report = empgen.evaluation.evaluate(st["model"], st["config"], [sample], st["vocab"], st["providers"])
            return report.to_dict(include_generations=True)

        return [lambda s=s: score(s) for s in st["held_out"]]

    def work(self, st, i, output):
        if "replies" not in st:
            st["replies"] = self._replies(st)
        return 1, len(st["replies"][2][i].ids)

    def _replies(self, st):
        plan = empgen.model.PLANS["full"]
        preps = empgen.model.prepare_samples(
            st["held_out"], st["vocab"], st["providers"], plan, MAX_CONTEXT_LEN, MAX_ANALYSIS_LEN
        )
        replies = [
            st["model"].generate_response(p, plan, st["vocab"], "greedy", max_gen_len=MAX_GEN_LEN)
            for p in preps
        ]
        return preps, sum(len(r.ids) for r in replies), replies

    def check(self, st, outputs):
        problems = []
        report = empgen.evaluation.evaluate(
            st["model"], st["config"], st["held_out"], st["vocab"], st["providers"]
        ).to_dict(include_generations=True)
        for sample, out, gen in zip(st["held_out"], outputs, report["generations"]):
            if out["generations"] != [gen]:
                problems.append(f"{sample.id}: evaluate() of the sample alone differs from evaluate() of the split")
        preps, _, replies = st.get("replies") or self._replies(st)
        orc = ref.ModelOracle.of(st["model"], HEADS)
        vocab = st["vocab"]
        hyps, refs, predicted, gold, nll = [], [], [], [], []
        for sample, prep, reply, gen in zip(st["held_out"], preps, replies, report["generations"]):
            if vocab.decode(reply.ids) != gen["response"]:
                problems.append(f"{sample.id}: evaluate's reply differs from generate_response's")
            problems += [f"{sample.id}: {p}" for p in ref.check_decoded(orc, prep, reply.ids, reply.log_probs, MAX_GEN_LEN, greedy=True)]
            hyps.append([vocab.id_to_token[i] for i in reply.ids if i >= ref.RESERVED])
            refs.append(ref.words(sample.gold_response))
            streams = orc.streams(prep)
            probs = orc.emotion_probs(streams)
            if probs.max() - probs[gen["predicted_emotion"]] > 1e-9:
                problems.append(f"{sample.id}: predicted emotion is not the oracle's argmax")
            predicted.append(gen["predicted_emotion"])
            gold.append(sample.gold_emotion.index)
            nll.extend(orc.sample_losses(prep)[0])
        expected = {
            "bleu": [ref.bleu(hyps, refs, n) for n in (1, 2, 3, 4)],
            "rouge1": float(np.mean([ref.rouge_f1(h, r, 1) for h, r in zip(hyps, refs)])),
            "rouge2": float(np.mean([ref.rouge_f1(h, r, 2) for h, r in zip(hyps, refs)])),
            "dist1": ref.dist(hyps, 1),
            "dist2": ref.dist(hyps, 2),
            "acc": ref.accuracy(predicted, gold),
            "ppl": ref.perplexity(nll),
        }
        for key, want in expected.items():
            got = report[key]
            pairs = zip(got, want) if isinstance(want, list) else [(got, want)]
            if any(abs(g - w) > 1e-9 * max(1.0, abs(w)) for g, w in pairs):
                problems.append(f"{key}: report {got!r} vs independent {want!r}")
        return problems


# ----------------------------------------------------------------------


_ANALYSIS_LEAD = (
    "the speaker keeps returning to the same event , and each turn adds weight to it . "
    "read in order , the turns below explain step by step how the feeling of {label} grew :"
)


class GenerateLong(Workload):
    """One request at a time, like ``empgen generate``: ``prepare_sample``,
    ``generate_response`` with beam 3, then ``classify``, over long
    many-turned dialogues; an operation is one request."""

    name = "generate_long"
    op = "request"
    REQUESTS = 8

    def inputs(self):
        """Long dialogues stitched from the seed's short-dialogue turns.

        Each has 25 to 31 turns: speaker turns from short dialogues of one
        label, most of which carry a lexicon word of it and so fall in the
        heuristic cause span, and listener turns, which carry none.
        """
        rng = np.random.default_rng([self.seed, 2])
        short = generate_mini_corpus(self.seed, 128)
        speaker: dict[str, list[str]] = {}
        listener: list[str] = []
        for r in short:
            for turn in r["history"]:
                if turn["role"] == "speaker":
                    speaker.setdefault(r["emotion"], []).append(turn["text"])
                elif turn["text"] not in listener:
                    listener.append(turn["text"])
        records = []
        count = 2 if self.tiny else self.REQUESTS
        for i in range(count):
            base = short[int(rng.integers(len(short)))]
            label = base["emotion"]
            turns = 2 * int(rng.integers(12, 16)) + 1
            history = [
                {
                    "role": "speaker" if t % 2 == 0 else "listener",
                    "text": (
                        speaker[label][int(rng.integers(len(speaker[label])))]
                        if t % 2 == 0
                        else listener[int(rng.integers(len(listener)))]
                    ),
                }
                for t in range(turns)
            ]
            records.append(
                {"id": f"long-{i:02d}", "history": history, "emotion": label, "response": base["response"]}
            )
        return records

    def setup(self):
        labels = LabelSet.default()
        records = self.inputs()
        samples = [parse_sample(r, labels) for r in records]
        vocab, model = fixed_model()
        lexicon = load_lexicon(labels=labels)
        rows = []
        for r, s in zip(records, samples):
            said = " ".join(t["text"] for t in r["history"] if t["role"] == "speaker")
            rows.append(
                {
                    "prompt": build_analysis_prompt(s, s.gold_emotion),
                    "response": _ANALYSIS_LEAD.format(label=r["emotion"]) + " " + said,
                }
            )
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        path = WORK_DIR / f"llm_fixture_{os.getpid()}.jsonl"
        try:
            with open(path, "w", encoding="utf-8") as fh:
                for row in rows:
                    fh.write(json.dumps(row) + "\n")
            llm = FixtureLlmClient(path)
        finally:
            path.unlink(missing_ok=True)
        # Warm the cache directly: prepare_sample does not fill an empty
        # AnalysisCache, since an empty one is falsy and gets replaced.
        cache = AnalysisCache()
        for row in rows:
            query_analysis(row["prompt"], llm, cache)
        return {
            "samples": samples,
            "vocab": vocab,
            "providers": providers(lexicon, llm, cache),
            "model": model,
        }

    def request(self, st, sample):
        plan = empgen.model.PLANS["full"]
        prep = empgen.model.prepare_sample(
            sample, st["vocab"], st["providers"], plan, MAX_CONTEXT_LEN, MAX_ANALYSIS_LEN
        )
        reply = st["model"].generate_response(prep, plan, st["vocab"], "beam", 3, MAX_GEN_LEN)
        probs = st["model"].classify(prep, plan)
        return prep, reply, probs

    def operations(self, st):
        def serve(sample):
            _, reply, probs = self.request(st, sample)
            return reply.ids, probs.tolist()

        return [lambda s=s: serve(s) for s in st["samples"]]

    def work(self, st, i, output):
        return 1, len(output[0])

    def check(self, st, outputs):
        problems = []
        orc = ref.ModelOracle.of(st["model"], HEADS)
        plan = empgen.model.PLANS["full"]
        vocab = st["vocab"]
        for k, sample in enumerate(st["samples"]):
            prep, reply, probs = self.request(st, sample)
            if outputs[k] != (reply.ids, probs.tolist()):
                problems.append(f"{sample.id}: the timed request and the checked one differ")
            ids = vocab.token_to_id
            context = []
            for i, u in enumerate(sample.history):
                if i:
                    context.append(ids["<sep>"])
                context.extend(ids.get(w, ids["<unk>"]) for w in ref.words(u.text))
            context = [ids["<cls>"]] + context[-(MAX_CONTEXT_LEN - 1) :]
            if prep.context_ids != context or len(context) != MAX_CONTEXT_LEN:
                problems.append(f"{sample.id}: context ids are not the capped dialogue")
            if len(prep.analysis_ids) != MAX_ANALYSIS_LEN:
                problems.append(f"{sample.id}: analysis has {len(prep.analysis_ids)} ids, not the cap")
            if len(prep.cause_ids) > MAX_CAUSE_LEN:
                problems.append(f"{sample.id}: cause span of {len(prep.cause_ids)} ids")
            problems += [
                f"{sample.id}: {p}"
                for p in ref.check_decoded(orc, prep, reply.ids, reply.log_probs, MAX_GEN_LEN)
            ]
            if abs(probs.sum() - 1.0) > 1e-12:
                problems.append(f"{sample.id}: emotion probabilities sum to {probs.sum()!r}")
            want = orc.emotion_probs(orc.streams(prep))
            if np.max(np.abs(probs - want)) > 1e-9:
                problems.append(f"{sample.id}: emotion probabilities differ from oracle")
            if k < 2:
                greedy = st["model"].generate_response(prep, plan, vocab, "greedy", max_gen_len=MAX_GEN_LEN)
                beam1 = st["model"].generate_response(prep, plan, vocab, "beam", 1, MAX_GEN_LEN)
                if greedy.ids != beam1.ids:
                    problems.append(f"{sample.id}: greedy and beam 1 disagree")
        return problems


WORKLOADS = {w.name: w for w in (Train, Evaluate, GenerateLong)}
