"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.
"""

import contextlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from empgen.autodiff import Tensor, parameter
from empgen.cli import main
from empgen.corpus import LabelSet, build_vocab, parse_sample
from empgen.decoder import assemble_memory, nll_loss
from empgen.emotion import classify_emotion, fuse_features, pool_knowledge
from empgen.encoder import EncoderStack, FusionParams, fuse_sensible, relation_token_ids
from empgen.evaluation import accuracy, bleu_n, dist_n, perplexity, rouge_n
from empgen.fixtures import generate_mini_corpus
from empgen.knowledge import (
    AnalysisCache,
    EchoLlmClient,
    KnowledgeBundle,
    RELATIONS,
    TemplateCommonsenseProvider,
    build_analysis_prompt,
    query_analysis,
)
from empgen.layers import Linear
from empgen.model import PLANS, Providers
from empgen.selectors import HeuristicCauseDetector, OracleSentimentPredictor, load_lexicon
from empgen.training import TrainConfig, train

from .helpers import GOLDEN_PROMPT_PATH, case_sample, emotion_loss, epoch_mean_total
from .oracles import grad_check, reference


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"\n[ACCEPTANCE] {name}: PASS")


@pytest.fixture(scope="module")
def corpus_200(request):
    labels = LabelSet.default()
    records = generate_mini_corpus(seed=7, size=200)
    samples = [parse_sample(r, labels) for r in records]
    return labels, samples, build_vocab(samples)


def full_providers(labels):
    return Providers(
        sentiment=OracleSentimentPredictor(),
        cause=HeuristicCauseDetector(load_lexicon(labels=labels)),
        commonsense=TemplateCommonsenseProvider(),
        llm=EchoLlmClient(),
        analysis_cache=AnalysisCache(),
    )


# ----------------------------------------------------------------------


def test_criterion_gradient_suite():
    with criterion("gradient suite (encoder, fusion, decoder, emotion head; <1e-4; <60 s)"):
        start = time.time()
        report = grad_check(tolerance=1e-4, h=1e-5)
        elapsed = time.time() - start
        groups = report.group_errors()
        print(f"  groups: {{{', '.join(f'{g}: {e:.2e}' for g, e in sorted(groups.items()))}}}")
        assert {"encoder", "fusion", "decoder", "emotion"} <= set(groups)
        for group, err in groups.items():
            assert err < 1e-4, (group, err)
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f} s"


def test_criterion_fusion_analytic_cases():
    with criterion("fusion analytic cases (collapse, uniform mean at 1e-9; row sums at 1e-6 x1000)"):
        rng = np.random.default_rng(21)
        d = 6
        # single cause row: softmax over one key is exactly 1
        ctx = Tensor(rng.normal(0, 1, (5, d)))
        cause = Tensor(rng.normal(0, 1, (1, d)))
        params = FusionParams.create(rng, d)
        fused = fuse_sensible(ctx, cause, params)
        expected = cause.data @ params.w_v.data.T
        assert np.max(np.abs(fused.data - expected[0])) < 1e-9
        # zero query/key maps: uniform attention, rows are the value mean
        params_zero = FusionParams(
            w_q=parameter(np.zeros((d, d))),
            w_k=parameter(np.zeros((d, d))),
            w_v=parameter(rng.normal(0, 1, (d, d))),
        )
        cause5 = Tensor(rng.normal(0, 1, (5, d)))
        fused = fuse_sensible(ctx, cause5, params_zero)
        mean_value = (cause5.data @ params_zero.w_v.data.T).mean(axis=0)
        assert np.max(np.abs(fused.data - mean_value)) < 1e-9
        # attention rows are probability vectors over 1000 random inputs
        for _ in range(1000):
            lu, ld = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            c = Tensor(rng.normal(0, 2, (lu, 4)))
            why = Tensor(rng.normal(0, 2, (ld, 4)))
            p = FusionParams.create(rng, 4)
            _, attention = fuse_sensible(c, why, p, return_attention=True)
            assert np.max(np.abs(attention.data.sum(axis=-1) - 1.0)) < 1e-6


def test_criterion_loss_algebra(corpus_200):
    with criterion("loss algebra (total = nll + emo on 50+ steps; uniform analytic values at 1e-9)"):
        labels, samples, vocab = corpus_200
        config = TrainConfig(
            seed=5, d=16, layers=1, heads=2, ffn_mult=2, dropout=0.1,
            learning_rate=1e-3, epochs=7, batch_size=8, ablation="full",
        )
        result = train(config, samples[:64], vocab, full_providers(labels))
        assert len(result.history) >= 50
        for record in result.history:
            assert record.total == record.nll + record.emo
        # uniform decoder: nll = m_y * ln |V|
        rng = np.random.default_rng(0)
        from empgen.decoder import DecoderStack

        vocab_size = 10
        stack = DecoderStack(rng, vocab_size, 4, 1, 2, ffn_mult=2, dropout=0.0)
        stack.out_proj.weight.data[:] = 0.0
        stack.out_proj.bias.data[:] = 0.0
        memory = assemble_memory(Tensor(rng.normal(0, 1, (1, 3, 4))))
        total, _ = nll_loss([[1, 2, 3, 4]], memory, stack)
        assert abs(total.data[0] - 4 * math.log(vocab_size)) < 1e-9
        # uniform classifier: emo = ln 32
        params = Linear(rng, 12, 32)
        params.weight.data[:] = 0.0
        probs = classify_emotion(Tensor(rng.normal(0, 1, (1, 12))), params)[0]
        assert abs(emotion_loss(probs, 7) - math.log(32)) < 1e-9


def test_criterion_metric_oracles():
    with criterion("metric oracle equivalence (100 random micro-corpora at 1e-9)"):
        rng = np.random.default_rng(33)
        for trial in range(100):
            n_pairs = int(rng.integers(1, 6))
            hyps, refs, pred, gold, nlls = [], [], [], [], []
            for _ in range(n_pairs):
                hyps.append([f"w{int(i)}" for i in rng.integers(0, 10, int(rng.integers(2, 9)))])
                refs.append([f"w{int(i)}" for i in rng.integers(0, 10, int(rng.integers(2, 9)))])
                pred.append(int(rng.integers(0, 4)))
                gold.append(int(rng.integers(0, 4)))
                nlls.extend(rng.uniform(0.05, 5.0, 4).tolist())
            for n in (1, 2, 3, 4):
                assert abs(bleu_n(hyps, refs, n) - reference.bleu(hyps, refs, n)) < 1e-9
            for n in (1, 2):
                for h, r in zip(hyps, refs):
                    assert abs(rouge_n(h, r, n) - reference.rouge_f1(h, r, n)) < 1e-9
                assert abs(dist_n(hyps, n) - reference.dist(hyps, n)) < 1e-9
            assert abs(accuracy(pred, gold) - reference.accuracy(pred, gold)) < 1e-9
            assert abs(perplexity(nlls) - reference.perplexity(nlls)) < 1e-9
            assert abs(perplexity(nlls) - math.exp(np.mean(nlls))) < 1e-9


def test_criterion_overfit_regression(corpus_200):
    with criterion("overfit regression (200 dialogues, 5 epochs, batch 16, lr 5e-5: fall >= 50%, acc >= 5/32, < 10 min)"):
        labels, samples, vocab = corpus_200
        config = TrainConfig(seed=7)  # the published recipe: d=64, L=2, lr 5e-5, 5 epochs, batch 16
        start = time.time()
        result = train(config, samples, vocab, full_providers(labels))
        elapsed = time.time() - start
        e1 = epoch_mean_total(result.history, 1)
        e5 = epoch_mean_total(result.history, config.epochs)
        fall = (e1 - e5) / e1
        plan = PLANS[config.ablation]
        acc = float(
            np.mean(
                [int(np.argmax(result.model.classify(p, plan)) == p.emotion_index) for p in result.prepared]
            )
        )
        print(
            f"  epoch1 {e1:.4f} -> epoch5 {e5:.4f} (fall {fall*100:.1f}%), "
            f"train acc {acc:.3f}, runtime {elapsed:.0f} s"
        )
        assert elapsed < 600.0, f"runtime {elapsed:.0f} s exceeds 10 min"
        assert fall >= 0.5, (
            f"total loss fell only {fall*100:.1f}% from epoch 1 to epoch 5; "
            "see the decisions ledger: 65 Adam steps at lr 5e-5 bound the "
            "per-parameter displacement to ~3e-3, which cannot halve the "
            "objective of a freshly initialized model (the same pipeline "
            "falls 85% and reaches 0.91 train accuracy at lr 3e-3 x 15 "
            "epochs; see test_training_recipe_reaches_thresholds_at_desk_scale_lr)"
        )
        assert acc >= 5 / 32, f"train accuracy {acc:.3f} below 5x chance"


def test_training_recipe_reaches_thresholds_at_desk_scale_lr(corpus_200):
    """Companion regression: identical corpus, model, batch size, and
    optimizer, with the learning rate corrected for from-scratch training
    (3e-3, 15 epochs). Meets both overfit thresholds with a wide margin,
    isolating the criterion failure above to the pinned fine-tuning rate.
    """
    labels, samples, vocab = corpus_200
    config = TrainConfig(seed=7, learning_rate=3e-3, epochs=15)
    result = train(config, samples, vocab, full_providers(labels))
    e1 = epoch_mean_total(result.history, 1)
    eN = epoch_mean_total(result.history, config.epochs)
    fall = (e1 - eN) / e1
    plan = PLANS[config.ablation]
    acc = float(
        np.mean(
            [int(np.argmax(result.model.classify(p, plan)) == p.emotion_index) for p in result.prepared]
        )
    )
    print(f"\n  corrected-lr run: fall {fall*100:.1f}%, train acc {acc:.3f}")
    assert fall >= 0.5
    assert acc >= 5 / 32


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_cli")
    assert main(["make-fixtures", "--out", str(root / "fixtures"), "--seed", "7", "--size", "64"]) == 0
    assert (
        main(
            [
                "prepare-data",
                "--input", str(root / "fixtures" / "corpus.jsonl"),
                "--out", str(root / "data"),
                "--seed", "0",
            ]
        )
        == 0
    )
    config = dict(
        seed=3, d=16, layers=1, heads=2, ffn_mult=2, dropout=0.0,
        learning_rate=1e-3, epochs=1, batch_size=8, ablation="full",
    )
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return root


def test_criterion_ablation_harness(cli_workspace):
    with criterion("ablation harness (4 deterministic rows in order; disabled providers never invoked)"):
        root = cli_workspace
        data = str(root / "data")
        config = str(root / "config.json")
        for name in ("ab1", "ab2"):
            assert main(["ablate", "--data-dir", data, "--out", str(root / name), "--config", config]) == 0
        table1 = (root / "ab1" / "ablation.txt").read_text()
        table2 = (root / "ab2" / "ablation.txt").read_text()
        assert table1 == table2  # deterministic from one seed
        rows = table1.strip().splitlines()
        assert len(rows) == 5  # header + 4 config rows
        assert rows[1].startswith("Vanilla ")
        assert rows[2].startswith("Vanilla+Self-pres")
        assert rows[3].startswith("Vanilla+Analysis")
        assert rows[4].startswith("Full")
        payload = json.loads((root / "ab1" / "ablation.json").read_text())
        calls = payload["provider_calls"]
        for phase in ("train", "eval"):
            assert all(v == 0 for v in calls["vanilla"][phase].values())
            assert calls["self_pres"][phase]["llm"] == 0
            assert calls["analysis"][phase]["cause"] == 0
            assert calls["self_pres"][phase]["cause"] > 0
            assert calls["analysis"][phase]["llm"] > 0
            assert all(v > 0 for v in calls["full"][phase].values())


def test_criterion_structural_fidelity(tmp_path):
    with criterion("structural fidelity (relation rows, feature slices, memory layout, golden prompt, warm cache)"):
        rng = np.random.default_rng(17)
        labels = LabelSet.default()
        # relation row count = summed tokens + 5 on random bundles
        from empgen.corpus import Vocab

        vocab = Vocab.from_texts(["w0 w1 w2 w3 w4 w5 w6 w7"])
        for _ in range(25):
            texts = [
                " ".join(f"w{int(i)}" for i in rng.integers(0, 8, int(rng.integers(1, 7))))
                for _ in range(5)
            ]
            bundle = KnowledgeBundle(dict(zip(RELATIONS, texts)))
            token_lists = relation_token_ids(bundle, vocab)
            stack = EncoderStack(rng, len(vocab), 4, 1, 2, ffn_mult=2, dropout=0.0)
            total = sum(len(ids) for ids in token_lists)
            from empgen.encoder import encode_relations

            assert encode_relations([token_lists], stack).shape[:2] == (1, total)
            assert total == sum(len(vocab.encode_text(t)) for t in texts) + 5
        # fused feature: 3d length, bit-exact slice round trip
        d = 8
        ctx = Tensor(rng.normal(0, 1, (1, 3, d)))
        analysis = Tensor(rng.normal(0, 1, (1, 4, d)))
        pooled = pool_knowledge(Tensor(rng.normal(0, 1, (1, 6, d))), np.array([6]))
        fused = fuse_features(ctx, analysis, pooled)
        assert fused.shape == (1, 3 * d)
        assert np.array_equal(fused.data[0, :d], ctx.data[0, 0])
        assert np.array_equal(fused.data[0, d : 2 * d], analysis.data[0, 0])
        assert np.array_equal(fused.data[0, 2 * d :], pooled.data[0])
        # memory layout
        mem = assemble_memory(
            Tensor(rng.normal(0, 1, (1, 4, d))),
            Tensor(rng.normal(0, 1, (1, 20, d))),
            Tensor(rng.normal(0, 1, (1, 10, d))),
        )
        assert np.bincount(mem.segment_ids).tolist() == [4, 20, 10]
        # golden prompt bytes
        sample = case_sample(labels)
        prompt = build_analysis_prompt(sample, sample.gold_emotion)
        assert prompt.encode("utf-8") == GOLDEN_PROMPT_PATH.read_bytes()
        # warm-cache idempotence under 8-way concurrency
        client = EchoLlmClient()
        cache = AnalysisCache(tmp_path / "cache.jsonl")
        prompts = [f"dialogue {i}\n\nSentiment label: hopeful" for i in range(5)]
        for p in prompts:
            query_analysis(p, client, cache)
        before = client.calls

        def read_all(_):
            return tuple(query_analysis(p, client, cache).response for p in prompts)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read_all, range(8)))
        assert client.calls == before
        assert len(set(results)) == 1


def test_criterion_full_pipeline_determinism(cli_workspace, tmp_path):
    with criterion("determinism (two prepare->build->train->evaluate runs, identical reports)"):
        config_src = (cli_workspace / "config.json").read_text()
        reports = []
        for name in ("run_a", "run_b"):
            root = tmp_path / name
            root.mkdir()
            (root / "config.json").write_text(config_src, encoding="utf-8")
            assert main(["make-fixtures", "--out", str(root / "fx"), "--seed", "7", "--size", "64"]) == 0
            assert main([
                "prepare-data",
                "--input", str(root / "fx" / "corpus.jsonl"),
                "--out", str(root / "data"),
                "--seed", "0",
            ]) == 0
            assert main([
                "build-knowledge",
                "--data-dir", str(root / "data"),
                "--out", str(root / "knowledge"),
                "--config", str(root / "config.json"),
            ]) == 0
            assert main([
                "train",
                "--data-dir", str(root / "data"),
                "--knowledge-dir", str(root / "knowledge"),
                "--out", str(root / "run"),
                "--config", str(root / "config.json"),
            ]) == 0
            assert main([
                "evaluate",
                "--checkpoint", str(root / "run" / "checkpoint.npz"),
                "--data-dir", str(root / "data"),
                "--knowledge-dir", str(root / "knowledge"),
                "--split", "test",
                "--out", str(root / "eval"),
            ]) == 0
            reports.append((root / "eval" / "report.json").read_bytes())
        assert reports[0] == reports[1]
