import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from empgen.evaluation import (
    MetricError,
    METRIC_COLUMNS,
    accuracy,
    bleu_n,
    dist_n,
    evaluate,
    format_table,
    perplexity,
    rouge_n,
    rouge_n_corpus,
    text_metrics,
    write_report,
)
from empgen.knowledge import AnalysisCache, EchoLlmClient, TemplateCommonsenseProvider
from empgen.model import Providers
from empgen.selectors import HeuristicCauseDetector, OracleSentimentPredictor
from empgen.training import TrainConfig, train

from .oracles import greedy_oracle, reference


def random_corpus(rng, n_pairs, vocab=12, max_len=9, min_len=1):
    hyps, refs = [], []
    for _ in range(n_pairs):
        hl = int(rng.integers(min_len, max_len))
        rl = int(rng.integers(min_len, max_len))
        hyps.append([f"w{int(i)}" for i in rng.integers(0, vocab, hl)])
        refs.append([f"w{int(i)}" for i in rng.integers(0, vocab, rl)])
    return hyps, refs


# ----------------------------------------------------------------------
# perplexity


def test_ppl_uniform_model():
    values = [math.log(10)] * 25
    assert abs(perplexity(values) - 10.0) < 1e-9


def test_ppl_perfect_model():
    assert perplexity([0.0, 0.0, 0.0]) == 1.0


def test_ppl_mixed_vs_oracle(rng):
    values = list(rng.uniform(0.1, 6.0, 64))
    assert abs(perplexity(values) - reference.perplexity(values)) < 1e-10


# ----------------------------------------------------------------------
# BLEU


def test_bleu_identity_is_one(rng):
    hyps, _ = random_corpus(rng, 6, min_len=4)
    for n in (1, 2, 3, 4):
        assert abs(bleu_n(hyps, [list(h) for h in hyps], n) - 1.0) < 1e-12


def test_bleu_zero_overlap_smoothed():
    hyps = [["a", "b"], ["c"]]
    refs = [["x", "y"], ["z"]]
    assert bleu_n(hyps, refs, 1) < 1e-6


def test_bleu_brevity_penalty():
    hyps = [["a"]]
    refs = [["a", "a", "a", "a"]]
    # unigram precision 1, brevity exp(1 - 4/1)
    assert abs(bleu_n(hyps, refs, 1) - math.exp(1 - 4)) < 1e-12


def test_bleu_length_mismatch():
    with pytest.raises(MetricError):
        bleu_n([["a"]], [], 1)


def test_bleu_randomized_vs_oracle(rng):
    for trial in range(30):
        hyps, refs = random_corpus(rng, int(rng.integers(1, 6)))
        for n in (1, 2, 3, 4):
            ours = bleu_n(hyps, refs, n)
            theirs = reference.bleu(hyps, refs, n)
            assert abs(ours - theirs) < 1e-9, (trial, n)


# ----------------------------------------------------------------------
# ROUGE


def test_rouge_identical_pair():
    assert rouge_n(["a", "b", "c"], ["a", "b", "c"], 1) == 1.0
    assert rouge_n(["a", "b", "c"], ["a", "b", "c"], 2) == 1.0


def test_rouge_disjoint_pair():
    assert rouge_n(["a", "b"], ["x", "y"], 1) == 0.0


def test_rouge_handcrafted_overlap():
    # overlap {the, cat}; hyp has 4 unigrams, ref has 3
    hyp = ["the", "cat", "sat", "down"]
    ref = ["the", "cat", "ran"]
    score = rouge_n(hyp, ref, 1)
    assert abs(score - 4.0 / 7.0) < 1e-12  # P=0.5, R=2/3, F1=4/7


def test_rouge_empty_reference_scores_zero_with_warning():
    mean, warnings = rouge_n_corpus([["a"]], [[]], 1)
    assert mean == 0.0
    assert warnings == 1


def test_rouge_randomized_vs_oracle(rng):
    for _ in range(40):
        hyps, refs = random_corpus(rng, 1, min_len=2)
        for n in (1, 2):
            assert abs(rouge_n(hyps[0], refs[0], n) - reference.rouge_f1(hyps[0], refs[0], n)) < 1e-9


# ----------------------------------------------------------------------
# Dist-N


def test_dist_hand_count():
    assert abs(dist_n([["a", "a", "b"]], 1) - 2.0 / 3.0) < 1e-12


def test_dist_all_identical_tokens():
    m = 6
    assert abs(dist_n([["x"] * m], 1) - 1.0 / m) < 1e-12


def test_dist_randomized_exact_vs_oracle(rng):
    for _ in range(30):
        hyps, _ = random_corpus(rng, int(rng.integers(1, 7)), min_len=2)
        for n in (1, 2):
            assert dist_n(hyps, n) == reference.dist(hyps, n)


def test_dist_bounds_property(rng):
    for _ in range(20):
        hyps, _ = random_corpus(rng, int(rng.integers(1, 5)), min_len=2)
        value = dist_n(hyps, 1)
        assert 0.0 < value <= 1.0


def test_dist_error_when_all_too_short():
    with pytest.raises(MetricError):
        dist_n([["a"], ["b"]], 2)


# ----------------------------------------------------------------------
# every similarity metric from one count


words = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(pairs=st.lists(st.tuples(words, words), min_size=1, max_size=5))
@example(pairs=[(["a"], ["a", "b"]), (["b"], ["b"]), ([], ["c"])])  # no reply reaches order 2
@example(pairs=[([], ["a"]), ([], [])])  # nor order 1
def test_one_count_metrics_equal_the_separate_oracles(pairs):
    # The draws hold empty hypotheses, empty references and hypotheses
    # shorter than the order, and every value must be the oracle's own.
    hyps, refs = [h for h, _ in pairs], [r for _, r in pairs]
    got = text_metrics(hyps, refs)
    assert got["bleu"] == [reference.bleu(hyps, refs, n) for n in (1, 2, 3, 4)]
    for n in (1, 2):
        assert got[f"rouge{n}"] == float(np.mean([reference.rouge_f1(h, r, n) for h, r in pairs]))
        reached = any(len(h) >= n for h in hyps)
        assert got[f"dist{n}"] == (reference.dist(hyps, n) if reached else 0.0)
    assert got["empty_reference_warnings"] == sum(len(r) < n for r in refs for n in (1, 2))
    assert got == {
        "bleu": [bleu_n(hyps, refs, n) for n in (1, 2, 3, 4)],
        "rouge1": rouge_n_corpus(hyps, refs, 1)[0],
        "rouge2": rouge_n_corpus(hyps, refs, 2)[0],
        "dist1": dist_n(hyps, 1) if any(hyps) else 0.0,
        "dist2": dist_n(hyps, 2) if any(len(h) > 1 for h in hyps) else 0.0,
        "empty_reference_warnings": rouge_n_corpus(hyps, refs, 1)[1] + rouge_n_corpus(hyps, refs, 2)[1],
    }


# ----------------------------------------------------------------------
# accuracy


def test_accuracy_values():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([1, 2, 3], [4, 5, 6]) == 0.0
    assert accuracy([1] * 13 + [0] * 7, [1] * 20) == 0.65


def test_accuracy_mismatch():
    with pytest.raises(MetricError):
        accuracy([1], [1, 2])


def test_accuracy_randomized_vs_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(1, 30))
        pred = [int(x) for x in rng.integers(0, 5, n)]
        gold = [int(x) for x in rng.integers(0, 5, n)]
        assert accuracy(pred, gold) == reference.accuracy(pred, gold)


# ----------------------------------------------------------------------
# permutation invariance


def test_corpus_metrics_permutation_invariant(rng):
    hyps, refs = random_corpus(rng, 8, min_len=2)
    order = rng.permutation(8)
    hyps_p = [hyps[i] for i in order]
    refs_p = [refs[i] for i in order]
    for n in (1, 2, 3, 4):
        assert abs(bleu_n(hyps, refs, n) - bleu_n(hyps_p, refs_p, n)) < 1e-12
    assert dist_n(hyps, 1) == dist_n(hyps_p, 1)
    assert abs(rouge_n_corpus(hyps, refs, 1)[0] - rouge_n_corpus(hyps_p, refs_p, 1)[0]) < 1e-12


# ----------------------------------------------------------------------
# end-to-end evaluate


@pytest.fixture(scope="module")
def trained(request):
    mini_samples = request.getfixturevalue("mini_samples")
    mini_vocab = request.getfixturevalue("mini_vocab")
    lexicon = request.getfixturevalue("lexicon")
    config = TrainConfig(
        seed=5, d=16, layers=1, heads=2, ffn_mult=2, dropout=0.1,
        learning_rate=1e-3, epochs=1, batch_size=8, ablation="full",
    )
    providers = Providers(
        sentiment=OracleSentimentPredictor(),
        cause=HeuristicCauseDetector(lexicon),
        commonsense=TemplateCommonsenseProvider(),
        llm=EchoLlmClient(),
        analysis_cache=AnalysisCache(),
    )
    result = train(config, mini_samples[:24], mini_vocab, providers)
    return config, result


def eval_providers(lexicon):
    return Providers(
        sentiment=OracleSentimentPredictor(),
        cause=HeuristicCauseDetector(lexicon),
        commonsense=TemplateCommonsenseProvider(),
        llm=EchoLlmClient(),
        analysis_cache=AnalysisCache(),
    )


def test_report_column_order_and_rendering(trained, mini_samples, mini_vocab, lexicon, tmp_path):
    config, result = trained
    report = evaluate(result.model, config, mini_samples[24:32], mini_vocab, eval_providers(lexicon),
                      row_label="Full")
    assert METRIC_COLUMNS == ["PPL", "B-1", "B-2", "B-3", "B-4", "R-1", "R-2", "Dist-1", "Dist-2", "Acc"]
    table = format_table([report])
    header = table.splitlines()[0].split()
    assert header == ["Model"] + METRIC_COLUMNS
    path = write_report(report, tmp_path)
    assert path.exists()
    assert (tmp_path / "report.txt").exists()


def test_evaluate_deterministic(trained, mini_samples, mini_vocab, lexicon):
    config, result = trained
    r1 = evaluate(result.model, config, mini_samples[24:32], mini_vocab, eval_providers(lexicon))
    r2 = evaluate(result.model, config, mini_samples[24:32], mini_vocab, eval_providers(lexicon))
    assert r1.to_dict(include_generations=True) == r2.to_dict(include_generations=True)


def test_evaluate_ppl_consistency(trained, mini_samples, mini_vocab, lexicon):
    from empgen.model import PLANS, prepare_samples

    config, result = trained
    samples = mini_samples[24:32]
    report = evaluate(result.model, config, samples, mini_vocab, eval_providers(lexicon))
    plan = PLANS[config.ablation]
    prepared = prepare_samples(samples, mini_vocab, eval_providers(lexicon), plan)
    per_token = []
    for prep in prepared:
        fwd = result.model.forward_sample(prep, plan)
        per_token.extend(fwd.per_token_nll.tolist())
    assert abs(report.ppl - math.exp(np.mean(per_token))) < 1e-9


def test_evaluate_equals_the_per_stage_reference(trained, mini_samples, mini_vocab, lexicon):
    # evaluate() encodes each sample once, without the tape. Its report must
    # equal one built stage by stage: a taped forward for the NLL, greedy
    # replies recomputed over the whole prefix at every step, and a separate
    # classify() call.
    from empgen.corpus import EOS_ID, tokenize
    from empgen.model import PLANS, prepare_samples

    config, result = trained
    model = result.model
    samples = mini_samples[24:40]
    report = evaluate(model, config, samples, mini_vocab, eval_providers(lexicon))
    plan = PLANS[config.ablation]
    prepared = prepare_samples(samples, mini_vocab, eval_providers(lexicon), plan)
    oracle = reference.ModelOracle.of(model, config.heads)
    per_token, hyps, refs, predicted, generations = [], [], [], [], []
    for sample, prep in zip(samples, prepared):
        fwd = model.forward_sample(prep, plan)
        assert fwd.nll_sum.requires_grad
        per_token.extend(fwd.per_token_nll.tolist())
        memory = oracle.memory(oracle.streams(prep))
        ids, _ = greedy_oracle(lambda prefix: oracle.decoder_log_probs(prefix, memory), EOS_ID, config.max_gen_len)
        label = int(np.argmax(model.classify(prep, plan)))
        hyps.append(mini_vocab.tokens_of(ids))
        refs.append(tokenize(sample.gold_response))
        predicted.append(label)
        generations.append(
            {
                "id": sample.id,
                "response": mini_vocab.decode(ids),
                "reference": sample.gold_response,
                "predicted_emotion": label,
                "gold_emotion": prep.emotion_index,
            }
        )
    assert report.generations == generations
    expected = [
        reference.perplexity(per_token),
        *[100 * reference.bleu(hyps, refs, n) for n in (1, 2, 3, 4)],
        100 * float(np.mean([reference.rouge_f1(h, r, 1) for h, r in zip(hyps, refs)])),
        100 * float(np.mean([reference.rouge_f1(h, r, 2) for h, r in zip(hyps, refs)])),
        100 * reference.dist(hyps, 1),
        100 * reference.dist(hyps, 2),
        100 * reference.accuracy(predicted, [p.emotion_index for p in prepared]),
    ]
    np.testing.assert_allclose(report.row_values(), expected, rtol=1e-9, atol=1e-9)


def test_evaluate_scores_replies_that_end_at_once(mini_samples, mini_vocab, lexicon):
    # With <eos> far ahead of every other token, every reply is empty: no
    # reply holds an n-gram, which reads as no distinct n-grams, not an error.
    from empgen.corpus import EOS_ID

    config = TrainConfig(seed=3, d=16, layers=2, heads=2, ffn_mult=2)
    model = config.build_model(len(mini_vocab))
    model.decoder.out_proj.bias.data[EOS_ID] += 100
    report = evaluate(model, config, mini_samples[24:26], mini_vocab, eval_providers(lexicon))
    assert [g["response"] for g in report.generations] == ["", ""]
    assert (report.dist1, report.dist2, report.bleu, report.rouge1, report.rouge2) == (0.0, 0.0, [0.0] * 4, 0.0, 0.0)
    assert report.sample_count == 2 and math.isfinite(report.ppl)


def test_evaluate_provider_mismatch_errors(trained, mini_samples, mini_vocab):
    from empgen.model import ProviderError

    config, result = trained
    with pytest.raises(ProviderError, match="full"):
        evaluate(result.model, config, mini_samples[:4], mini_vocab, Providers())


def test_identity_hypotheses_give_bleu_one(mini_samples):
    from empgen.corpus import tokenize

    refs = [tokenize(s.gold_response) for s in mini_samples[:6]]
    hyps = [list(r) for r in refs]
    assert abs(bleu_n(hyps, refs, 1) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "strategy, beam_size, message",
    [("nucleus", 3, "unknown decoding strategy 'nucleus'"), ("beam", 10**6, "beam size 1000000 is larger than")],
)
def test_evaluate_and_respond_refuse_a_search_before_any_sample_is_prepared(
    trained, mini_samples, mini_vocab, lexicon, monkeypatch, strategy, beam_size, message
):
    from empgen import evaluation
    from empgen.model import PLANS

    config, result = trained
    providers = eval_providers(lexicon)
    monkeypatch.setattr(evaluation, "prepare_samples", lambda *a: pytest.fail("the samples were prepared"))
    monkeypatch.setattr(result.model, "encode_batch", lambda *a: pytest.fail("a sample was encoded"))
    with pytest.raises(ValueError, match=message):
        evaluate(result.model, config, mini_samples[24:32], mini_vocab, providers, strategy, beam_size)
    assert not any(providers.call_counts().values())  # no provider or LLM call
    prep = object()  # never read: the search is refused first
    with pytest.raises(ValueError, match=message):
        result.model.respond([prep], PLANS[config.ablation], mini_vocab, strategy, beam_size, config.max_gen_len)


def test_evaluate_and_train_refuse_an_empty_sample_list(trained, mini_vocab, lexicon, recwarn):
    config, result = trained
    with pytest.raises(ValueError, match="^evaluate needs samples, got an empty sample list$"):
        evaluate(result.model, config, [], mini_vocab, eval_providers(lexicon))
    with pytest.raises(ValueError, match="^train needs samples, got an empty sample list$"):
        train(config, [], mini_vocab, eval_providers(lexicon))
    assert not recwarn.list  # no numpy warning from a mean of nothing
