import itertools
import math

import numpy as np
import pytest

from empgen.autodiff import Tensor, embedding, no_grad
from empgen.corpus import BOS_ID, EOS_ID
from empgen.decoder import (
    SEGMENT_ANALYSIS,
    SEGMENT_CONTEXT,
    SEGMENT_KNOWLEDGE,
    DecoderCache,
    DecoderStack,
    assemble_memory,
    beam_decode,
    generate,
    greedy_decode,
    nll_loss,
)
from empgen.layers import causal_mask
from empgen.model import PLANS, prepare_samples
from empgen.training import TrainConfig

from .helpers import memory_rows_of
from .oracles import beam_oracle, decoder_log_probs_oracle, greedy_oracle


def micro_decoder(seed=0, vocab_size=10, d=4, layers=1, heads=2):
    rng = np.random.default_rng(seed)
    return DecoderStack(rng, vocab_size, d, layers, heads, ffn_mult=2, dropout=0.0)


def random_memory(rng, rows=3, d=4):
    return assemble_memory(Tensor(rng.normal(0, 1, (1, rows, d))))


# ----------------------------------------------------------------------
# memory assembly


def test_memory_lengths_and_histogram(rng):
    mem = assemble_memory(
        Tensor(rng.normal(0, 1, (1, 4, 8))),
        Tensor(rng.normal(0, 1, (1, 20, 8))),
        Tensor(rng.normal(0, 1, (1, 10, 8))),
    )
    assert mem.values.shape == (1, 34, 8)
    assert mem.segment_histogram() == {SEGMENT_CONTEXT: 4, SEGMENT_KNOWLEDGE: 20, SEGMENT_ANALYSIS: 10}


def test_memory_slices_recover_inputs(rng):
    ctx = rng.normal(0, 1, (1, 3, 4))
    kn = rng.normal(0, 1, (1, 5, 4))
    an = rng.normal(0, 1, (1, 2, 4))
    mem = assemble_memory(Tensor(ctx), Tensor(kn), Tensor(an))
    np.testing.assert_array_equal(memory_rows_of(mem, SEGMENT_CONTEXT), ctx)
    np.testing.assert_array_equal(memory_rows_of(mem, SEGMENT_KNOWLEDGE), kn)
    np.testing.assert_array_equal(memory_rows_of(mem, SEGMENT_ANALYSIS), an)


def test_memory_without_analysis_segment(rng):
    mem = assemble_memory(Tensor(rng.normal(0, 1, (1, 4, 4))), Tensor(rng.normal(0, 1, (1, 6, 4))), None)
    assert mem.values.shape[1] == 10
    assert SEGMENT_ANALYSIS not in mem.segment_histogram()


def test_memory_width_mismatch(rng):
    with pytest.raises(ValueError, match="width"):
        assemble_memory(Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros((1, 2, 6))))


def test_memory_layout_invariant_under_knowledge_row_permutation(rng):
    # The layout contract: permuting knowledge rows never changes the
    # segment histogram (output values are allowed to change).
    kn = rng.normal(0, 1, (1, 6, 4))
    ctx = rng.normal(0, 1, (1, 3, 4))
    base = assemble_memory(Tensor(ctx), Tensor(kn))
    shuffled = assemble_memory(Tensor(ctx), Tensor(kn[:, rng.permutation(6)]))
    assert base.segment_histogram() == shuffled.segment_histogram()
    np.testing.assert_array_equal(base.segment_ids, shuffled.segment_ids)


# ----------------------------------------------------------------------
# NLL


def test_uniform_model_nll_is_target_len_times_log_vocab(rng):
    stack = micro_decoder(vocab_size=10)
    # Zero the output projection: logits all equal, distribution uniform.
    stack.out_proj.weight.data[:] = 0.0
    stack.out_proj.bias.data[:] = 0.0
    mem = random_memory(rng)
    total, per_token = nll_loss([[1, 2, 3, 4]], mem, stack)
    assert abs(total.data[0] - 4 * math.log(10)) < 1e-9
    np.testing.assert_allclose(per_token[0], np.full(4, math.log(10)), atol=1e-9)


def test_nll_matches_independent_log_softmax_chain(rng):
    stack = micro_decoder(seed=3)
    mem = random_memory(rng)
    target = [2, 5, 1]
    total, per_token = nll_loss([target], mem, stack)
    # independent evaluation: raw logits -> shifted exp -> normalized
    logits = stack.forward([[BOS_ID] + target[:-1]], mem).data[0]
    expected = []
    for t, tok in enumerate(target):
        row = logits[t]
        z = row - row.max()
        logp = z - math.log(np.exp(z).sum())
        expected.append(-logp[tok])
    np.testing.assert_allclose(per_token[0], expected, atol=1e-10)
    assert abs(total.data[0] - sum(expected)) < 1e-10


def test_perfect_model_nll_zero(rng):
    stack = micro_decoder(vocab_size=6)
    stack.out_proj.weight.data[:] = 0.0
    # Huge bias on the gold token at every step makes its probability ~1.
    target = [3, 3, 3]
    stack.out_proj.bias.data[:] = -1e4
    stack.out_proj.bias.data[3] = 1e4
    mem = random_memory(rng)
    total, _ = nll_loss([target], mem, stack)
    assert total.data[0] < 1e-9


def test_causality_perturbing_later_target_leaves_earlier_logprobs(rng):
    stack = micro_decoder(seed=6, vocab_size=8)
    mem = random_memory(rng)
    base = stack.forward([[BOS_ID, 2, 3, 4]], mem).data[0]
    for t in range(1, 4):
        mutated_input = [BOS_ID, 2, 3, 4]
        mutated_input[t] = 7  # change the token fed at position t
        out = stack.forward([mutated_input], mem).data[0]
        np.testing.assert_allclose(out[:t], base[:t], atol=1e-12)


def test_output_distribution_normalized(rng):
    stack = micro_decoder(seed=7)
    mem = random_memory(rng)
    logits = stack.forward([[BOS_ID, 1, 2]], mem).data[0]
    probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(probs.sum(axis=-1), np.ones(3), atol=1e-6)


# ----------------------------------------------------------------------
# generation


def rigged_step(table, vocab_size):
    """step_fn serving log-probs from a dict keyed by the prefix tuple;
    unrigged prefixes fall back to uniform. Given a list of prefixes it
    returns one row per prefix, as the decoders call it; given one prefix,
    that prefix's row."""

    def row(prefix):
        key = tuple(prefix[1:])  # drop bos
        probs = np.array(table.get(key, [1.0] * vocab_size), dtype=np.float64)
        return np.log(probs / probs.sum())

    def step(prefixes, parents=None):
        if prefixes and not isinstance(prefixes[0], (list, tuple)):
            return row(prefixes)
        return np.stack([row(p) for p in prefixes])

    return step


def test_rigged_eos_first_gives_length_one():
    stack = micro_decoder(vocab_size=6)
    stack.out_proj.weight.data[:] = 0.0
    stack.out_proj.bias.data[:] = -1e4
    stack.out_proj.bias.data[EOS_ID] = 1e4
    mem = random_memory(np.random.default_rng(0))
    response = generate(mem, stack, strategy="greedy")
    assert response.ids == [EOS_ID]
    assert len(response.log_probs) == 1


def test_greedy_equals_beam1_on_real_model(rng):
    stack = micro_decoder(seed=9, vocab_size=12)
    mem = random_memory(rng)
    greedy = generate(mem, stack, strategy="greedy", max_gen_len=8)
    beam = generate(mem, stack, strategy="beam", beam_size=1, max_gen_len=8)
    assert greedy.ids == beam.ids


def test_greedy_tie_break_lowest_id():
    table = {(): [0.3, 0.3, 0.1, 0.3]}  # ids 0, 1, 3 tie
    step = rigged_step(table, 4)
    ids, _ = greedy_decode(lambda p: step(p), eos_id=0, max_len=1)
    assert ids == [0]


def test_beam3_matches_exhaustive_enumeration():
    # Three steps over four tokens (no eos reachable); compare to brute
    # force over every length-3 sequence by mean log-prob.
    vocab = 4
    rng = np.random.default_rng(13)
    table = {}
    for depth in range(3):
        for prefix in itertools.product(range(vocab), repeat=depth):
            table[prefix] = rng.uniform(0.05, 1.0, vocab)

    step = rigged_step(table, vocab)

    def seq_score(seq):
        total = 0.0
        for t in range(3):
            lp = step([99] + list(seq[:t]))
            total += lp[seq[t]]
        return total / 3

    best_brute = max(
        itertools.product(range(vocab), repeat=3),
        key=lambda s: (seq_score(s), tuple(-x for x in s)),
    )
    ids, _ = beam_decode(step, k=3, eos_id=vocab + 1, max_len=3)
    assert tuple(ids) == best_brute


def test_beam_stops_at_eos():
    # Rig: token 2 (eos) dominates after prefix (1,).
    table = {
        (): [0.1, 0.8, 0.05, 0.05],
        (1,): [0.05, 0.05, 0.85, 0.05],
        (0,): [0.25, 0.25, 0.25, 0.25],
        (3,): [0.25, 0.25, 0.25, 0.25],
    }
    for prefix in [(1, 0), (1, 1), (1, 3), (0, 0), (0, 1), (0, 2), (0, 3)]:
        table[prefix] = [0.25, 0.25, 0.25, 0.25]
    step = rigged_step(table, 4)
    ids, _ = beam_decode(step, k=2, eos_id=2, max_len=5)
    assert ids == [1, 2]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_beam_picks_equal_the_full_three_key_sort_under_ties(k):
    # Whole-number log-probs make many candidates tie at the k-th best
    # score, across parents too. Eos is out of reach, so every pick is a
    # prefix of the next step.
    vocab, rng, rows, calls = 6, np.random.default_rng(k), {}, []

    def step(prefixes, parents):
        lp = np.stack([rows.setdefault(tuple(p), rng.integers(-3, 0, vocab).astype(float)) for p in prefixes])
        calls.append((prefixes, parents, lp))
        return lp

    beam_decode(step, k, eos_id=vocab + 1, max_len=5)
    scores, tied = np.zeros(1), False
    for (prefixes, _, lp), (picked, parents, _) in zip(calls, calls[1:]):
        total = (scores[:, None] + lp).ravel()
        ranks, toks = np.divmod(np.arange(total.size), vocab)
        order = np.lexsort((ranks, toks, -total))
        assert parents == [int(r) for r in ranks[order[:k]]]
        assert picked == [prefixes[r] + [t] for r, t in zip(ranks[order[:k]], toks[order[:k]])]
        scores = total[order[:k]]
        at_kth = ranks[total == scores[-1]]
        tied |= len(at_kth) > 1 and (len(prefixes) == 1 or len(set(at_kth)) > 1)
    assert tied  # at the k-th score, and across parents once there are several


def test_decode_rejects_nonpositive_max_len():
    step = rigged_step({}, 4)
    with pytest.raises(ValueError, match="max_len"):
        greedy_decode(step, eos_id=2, max_len=0)
    with pytest.raises(ValueError, match="max_len"):
        beam_decode(step, k=2, eos_id=2, max_len=0)
    with pytest.raises(ValueError, match="beam size"):
        beam_decode(step, k=0, eos_id=2, max_len=3)


def test_generated_response_detokenizes(mini_vocab, rng):
    stack = micro_decoder(seed=1, vocab_size=len(mini_vocab))
    mem = random_memory(rng)
    response = generate(mem, stack, vocab=mini_vocab, max_gen_len=5)
    assert len(response.ids) <= 5
    assert all(np.isfinite(response.log_probs))
    assert isinstance(response.text, str)


# ----------------------------------------------------------------------
# cached, batched decoding


def test_causal_mask_after_cached_rows():
    np.testing.assert_array_equal(causal_mask(3), np.triu(np.full((3, 3), -1e9), k=1))
    full = causal_mask(6)
    for cached in range(6):
        np.testing.assert_array_equal(causal_mask(6 - cached, cached), full[cached:])


def test_cached_rows_match_full_prefix_forward(rng):
    stack = micro_decoder(seed=4, vocab_size=12, layers=2)
    mem = random_memory(rng)
    seq = [BOS_ID, 5, 7, 3, 9]
    full = stack.forward([seq], mem).data[0]
    with no_grad():
        cache = DecoderCache()
        rows = [stack.forward([[tok]], mem, cache=cache).data[0, 0] for tok in seq]
        assert cache.length == len(seq)
        np.testing.assert_allclose(rows, full, rtol=0, atol=1e-12)
        # Two hypotheses share a cached prefix and advance in one batched step.
        cache = DecoderCache()
        stack.forward([seq[:3]], mem, cache=cache)
        cache.reorder([0, 0])
        both = stack.forward([[4], [6]], mem, cache=cache).data[:, 0]
    np.testing.assert_allclose(both[0], stack.forward([seq[:3] + [4]], mem).data[0, -1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(both[1], stack.forward([seq[:3] + [6]], mem).data[0, -1], rtol=0, atol=1e-12)


def test_cached_forward_refuses_the_tape(rng):
    stack = micro_decoder(seed=4, vocab_size=12)
    mem = random_memory(rng)
    with pytest.raises(RuntimeError, match="no_grad"):
        stack.forward([[BOS_ID]], mem, cache=DecoderCache())
    assert stack.forward([[BOS_ID, 5]], mem).requires_grad  # no cache: the tape records


def test_one_row_step_needs_no_causal_mask(rng):
    stack = micro_decoder(seed=5, vocab_size=12, layers=2)
    mem = random_memory(rng)
    with no_grad():
        cache = DecoderCache()
        stack.forward([[BOS_ID, 5, 7]], mem, cache=cache)
        past = dict(cache.past)
        unmasked = stack.forward([[3]], mem, cache=cache).data
        # The same step through the layers with the one-row mask over 4 rows.
        mask = causal_mask(1, 3)
        x = embedding(stack.token_embedding, np.array([[3]])) + Tensor(stack.positions[3:4])
        for i, layer in enumerate(stack.layers):
            x, _ = layer(x, cache.memory[i], mask, 0.0, None, past[i])
        masked = stack.out_proj(x).data
    assert not mask.any()
    np.testing.assert_array_equal(masked, unmasked)


def test_decoding_matches_full_prefix_oracle_on_fixture_corpus(mini_samples, mini_vocab, providers):
    model = TrainConfig(seed=3, d=16, layers=2, heads=2, ffn_mult=2).build_model(len(mini_vocab))
    # Make <eos> close to the top so that some replies end early and some run out.
    model.decoder.out_proj.bias.data[EOS_ID] = 1.15
    plan = PLANS["full"]
    ended = {"greedy": set(), "beam": set()}
    for prep in prepare_samples(mini_samples, mini_vocab, providers, plan):
        with no_grad():
            memory, _ = model.encode_batch([prep], plan)

        def step(prefix):
            return decoder_log_probs_oracle(model.decoder, prefix, memory.values.data[0], memory.segment_ids)

        for strategy, (ids, log_probs) in (
            ("greedy", greedy_oracle(step, EOS_ID, 16)),
            ("beam", beam_oracle(step, 3, EOS_ID, 16)),
        ):
            got = generate(memory, model.decoder, strategy=strategy, beam_size=3, max_gen_len=16)
            assert got.ids == ids, (prep.sample_id, strategy)
            np.testing.assert_allclose(got.log_probs, log_probs, rtol=0, atol=1e-9)
            ended[strategy].add(ids[-1] == EOS_ID)
    assert ended == {"greedy": {True, False}, "beam": {True, False}}


@pytest.mark.parametrize("plan", ["full", "vanilla"])
def test_respond_equals_generate_response_classify_and_forward_sample(plan, mini_samples, mini_vocab, providers):
    model = TrainConfig(seed=3, d=16, layers=2, heads=2, ffn_mult=2).build_model(len(mini_vocab))
    model.decoder.out_proj.bias.data[EOS_ID] = 1.15  # as above: some replies end early
    plan = PLANS[plan]
    preps = prepare_samples(mini_samples[:8], mini_vocab, providers, plan)
    for strategy in ("greedy", "beam"):
        replies = model.respond(preps, plan, mini_vocab, strategy, beam_size=3, max_gen_len=16)
        assert len(replies) == len(preps)
        for prep, reply in zip(preps, replies):
            alone = model.generate_response(prep, plan, mini_vocab, strategy, beam_size=3, max_gen_len=16)
            assert reply.response == alone, (prep.sample_id, strategy)
            np.testing.assert_array_equal(reply.emotion_probs, model.classify(prep, plan))
            np.testing.assert_array_equal(reply.per_token_nll, model.forward_sample(prep, plan).per_token_nll)


def test_generation_records_no_tape(rng):
    stack = micro_decoder(seed=2, vocab_size=12)
    mem = assemble_memory(Tensor(rng.normal(0, 1, (1, 3, 4)), requires_grad=True))
    calls = []
    forward = stack.forward
    stack.forward = lambda *a, **k: calls.append(forward(*a, **k)) or calls[-1]
    generate(mem, stack, strategy="beam", beam_size=3, max_gen_len=6)
    assert len(calls) == 6  # one batched call per step, and no second pass
    assert all(not out.requires_grad and out._parents == () for out in calls)
