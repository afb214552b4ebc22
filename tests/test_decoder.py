import itertools
import math
import re

import numpy as np
import pytest

from empgen.autodiff import Tensor, no_grad
from empgen.corpus import BOS_ID, EOS_ID
from empgen.decoder import (
    SEGMENT_ANALYSIS,
    SEGMENT_CONTEXT,
    SEGMENT_KNOWLEDGE,
    DecoderStack,
    DecoderStep,
    assemble_memory,
    beam_decode,
    generate,
    greedy_decode,
    nll_loss,
)
from empgen.layers import causal_mask
from empgen.model import PLANS, prepare_samples
from empgen.training import TrainConfig

from .helpers import decoder_stack, memory_rows_of
from .oracles import beam_oracle, greedy_oracle, reference


def micro_decoder(seed=0, vocab_size=10, d=4, layers=1, heads=2):
    return decoder_stack(np.random.default_rng(seed), vocab_size, d, layers, heads, max_len=512)


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
    assert np.bincount(mem.segment_ids).tolist() == [4, 20, 10]  # context, knowledge, analysis


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
    assert np.bincount(mem.segment_ids).tolist() == [4, 6]  # no analysis rows


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
    np.testing.assert_array_equal(np.bincount(base.segment_ids), np.bincount(shuffled.segment_ids))
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
# the search step on plain arrays


def test_cached_rows_match_full_prefix_forward(rng):
    stack = micro_decoder(seed=4, vocab_size=12, layers=2)
    mem = random_memory(rng)
    seq = [BOS_ID, 5, 7, 3, 9]
    full = stack.forward([seq], mem).data[0]
    step = DecoderStep(stack, mem, max_len=len(seq))
    rows = [step([tok])[0] for tok in seq]
    assert step.length == len(seq)
    np.testing.assert_allclose(rows, full, rtol=0, atol=1e-12)
    # Two hypotheses share a cached prefix and advance in one batched step.
    step = DecoderStep(stack, mem, max_len=4)
    for tok in seq[:3]:
        step([tok])
    step.reorder([0, 0])
    both = step([4, 6])
    np.testing.assert_allclose(both[0], stack.forward([seq[:3] + [4]], mem).data[0, -1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(both[1], stack.forward([seq[:3] + [6]], mem).data[0, -1], rtol=0, atol=1e-12)


def test_the_step_reads_each_part_of_each_layer(rng):
    # Fresh LayerNorms are all alike (gain 1, bias 0), so a step that bound
    # one LayerNorm's arrays in another's place would match an untrained
    # stack: draw every parameter.
    stack = micro_decoder(seed=6, vocab_size=12, layers=2)
    for p in stack.parameters().values():
        p.data[...] = rng.normal(0, 0.5, p.shape)
    mem = random_memory(rng)
    seq = [BOS_ID, 5, 7, 3]
    step = DecoderStep(stack, mem, max_len=len(seq))
    rows = [step([tok])[0] for tok in seq]
    np.testing.assert_allclose(rows, stack.forward([seq], mem).data[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("heads", [1, 2])
def test_causal_mask_after_cached_rows(rng, heads):
    # A step sees only the rows fed so far: buffer rows past them, which
    # the full forward's causal mask would hide, never reach its logits.
    # With one head, the split of the q, k and v product keeps each row whole.
    stack = micro_decoder(seed=4, vocab_size=12, layers=2, heads=heads)
    mem = random_memory(rng)
    seq = [BOS_ID, 5, 7, 3, 9]
    full = stack.forward([seq], mem).data[0]
    step = DecoderStep(stack, mem, max_len=len(seq))
    for k, v in step.past:
        k.fill(np.nan)
        v.fill(np.nan)
    for t, tok in enumerate(seq):
        np.testing.assert_allclose(step([tok])[0], full[t], rtol=0, atol=1e-12)


def test_cached_forward_refuses_the_tape(rng):
    # The cached search step records nothing even with the tape on and a
    # memory that asks for gradients: it returns a plain array.
    stack = micro_decoder(seed=4, vocab_size=12)
    mem = assemble_memory(Tensor(rng.normal(0, 1, (1, 3, 4)), requires_grad=True))
    logits = DecoderStep(stack, mem, max_len=2)([BOS_ID])
    assert type(logits) is np.ndarray and logits.shape == (1, 12)
    assert stack.forward([[BOS_ID, 5]], mem).requires_grad  # no cache: the tape records


def test_one_row_step_needs_no_causal_mask(rng):
    # The causal mask's last row hides nothing: the row fed last may see
    # every row before it, so the step, which feeds one row, passes no mask.
    np.testing.assert_array_equal(causal_mask(3), np.triu(np.full((3, 3), -1e9), k=1))
    assert not any(causal_mask(m)[-1].any() for m in range(1, 8))
    stack = micro_decoder(seed=5, vocab_size=12, layers=2)
    mem = random_memory(rng)
    step = DecoderStep(stack, mem, max_len=4)
    last = [step([tok]) for tok in (BOS_ID, 5, 7, 3)][-1][0]
    np.testing.assert_allclose(last, stack.forward([[BOS_ID, 5, 7, 3]], mem).data[0, -1], rtol=0, atol=1e-12)


def test_decoding_matches_full_prefix_oracle_on_fixture_corpus(mini_samples, mini_vocab, providers):
    model = TrainConfig(seed=3, d=16, layers=2, heads=2, ffn_mult=2).build_model(len(mini_vocab))
    # Make <eos> close to the top so that some replies end early and some run out.
    model.decoder.out_proj.bias.data[EOS_ID] = 1.15
    plan = PLANS["full"]
    oracle = reference.ModelOracle.of(model, heads=2)
    ended = {"greedy": set(), "beam": set()}
    for prep in prepare_samples(mini_samples, mini_vocab, providers, plan):
        with no_grad():
            memory, _ = model.encode_batch([prep], plan)
        oracle_memory = oracle.memory(oracle.streams(prep))

        def step(prefix):
            return oracle.decoder_log_probs(prefix, oracle_memory)

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


def test_generation_records_no_tape(rng, monkeypatch):
    stack = micro_decoder(seed=2, vocab_size=12)
    mem = assemble_memory(Tensor(rng.normal(0, 1, (1, 3, 4)), requires_grad=True))
    assert stack.forward([[BOS_ID, 5]], mem).requires_grad  # teacher forcing records
    calls, made = [], []
    step = DecoderStep.__call__
    monkeypatch.setattr(DecoderStep, "__call__", lambda self, tokens: calls.append(len(tokens)) or step(self, tokens))
    monkeypatch.setattr(DecoderStack, "forward", lambda *a, **k: made.append("forward"))
    tensor = Tensor.__init__
    monkeypatch.setattr(Tensor, "__init__", lambda self, *a, **k: made.append("Tensor") or tensor(self, *a, **k))
    generate(mem, stack, strategy="beam", beam_size=3, max_gen_len=6)
    assert len(calls) == 6 and calls[0] == 1  # one batched step per token, and no second pass
    assert made == []  # no teacher-forced pass and no Tensor: nothing for a tape to keep


def test_a_search_step_computes_no_norms(rng, monkeypatch):
    # A step costs its numpy calls, so its attentions keep the row-max
    # shift rather than compute the norms of the bound that would skip it.
    stack = micro_decoder(seed=2, vocab_size=12)
    streams = [Tensor(rng.normal(0, 1, (1, rows, 4))) for rows in (3, 2)]
    mem = assemble_memory(*streams, lengths=[np.array([3]), np.array([1])])
    assert mem.key_mask is not None
    monkeypatch.setattr(np, "einsum", lambda *a, **k: pytest.fail("a search step computed a norm"))
    for strategy in ("greedy", "beam"):
        assert generate(mem, stack, strategy=strategy, beam_size=3, max_gen_len=6).ids


def test_generate_refuses_a_beam_wider_than_the_vocabulary(rng):
    stack = micro_decoder(vocab_size=10)
    mem = random_memory(rng)
    with pytest.raises(ValueError, match="beam size 11 is larger than the vocabulary's 10 tokens"):
        generate(mem, stack, strategy="beam", beam_size=11)
    assert len(generate(mem, stack, strategy="beam", beam_size=10, max_gen_len=2).ids) >= 1


@pytest.mark.parametrize(
    "strategy, beam_size, max_gen_len, message",
    [
        ("greedy", 3, 40, "max_gen_len must be from 1 to the decoder's 16 positions, got 40"),
        ("beam", 3, 40, "max_gen_len must be from 1 to the decoder's 16 positions, got 40"),
        ("greedy", 3, 0, "max_gen_len must be from 1 to the decoder's 16 positions, got 0"),
        ("nucleus", 3, 8, "unknown decoding strategy 'nucleus'"),
        ("beam", 0, 8, "beam size must be >= 1"),
    ],
)
def test_a_search_the_decoder_cannot_run_is_refused_before_a_step(
    rng, monkeypatch, strategy, beam_size, max_gen_len, message
):
    # A 16-row position table: a 40-token reply would fail at its 17th step.
    stack = decoder_stack(np.random.default_rng(0), 10, 4, 1, 2, max_len=16)
    mem = random_memory(rng)
    monkeypatch.setattr(DecoderStep, "__init__", lambda *a: pytest.fail("a search step was made"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate(mem, stack, strategy=strategy, beam_size=beam_size, max_gen_len=max_gen_len)


def test_a_reply_as_long_as_the_position_table_is_searched(rng):
    stack = decoder_stack(np.random.default_rng(0), 10, 4, 1, 2, max_len=16)
    stack.out_proj.bias.data[EOS_ID] = -1e3  # never ends early: every position is used
    mem = random_memory(rng)
    for strategy in ("greedy", "beam"):
        assert len(generate(mem, stack, strategy=strategy, beam_size=2, max_gen_len=16).ids) == 16
