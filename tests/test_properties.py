"""Property tests over random small samples: a padded mix of samples
computes what each sample computes alone, its gradients pass the
central-difference check, attention computes the same bits with or
without the tape or its weights, the search step computes what teacher
forcing computes, any well-formed dialogue either runs end to end or is
refused by name, and a cause past the position table keeps its last ids
and is answered."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from empgen.autodiff import Tensor, attention, attention_array, no_grad, parameter
from empgen.corpus import CLS_ID, LabelSet, build_vocab, encode_cause_ids, parse_sample
from empgen.decoder import DecoderStack, DecoderStep, assemble_memory
from empgen.evaluation import evaluate
from empgen.fixtures import generate_mini_corpus
from empgen.knowledge import AnalysisCache, EchoLlmClient, TemplateCommonsenseProvider
from empgen.model import PLANS, PreparedSample, Providers, padded_rows, prepare_sample, prepare_samples
from empgen.selectors import HeuristicCauseDetector, OracleSentimentPredictor, load_lexicon
from empgen.training import TrainConfig

from .oracles import grad_check, reference

VOCAB = 24
LABELS = 5
CONFIG = TrainConfig(seed=3, d=8, layers=1, heads=2, ffn_mult=2, dropout=0.0, num_emotions=LABELS)
MODEL = CONFIG.build_model(VOCAB)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def ids(min_size, max_size):
    return st.lists(st.integers(1, VOCAB - 1), min_size=min_size, max_size=max_size)


@st.composite
def prepared_sample(draw):
    """A sample shaped like ``micro_prepared_sample``, every stream of a
    drawn length: a <cls>-led relation may hold nothing else."""
    return PreparedSample(
        sample_id="drawn",
        context_ids=draw(ids(1, 7)),
        target_ids=draw(ids(1, 5)),
        emotion_index=draw(st.integers(0, LABELS - 1)),
        cause_ids=draw(ids(1, 4)),
        relation_ids=[[CLS_ID, *draw(ids(0, 3))] for _ in range(5)],
        analysis_ids=[CLS_ID, *draw(ids(0, 5))],
    )


def knowledge_rows(prep):
    return sum(map(len, prep.relation_ids))


mixes = st.lists(prepared_sample(), min_size=2, max_size=4).filter(
    lambda preps: len({knowledge_rows(p) for p in preps}) > 1
)


@PROPERTY
@given(preps=mixes, plan=st.sampled_from(sorted(PLANS)))
def test_any_padded_mix_equals_each_sample_alone(preps, plan):
    plan = PLANS[plan]
    # Something is padded in every mix: at least the knowledge rows differ.
    assume(padded_rows(preps, plan) > padded_rows(preps, plan, padded=False))
    batch = MODEL.forward_batch(preps, plan)
    for i, prep in enumerate(preps):
        alone = MODEL.forward_sample(prep, plan)
        np.testing.assert_allclose(batch.feature.data[i], alone.feature.data[0], rtol=0, atol=1e-12)
        valid = batch.memory.key_mask is None or batch.memory.key_mask[i] == 0
        rows = batch.memory.values.data[i][valid]
        np.testing.assert_allclose(rows, alone.memory.values.data[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.per_token_nll[i], alone.per_token_nll, rtol=0, atol=1e-12)
        assert abs(batch.nll_sum.data[i] - alone.nll_sum.data) < 1e-12
        assert abs(batch.emo_nll.data[i] - alone.emo_nll.data) < 1e-12


@settings(PROPERTY, max_examples=1)
@given(preps=mixes)
def test_grad_check_passes_on_a_drawn_mix(preps):
    report = grad_check(CONFIG, preps=preps)
    assert report.passed, report.summary()


# ----------------------------------------------------------------------
# attention


@st.composite
def attention_inputs(draw):
    """q (B, queries, 8), k and v (B, keys, 8), and an additive key mask
    (B, 1, keys) that hides any keys of each sample but one at least. q
    and k are drawn at a size of 1, whose scores stay under the bound
    that lets attention skip the row-max shift, or of 30, past it; the
    skip also needs more scores than q and k entries, as many queries
    and keys over 2 or 4 heads make."""
    batch, queries, keys = draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(1, 16))
    hidden = [draw(st.lists(st.booleans(), min_size=keys, max_size=keys)) for _ in range(batch)]
    for row in hidden:
        row[draw(st.integers(0, keys - 1))] = False
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    q, k, v = (rng.normal(0, 1, (batch, rows, 8)) for rows in (queries, keys, keys))
    size = draw(st.sampled_from([1.0, 30.0]))
    return q * size, k * size, v, np.where(hidden, -1e9, 0.0)[:, None, :]


def pinned(q, k, hidden=()):
    """``attention_inputs`` of one sample with the given q and k rows,
    fixed values and the keys at ``hidden`` masked."""
    q, k = np.array([q], dtype=float), np.array([k], dtype=float)
    v = np.random.default_rng(0).normal(0, 1, k.shape)
    return q, k, v, np.where(np.isin(np.arange(k.shape[1]), hidden), -1e9, 0.0)[None, None, :]


def unit(*xs):
    return [*xs, *[0.0] * (8 - len(xs))]


LIMIT = 299.0**0.5  # q and k rows of this norm at scale 1 score at most 299


@PROPERTY
@given(inputs=attention_inputs(), heads=st.sampled_from([1, 2, 4]), scale=st.sampled_from([0.5, 0.3, 1.7]))
# Scores of ±1e4: only the shifted path is finite.
@example(inputs=pinned([unit(100), unit(-100)], [unit(100), unit(99, 5), unit(-100)], hidden=[1]), heads=2, scale=1.0)
# Scores of ±299, just under the bound, and enough of them: unshifted, sums from about e^-267 to e^301.
@example(inputs=pinned([unit(LIMIT), unit(-LIMIT)] * 9, [unit(LIMIT), unit(0.9 * LIMIT, 0.3 * LIMIT), unit(0.5)] * 6, hidden=range(2, 18, 3)), heads=1, scale=1.0)
# As many scores as q and k entries: shifted, though the bound is small.
@example(inputs=pinned([unit(1.0)] * 16, [unit(0.5, 1.0)] * 16), heads=1, scale=1.0)
# A search step's shape, one query row over 400 keys: shifted.
@example(inputs=pinned([unit(1.0, -1.0)], np.random.default_rng(1).normal(0, 0.3, (400, 8)).tolist()), heads=4, scale=0.5)
# q·q overflows to an inf bound; the scores, near ±1e160, are finite.
@example(inputs=pinned([unit(1e160), unit(1.0)], [unit(1.0, 2.0), unit(-2.0), unit(3.0)]), heads=1, scale=0.5)
def test_attention_output_is_the_same_with_or_without_the_tape_or_weights(inputs, heads, scale):
    q, k, v, mask = inputs
    recorded = attention(*map(parameter, (q, k, v)), scale, mask, heads=heads)
    assert recorded.requires_grad
    with no_grad():
        bare = attention(*map(parameter, (q, k, v)), scale, mask, heads=heads)
    out, weights = attention(*map(parameter, (q, k, v)), scale, mask, return_weights=True, heads=heads)
    np.testing.assert_array_equal(recorded.data, bare.data)
    np.testing.assert_array_equal(recorded.data, out.data)
    assert np.isfinite(recorded.data).all()
    weights = weights.data.reshape(len(q), heads, q.shape[1], k.shape[1])
    assert np.abs(weights.sum(axis=-1) - 1.0).max() <= 1e-15 * k.shape[1]
    assert not weights[np.broadcast_to(mask[:, None] < 0, weights.shape)].any()
    # Each head against the reference softmax, one sample at a time.
    split = [x.reshape(*x.shape[:2], heads, -1).swapaxes(1, 2) for x in (q, k, v, recorded.data)]
    for b, (qb, kb, vb, got) in enumerate(zip(*split)):
        for h in range(heads):
            want = reference.softmax_rows(scale * qb[h] @ kb[h].T + mask[b]) @ vb[h]
            np.testing.assert_allclose(got[h], want, rtol=0, atol=1e-12)
    # The path: row sums are those of exp(scores), shifted by the row max
    # unless the scores outnumber the q and k entries and the bound is small.
    qs, ks, vs = split[:3]
    with np.errstate(over="ignore"):
        bound = scale * np.linalg.norm(qs, axis=-1).max() * np.linalg.norm(ks, axis=-1).max()
        scores = (qs * scale) @ ks.swapaxes(-1, -2) + mask[:, None]
    if scores.size > q.size + k.size and bound < 300:
        want = np.exp(scores).sum(axis=-1, keepdims=True)
    else:
        want = np.exp(scores - scores.max(axis=-1, keepdims=True)).sum(axis=-1, keepdims=True)
    np.testing.assert_array_equal(attention_array(qs, ks, vs, scale, mask[:, None])[2], want)


# ----------------------------------------------------------------------
# the search step

STACKS = {
    (heads, layers): DecoderStack(np.random.default_rng(5), VOCAB, 8, layers, heads, ffn_mult=2, dropout=0.0)
    for heads in (1, 2, 4)
    for layers in (1, 2)
}


def two_streams(widths, valid, seed):
    """One sample's memory of two streams of ``widths`` rows, of which the
    first ``valid`` are real; the padded rows hold values of their own."""
    rng = np.random.default_rng(seed)
    streams = [Tensor(rng.normal(0, 1, (1, w, 8))) for w in widths]
    return assemble_memory(*streams, lengths=[np.array([n]) for n in valid])


@st.composite
def padded_memory(draw):
    """``two_streams`` of up to 64 rows each, at least one padded, so that
    the memory has a ``key_mask``."""
    widths = draw(st.lists(st.integers(1, 64), min_size=2, max_size=2))
    valid = [draw(st.integers(1, w)) for w in widths]
    assume(valid != widths)
    return two_streams(widths, valid, draw(st.integers(0, 2**16)))


@st.composite
def searches(draw):
    """Search steps, as ``beam_decode`` makes them: the first extends the
    empty prefix, and each later one keeps 1-5 hypotheses, each extending
    a parent row of the step before by a drawn token. A later step keeps
    every row where it was, as a beam does that changes no rank, or
    permutes the rows, or draws its parents freely."""
    steps, live = [([0], [draw(st.integers(0, VOCAB - 1))])], 1
    for _ in range(draw(st.integers(0, 5))):
        parents = draw(st.one_of(
            st.just(list(range(live))),
            st.permutations(range(live)),
            st.lists(st.integers(0, live - 1), min_size=1, max_size=5),
        ))
        live = len(parents)
        steps.append((parents, draw(st.lists(st.integers(0, VOCAB - 1), min_size=live, max_size=live))))
    return steps


# The widest search, over the widest memory: 5 hypotheses from the second step on.
WIDEST = [([0], [3]), ([0] * 5, [1, 2, 4, 5, 6]), ([4, 3, 2, 1, 0], [7, 8, 9, 10, 11]), ([0, 1, 2, 3, 4], [12] * 5)]


@PROPERTY
@given(memory=padded_memory(), steps=searches(), heads=st.sampled_from([1, 2, 4]), layers=st.integers(1, 2))
@example(memory=two_streams([64, 64], [64, 40], 0), steps=WIDEST, heads=4, layers=2)
@example(memory=two_streams([64, 64], [17, 64], 1), steps=WIDEST, heads=1, layers=1)
def test_the_step_equals_the_last_row_of_teacher_forcing(memory, steps, heads, layers):
    stack = STACKS[heads, layers]
    assert memory.key_mask is not None
    step = DecoderStep(stack, memory, max_len=len(steps))
    prefixes = [[]]
    for parents, tokens in steps:
        buffers = [b for pair in step.past for b in pair]
        step.reorder(parents)
        if parents == list(range(len(prefixes))):  # no copy: the very same buffers
            assert all(a is b for a, b in zip(buffers, (b for pair in step.past for b in pair), strict=True))
        prefixes = [prefixes[p] + [tok] for p, tok in zip(parents, tokens)]
        logits = step(tokens)
        assert logits.shape == (len(prefixes), VOCAB)
        for prefix, row in zip(prefixes, logits):
            np.testing.assert_allclose(row, stack.forward([prefix], memory).data[0, -1], rtol=0, atol=1e-12)


# ----------------------------------------------------------------------
# arbitrary dialogues

LABEL_SET = LabelSet.default()
LEXICON = load_lexicon(LABEL_SET)
CORPUS = [parse_sample(r, LABEL_SET) for r in generate_mini_corpus(seed=7, size=32)]
DIALOGUE_VOCAB = build_vocab(CORPUS)
DIALOGUE_CONFIG = TrainConfig(seed=3, d=16, layers=1, heads=2, ffn_mult=2, dropout=0.0)
DIALOGUE_MODEL = DIALOGUE_CONFIG.build_model(len(DIALOGUE_VOCAB))


def dialogue_providers():
    return Providers(
        sentiment=OracleSentimentPredictor(),
        cause=HeuristicCauseDetector(LEXICON),
        commonsense=TemplateCommonsenseProvider(),
        llm=EchoLlmClient(),
        analysis_cache=AnalysisCache(),
    )


ORDINARY = {name: prepare_samples(CORPUS[:3], DIALOGUE_VOCAB, dialogue_providers(), plan) for name, plan in PLANS.items()}

# Known words, lexicon words, unknown words and turns of punctuation alone;
# a long turn passes the 256-token context cap, and one past 512 tokens
# passes the model's position table.
WORDS = st.sampled_from([*DIALOGUE_VOCAB.id_to_token[6:40], *sorted(LEXICON)[:20], "zyzzyva", "blorft"])
PUNCTUATION = st.sampled_from(["¡¿…!", "?!", "...", "—"])
SHORT = st.lists(st.one_of(WORDS, PUNCTUATION), min_size=1, max_size=8).map(" ".join)
LONG = st.tuples(WORDS, st.integers(200, 540)).map(lambda wn: " ".join([wn[0]] * wn[1]))
TURN = st.one_of(SHORT, PUNCTUATION, LONG)


@st.composite
def dialogue_record(draw):
    count = draw(st.sampled_from([1, 3, 5, 7, 9]))
    turns = draw(st.lists(TURN, min_size=count, max_size=count))
    return {
        "id": "drawn",
        "history": [{"role": ("speaker", "listener")[i % 2], "text": t} for i, t in enumerate(turns)],
        "emotion": draw(st.sampled_from(LABEL_SET.names)),
        "response": draw(TURN),
    }


def one_turn(text):
    return {"id": "drawn", "history": [{"role": "speaker", "text": text}], "emotion": "lonely", "response": "ok"}


@settings(PROPERTY, max_examples=20)
@given(record=dialogue_record(), mates=st.integers(1, 3), at=st.integers(0, 3))
@example(record=one_turn("¡¿…!"), mates=1, at=0)  # a cause span with no word token
@example(record=one_turn(" ".join(["alone"] * 520)), mates=2, at=1)  # a cause past the position table
def test_any_dialogue_runs_end_to_end_or_is_refused_by_name(record, mates, at):
    sample = parse_sample(record, LABEL_SET)
    for plan in PLANS.values():
        try:
            prep = prepare_sample(sample, DIALOGUE_VOCAB, dialogue_providers(), plan)
            mix = ORDINARY[plan.name][:mates]
            mix.insert(at, prep)
            batch = DIALOGUE_MODEL.forward_batch(mix, plan)
            replies = [
                DIALOGUE_MODEL.respond([prep], plan, DIALOGUE_VOCAB, strategy, beam_size=2, max_gen_len=6)[0]
                for strategy in ("greedy", "beam")
            ]
        except ValueError as exc:
            assert "sample 'drawn'" in str(exc), (plan.name, exc)
            continue
        assert np.isfinite(batch.nll_sum.data).all() and np.isfinite(batch.emo_nll.data).all()
        assert all(np.isfinite(nll).all() for nll in batch.per_token_nll)
        for reply in replies:
            assert reply.response.ids and all(0 <= i < len(DIALOGUE_VOCAB) for i in reply.response.ids)


CUES = {name: sorted(w for w, names in LEXICON.items() if name in names) for name in LABEL_SET.names}


@st.composite
def long_dialogue(draw):
    """5 or 7 turns of 110-300 words, each holding a cue word of the gold
    emotion, so that every turn is a cause turn and, joined, they pass the
    position table."""
    emotion = draw(st.sampled_from([name for name, cues in CUES.items() if cues]))
    turns = []
    for _ in range(draw(st.sampled_from([5, 7]))):
        words = draw(st.lists(WORDS, min_size=1, max_size=6))
        turn = [words[i % len(words)] for i in range(draw(st.integers(110, 300)))]
        turn.insert(draw(st.integers(0, len(turn))), draw(st.sampled_from(CUES[emotion])))
        turns.append(" ".join(turn))
    history = [{"role": ("speaker", "listener")[i % 2], "text": t} for i, t in enumerate(turns)]
    return parse_sample({"id": "long", "history": history, "emotion": emotion, "response": draw(SHORT)}, LABEL_SET)


@settings(PROPERTY, max_examples=4)
@given(sample=long_dialogue())
def test_a_cause_past_the_position_table_keeps_its_last_ids_and_is_answered(sample):
    plan = PLANS[DIALOGUE_CONFIG.ablation]
    cause = encode_cause_ids(sample.history, DIALOGUE_VOCAB)
    assert len(cause) > DIALOGUE_CONFIG.positions
    prep = prepare_sample(sample, DIALOGUE_VOCAB, dialogue_providers(), plan)
    assert prep.cause_ids == cause[-DIALOGUE_CONFIG.positions :]
    for strategy in ("greedy", "beam"):
        reply = DIALOGUE_MODEL.respond([prep], plan, DIALOGUE_VOCAB, strategy, beam_size=2, max_gen_len=6)[0]
        assert reply.response.ids and all(0 <= i < len(DIALOGUE_VOCAB) for i in reply.response.ids)
    report = evaluate(DIALOGUE_MODEL, DIALOGUE_CONFIG, [CORPUS[0], sample], DIALOGUE_VOCAB, dialogue_providers())
    assert report.sample_count == 2 and np.isfinite(report.ppl)
