"""Property tests over random small samples: a padded mix of samples
computes what each sample computes alone, its gradients pass the
central-difference check, and any well-formed dialogue either runs
end to end or is refused by name."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from empgen.corpus import CLS_ID, LabelSet, build_vocab, parse_sample
from empgen.fixtures import generate_mini_corpus
from empgen.knowledge import AnalysisCache, EchoLlmClient, TemplateCommonsenseProvider
from empgen.model import PLANS, PreparedSample, Providers, padded_rows, prepare_sample, prepare_samples
from empgen.selectors import HeuristicCauseDetector, OracleSentimentPredictor, load_lexicon
from empgen.training import TrainConfig, grad_check

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
# arbitrary dialogues

LABEL_SET = LabelSet.default()
LEXICON = load_lexicon(LABEL_SET)
CORPUS = [parse_sample(r, LABEL_SET) for r in generate_mini_corpus(seed=7, size=32)]
DIALOGUE_VOCAB = build_vocab(CORPUS)
DIALOGUE_MODEL = TrainConfig(seed=3, d=16, layers=1, heads=2, ffn_mult=2, dropout=0.0).build_model(len(DIALOGUE_VOCAB))


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
