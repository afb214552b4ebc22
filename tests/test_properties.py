"""Property tests over random small samples: a padded mix of samples
computes what each sample computes alone, and its gradients pass the
central-difference check."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from empgen.corpus import CLS_ID
from empgen.model import PLANS, PreparedSample, padded_rows
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
