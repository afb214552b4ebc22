"""What the tests check the package against, beyond the benchmark's
reference model.

The reference model and the metric oracles are ``perfbench/oracle.py``,
loaded here as ``reference``: it recomputes the model from its parameter
arrays in plain numpy and shares no code with the package. This file adds
what it has no counterpart for: the fusion attention as explicit loops,
the losses of every ablation plan composed from the reference model,
greedy and beam search from their definitions, and finite differences.
The one exception is the gradient check at the end: it compares the
package's own analytic gradients against central differences of the
package's own loss.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from empgen.autodiff import Tensor, no_grad
from empgen.model import PLANS, PreparedSample
from empgen.training import TrainConfig

from .helpers import load_perfbench

reference = load_perfbench("oracle")


def fusion_oracle(ctx, cause, wq, wk, wv):
    """Explicit-loop evaluation of the fusion attention."""
    d = ctx.shape[1]
    lu, ld = ctx.shape[0], cause.shape[0]
    q = np.array([[sum(wq[r][c] * ctx[i][c] for c in range(d)) for r in range(d)] for i in range(lu)])
    k = np.array([[sum(wk[r][c] * cause[j][c] for c in range(d)) for r in range(d)] for j in range(ld)])
    v = np.array([[sum(wv[r][c] * cause[j][c] for c in range(d)) for r in range(d)] for j in range(ld)])
    scale = math.sqrt(2.0 * d)
    out = np.zeros((lu, d))
    for i in range(lu):
        scores = [sum(q[i][c] * k[j][c] for c in range(d)) / scale for j in range(ld)]
        exps = [math.exp(s - max(scores)) for s in scores]
        weights = [e / sum(exps) for e in exps]
        for c in range(d):
            out[i][c] = sum(weights[j] * v[j][c] for j in range(ld))
    return out


def plan_losses(oracle, prep, plan):
    """Per-token NLL and emotion NLL of one sample under an ablation plan,
    from a ``reference.ModelOracle``. The full plan is its
    ``sample_losses``; in any other plan a stream the plan leaves out is
    absent from the decoder memory and zero in the emotion feature."""
    if plan.name == "full":
        return oracle.sample_losses(prep)
    if plan.use_fusion:  # streams() fuses the cause in; the stand-in analysis it encodes goes unused
        context = oracle.streams(replace(prep, analysis_ids=[reference.BOS]))[0]
    else:
        context = oracle.encode("context_encoder", prep.context_ids)
    streams, knowledge, analysis = [context], np.zeros((1, oracle.d)), np.zeros((1, oracle.d))
    if plan.use_knowledge:
        knowledge = np.concatenate([oracle.encode("relation_encoder", ids) for ids in prep.relation_ids])
        streams.append(knowledge)
    if plan.use_analysis:
        analysis = oracle.encode("context_encoder", prep.analysis_ids)
        streams.append(analysis)
    targets = list(prep.target_ids)
    lp = oracle.decoder_log_probs([reference.BOS] + targets[:-1], oracle.memory(streams))
    emo = -math.log(oracle.emotion_probs((context, knowledge, analysis))[prep.emotion_index])
    return -lp[np.arange(len(targets)), targets], emo


def fd_gradient(loss_fn, array, h=1e-5):
    """Central finite differences over every entry of one array."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = loss_fn()
        flat[i] = keep - h
        down = loss_fn()
        flat[i] = keep
        gflat[i] = (up - down) / (2 * h)
    return grad


def greedy_oracle(log_probs_fn, eos, max_len, bos=1):
    """Argmax of the last row of ``log_probs_fn(prefix)`` until eos or max_len;
    the first maximum wins a tie."""
    ids, log_probs = [], []
    while len(ids) < max_len:
        row = log_probs_fn([bos] + ids)[-1]
        tok = int(np.argmax(row))
        ids.append(tok)
        log_probs.append(float(row[tok]))
        if tok == eos:
            break
    return ids, log_probs


def beam_oracle(log_probs_fn, k, eos, max_len, bos=1):
    """Beam search from its definition, one hypothesis at a time.

    Each step ranks every one-token extension of every live hypothesis by
    summed log-prob (ties: lower token id, then earlier hypothesis) and
    keeps k; those ending in eos retire. The answer is the best mean
    log-prob (ties: the smaller id sequence)."""
    live = [((), 0.0, ())]
    finished = []
    for _ in range(max_len):
        if not live:
            break
        candidates = []
        for rank, (seq, score, lps) in enumerate(live):
            row = log_probs_fn([bos] + list(seq))[-1]
            for tok in range(len(row)):
                lp = float(row[tok])
                candidates.append((score + lp, tok, rank, seq + (tok,), lps + (lp,)))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        live = []
        for score, tok, _, seq, lps in candidates[:k]:
            (finished if tok == eos else live).append((seq, score, lps))
    finished.extend(live)
    best = min(finished, key=lambda h: (-h[1] / len(h[0]), h[0]))
    return list(best[0]), list(best[2])


# ----------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckEntry:
    name: str
    group: str
    max_rel_error: float
    checked: int


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(e.max_rel_error < self.tolerance for e in self.entries)

    def group_errors(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for e in self.entries:
            out[e.group] = max(out.get(e.group, 0.0), e.max_rel_error)
        return out

    def summary(self) -> str:
        lines = [f"gradient check (tolerance {self.tolerance:g})"]
        for group, err in sorted(self.group_errors().items()):
            status = "ok" if err < self.tolerance else "FAIL"
            lines.append(f"  {group:<18} max rel err {err:.3e}  {status}")
        if not self.entries:
            lines.append("  (no parameters)")
        return "\n".join(lines)


def _entry_indices(size: int, limit: int) -> np.ndarray:
    if size <= limit:
        return np.arange(size)
    stride = size // limit
    return np.arange(0, size, stride)[:limit]


def check_gradients(
    loss_fn,
    params: dict[str, Tensor],
    analytic: dict[str, np.ndarray],
    h: float = 1e-5,
    tolerance: float = 1e-4,
    max_entries_per_param: int = 12,
    group_fn=None,
) -> GradCheckReport:
    """Compare supplied analytic gradients against central finite differences.

    Large tensors are probed on a deterministic stride of entries. The
    relative error denominator is floored at 1e-5 (so the criterion is
    |a-f| < tol * max(|a|, |f|, 1e-5), tighter than the usual rtol/atol
    gradcheck defaults), and pairs where both sides sit below 1e-8, under
    the cancellation noise of the central difference itself, count as
    equal.
    """
    group_fn = group_fn or (lambda name: name.split(".")[0])
    entries = []
    for name, p in params.items():
        flat = p.data.reshape(-1)
        grad = analytic[name].reshape(-1)
        idx = _entry_indices(flat.size, max_entries_per_param)
        worst = 0.0
        for i in idx:
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn()
            flat[i] = keep - h
            down = loss_fn()
            flat[i] = keep
            fd = (up - down) / (2.0 * h)
            if max(abs(fd), abs(grad[i])) < 1e-8:
                continue
            denom = max(abs(fd), abs(grad[i]), 1e-5)
            worst = max(worst, abs(fd - grad[i]) / denom)
        entries.append(GradCheckEntry(name, group_fn(name), worst, len(idx)))
    return GradCheckReport(entries, tolerance)


def micro_prepared_sample(vocab_size: int = 24) -> PreparedSample:
    """Hand-built tiny sample exercising every stream."""
    return PreparedSample(
        sample_id="micro",
        context_ids=[5, 7, 8, 4, 9, 10],
        target_ids=[7, 11, 2],
        emotion_index=1,
        cause_ids=[9, 10],
        relation_ids=[[5, 7], [5, 8], [5, 9], [5, 10], [5, 11]],
        analysis_ids=[5, 8, 11],
    )


def grad_check(
    config: TrainConfig | None = None,
    tolerance: float = 1e-4,
    h: float = 1e-5,
    max_entries_per_param: int = 12,
    preps: list[PreparedSample] | None = None,
) -> GradCheckReport:
    """Analytic vs central-difference gradients on a micro model (d=8, one
    layer, tiny vocab) through the full joint loss of ``preps`` as one
    padded batch (default: the one micro sample)."""
    config = config or TrainConfig(
        seed=3, d=8, layers=1, heads=2, ffn_mult=2, dropout=0.0, num_emotions=5, ablation="full"
    )
    vocab_size = 24
    plan = PLANS[config.ablation]
    preps = preps or [micro_prepared_sample(vocab_size)]
    model = config.build_model(vocab_size)
    params = model.named_parameters()

    def loss_value() -> float:
        with no_grad():  # the probes need no tape
            fwd = model.forward_batch(preps, plan)
        return float(fwd.nll_sum.data.sum() / fwd.token_count + fwd.emo_nll.data.sum())

    model.zero_grad()
    fwd = model.forward_batch(preps, plan)
    loss = fwd.nll_sum.sum() * (1.0 / fwd.token_count) + fwd.emo_nll.sum()
    loss.backward()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    def group_fn(name: str) -> str:
        prefix = name.split(".")[0]
        return {
            "context_encoder": "encoder",
            "relation_encoder": "encoder",
            "fusion": "fusion",
            "decoder": "decoder",
            "classifier": "emotion",
        }.get(prefix, prefix)

    return check_gradients(
        loss_value, params, analytic, h, tolerance, max_entries_per_param, group_fn
    )
