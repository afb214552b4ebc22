"""Independent brute-force oracles the tests compare the package against.

Everything here is written straight from the metric/layer definitions
with plain loops and dicts, deliberately sharing no code with the
package implementations. The one exception is the gradient check at the
end: it compares the package's own analytic gradients against central
differences of the package's own loss.
"""

import math
from dataclasses import dataclass

import numpy as np

from empgen.autodiff import Tensor, no_grad
from empgen.model import PLANS, PreparedSample
from empgen.training import TrainConfig


def ngram_counts(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i : i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def bleu_oracle(hypotheses, references, max_n, epsilon=1e-9):
    hyp_len = 0
    ref_len = 0
    for h in hypotheses:
        hyp_len += len(h)
    for r in references:
        ref_len += len(r)
    if hyp_len == 0:
        return 0.0
    log_total = 0.0
    for n in range(1, max_n + 1):
        clipped = 0
        produced = 0
        for hyp, ref in zip(hypotheses, references):
            hc = ngram_counts(hyp, n)
            rc = ngram_counts(ref, n)
            for gram, count in hc.items():
                produced += count
                allowed = rc.get(gram, 0)
                clipped += count if count <= allowed else allowed
        precision = clipped / produced if produced > 0 and clipped > 0 else epsilon
        log_total += math.log(precision)
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_total / max_n)


def rouge_f1_oracle(hypothesis, reference, n):
    hc = ngram_counts(hypothesis, n)
    rc = ngram_counts(reference, n)
    h_total = sum(hc.values())
    r_total = sum(rc.values())
    if h_total == 0 or r_total == 0:
        return 0.0
    overlap = 0
    for gram, count in hc.items():
        overlap += min(count, rc.get(gram, 0))
    p = overlap / h_total
    r = overlap / r_total
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def dist_oracle(hypotheses, n):
    all_grams = []
    for hyp in hypotheses:
        for i in range(len(hyp) - n + 1):
            all_grams.append(tuple(hyp[i : i + n]))
    return len(set(all_grams)) / len(all_grams)


def ppl_oracle(per_token_nll):
    values = list(per_token_nll)
    return math.exp(sum(values) / len(values))


def accuracy_oracle(predicted, gold):
    hits = 0
    for p, g in zip(predicted, gold):
        if p == g:
            hits += 1
    return hits / len(gold)


def softmax_oracle(vector):
    m = max(vector)
    exps = [math.exp(v - m) for v in vector]
    z = sum(exps)
    return [e / z for e in exps]


def layernorm_oracle(x, gain, bias, eps=1e-5):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        out[i] = (row - mu) / math.sqrt(var + eps) * gain + bias
    return out


def attention_oracle(x_q, x_kv, p, heads, mask=None):
    """Multi-head attention from raw parameter arrays, head by head."""
    d = x_q.shape[1]
    dh = d // heads
    q = x_q @ p["wq.weight"] + p["wq.bias"]
    k = x_kv @ p["wk.weight"]
    v = x_kv @ p["wv.weight"] + p["wv.bias"]
    merged = np.zeros((x_q.shape[0], d))
    for h in range(heads):
        qs = q[:, h * dh : (h + 1) * dh]
        ks = k[:, h * dh : (h + 1) * dh]
        vs = v[:, h * dh : (h + 1) * dh]
        scores = qs @ ks.T / math.sqrt(dh)
        if mask is not None:
            scores = scores + mask
        for i in range(scores.shape[0]):
            scores[i] = softmax_oracle(scores[i])
        merged[:, h * dh : (h + 1) * dh] = scores @ vs
    return merged @ p["wo.weight"] + p["wo.bias"]


def encoder_forward_oracle(stack, ids):
    """Step-by-step replay of the encoder stack from its raw arrays."""
    params = {name: t.data for name, t in stack.parameters().items()}
    x = params["token_embedding"][np.asarray(ids)] + stack.positions[: len(ids)]
    for li in range(len(stack.layers)):
        prefix = f"layers.{li}."
        p = {k[len(prefix) + len("attn.") :]: v for k, v in params.items() if k.startswith(prefix + "attn.")}
        heads = stack.layers[li].attn.heads
        attn_out = attention_oracle(x, x, p, heads)
        x = layernorm_oracle(
            x + attn_out, params[prefix + "ln1.gain"], params[prefix + "ln1.bias"]
        )
        hidden = np.maximum(0.0, x @ params[prefix + "ffn.lin1.weight"] + params[prefix + "ffn.lin1.bias"])
        ffn_out = hidden @ params[prefix + "ffn.lin2.weight"] + params[prefix + "ffn.lin2.bias"]
        x = layernorm_oracle(
            x + ffn_out, params[prefix + "ln2.gain"], params[prefix + "ln2.bias"]
        )
    return x


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
        weights = softmax_oracle(scores)
        for c in range(d):
            out[i][c] = sum(weights[j] * v[j][c] for j in range(ld))
    return out


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


def decoder_log_probs_oracle(stack, input_ids, memory_values, segment_ids):
    """Full-prefix replay of the decoder stack from its raw arrays:
    log-probabilities over the vocabulary at every input position."""
    params = {name: t.data for name, t in stack.parameters().items()}
    heads = stack.layers[0].self_attn.heads
    m = len(input_ids)

    def norm(x, prefix):
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * params[prefix + ".gain"] + params[prefix + ".bias"]

    def attend(prefix, x_q, x_kv, visible):
        d = x_q.shape[1]
        dh = d // heads
        q = x_q @ params[prefix + ".wq.weight"] + params[prefix + ".wq.bias"]
        k = x_kv @ params[prefix + ".wk.weight"]
        v = x_kv @ params[prefix + ".wv.weight"] + params[prefix + ".wv.bias"]
        merged = np.zeros((x_q.shape[0], d))
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            scores = np.where(visible, q[:, cols] @ k[:, cols].T / math.sqrt(dh), -np.inf)
            weights = np.exp(scores - scores.max(axis=1, keepdims=True))
            merged[:, cols] = (weights / weights.sum(axis=1, keepdims=True)) @ v[:, cols]
        return merged @ params[prefix + ".wo.weight"] + params[prefix + ".wo.bias"]

    x = params["token_embedding"][np.asarray(input_ids)] + stack.positions[:m]
    memory = memory_values + params["segment_embedding"][np.asarray(segment_ids)]
    causal = np.tri(m, dtype=bool)
    for li in range(len(stack.layers)):
        pre = f"layers.{li}."
        x = norm(x + attend(pre + "self_attn", x, x, causal), pre + "ln1")
        x = norm(x + attend(pre + "cross_attn", x, memory, True), pre + "ln2")
        hidden = np.maximum(0.0, x @ params[pre + "ffn.lin1.weight"] + params[pre + "ffn.lin1.bias"])
        x = norm(x + hidden @ params[pre + "ffn.lin2.weight"] + params[pre + "ffn.lin2.bias"], pre + "ln3")
    logits = x @ params["out_proj.weight"] + params["out_proj.bias"]
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


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


def sample_losses_oracle(model, prep, plan):
    """Per-token NLL and emotion NLL of one sample under an ablation plan,
    replayed stream by stream from the model's raw arrays."""
    d = model.d
    context = encoder_forward_oracle(model.context_encoder, prep.context_ids)
    if plan.use_fusion:
        cause = encoder_forward_oracle(model.context_encoder, prep.cause_ids)
        q = context @ model.fusion.w_q.data.T
        k = cause @ model.fusion.w_k.data.T
        v = cause @ model.fusion.w_v.data.T
        scores = q @ k.T / math.sqrt(2.0 * d)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        context = (weights / weights.sum(axis=1, keepdims=True)) @ v
    rows, segments = [context], [np.zeros(len(context), dtype=int)]
    knowledge = analysis = None
    if plan.use_knowledge:
        knowledge = np.concatenate(
            [encoder_forward_oracle(model.relation_encoder, ids) for ids in prep.relation_ids]
        )
        rows.append(knowledge)
        segments.append(np.ones(len(knowledge), dtype=int))
    if plan.use_analysis:
        analysis = encoder_forward_oracle(model.context_encoder, prep.analysis_ids)
        rows.append(analysis)
        segments.append(np.full(len(analysis), 2))
    targets = list(prep.target_ids)
    lp = decoder_log_probs_oracle(
        model.decoder, [1] + targets[:-1], np.concatenate(rows), np.concatenate(segments)
    )
    per_token = -lp[np.arange(len(targets)), targets]
    feature = np.concatenate(
        [
            context[0],
            analysis[0] if analysis is not None else np.zeros(d),
            knowledge.mean(axis=0) if knowledge is not None else np.zeros(d),
        ]
    )
    logits = feature @ model.classifier.weight.data + model.classifier.bias.data
    z = logits - logits.max()
    emo = -(z[prep.emotion_index] - math.log(np.exp(z).sum()))
    return per_token, emo


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
