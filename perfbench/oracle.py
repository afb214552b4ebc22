"""Independent recomputations the benchmark checks the program against.

The model forward is written from the method's definition in plain numpy
and reads nothing from the program but its parameter arrays, by name.
The metric oracles follow the metric definitions with loops and dicts.
None of this shares code with the ``empgen`` package.
"""

from __future__ import annotations

import math
import re

import numpy as np

LN_EPS = 1e-5
RESERVED = 6  # <pad> <bos> <eos> <unk> <sep> <cls> hold ids 0-5
BOS, EOS = 1, 2
_WORD = re.compile(r"[a-z0-9']+")


def positions(length: int, d: int) -> np.ndarray:
    pe = np.zeros((length, d))
    for i in range(d):
        rate = 10000.0 ** ((2 * (i // 2)) / d)
        pe[:, i] = np.sin(np.arange(length) / rate) if i % 2 == 0 else np.cos(np.arange(length) / rate)
    return pe


def layer_norm(x, gain, bias):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


def softmax_rows(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_rows(s):
    z = s - s.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class ModelOracle:
    """Eval-mode forward of the full configuration from raw arrays."""

    def __init__(self, params: dict[str, np.ndarray], heads: int):
        self.p = params
        self.heads = heads
        self.d = params["fusion.w_q"].shape[0]
        self.layers = 1 + max(
            int(k.split(".")[2]) for k in params if k.startswith("decoder.layers.")
        )
        self.pos = positions(512, self.d)
        # When a list, every FFN call appends which of its ReLU inputs were positive.
        self.relu_signs: list[np.ndarray] | None = None

    @classmethod
    def of(cls, model, heads: int) -> "ModelOracle":
        return cls({k: t.data for k, t in model.named_parameters().items()}, heads)

    def _attention(self, prefix, xq, xkv, causal):
        p, h = self.p, self.heads
        dh = self.d // h
        q = xq @ p[prefix + "wq.weight"] + p[prefix + "wq.bias"]
        k = xkv @ p[prefix + "wk.weight"]
        v = xkv @ p[prefix + "wv.weight"] + p[prefix + "wv.bias"]
        out = np.zeros((xq.shape[0], self.d))
        for j in range(h):
            cols = slice(j * dh, (j + 1) * dh)
            s = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
            if causal:
                s = np.where(np.tri(*s.shape, dtype=bool), s, -np.inf)
            out[:, cols] = softmax_rows(s) @ v[:, cols]
        return out @ p[prefix + "wo.weight"] + p[prefix + "wo.bias"]

    def _ffn(self, prefix, x):
        p = self.p
        pre = x @ p[prefix + "lin1.weight"] + p[prefix + "lin1.bias"]
        if self.relu_signs is not None:
            self.relu_signs.append(pre > 0)
        return np.maximum(pre, 0.0) @ p[prefix + "lin2.weight"] + p[prefix + "lin2.bias"]

    def encode(self, stack: str, ids) -> np.ndarray:
        p = self.p
        x = p[stack + ".token_embedding"][np.asarray(ids)] + self.pos[: len(ids)]
        for i in range(self.layers):
            pre = f"{stack}.layers.{i}."
            x = layer_norm(x + self._attention(pre + "attn.", x, x, False), p[pre + "ln1.gain"], p[pre + "ln1.bias"])
            x = layer_norm(x + self._ffn(pre + "ffn.", x), p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        return x

    def streams(self, prep):
        """Fused context, stacked relations and analysis for the full config."""
        p = self.p
        ctx = self.encode("context_encoder", prep.context_ids)
        cause = self.encode("context_encoder", prep.cause_ids)
        q = ctx @ p["fusion.w_q"].T
        k = cause @ p["fusion.w_k"].T
        v = cause @ p["fusion.w_v"].T
        fused = softmax_rows(q @ k.T / math.sqrt(2.0 * self.d)) @ v
        knowledge = np.concatenate([self.encode("relation_encoder", r) for r in prep.relation_ids])
        analysis = self.encode("context_encoder", prep.analysis_ids)
        return fused, knowledge, analysis

    def memory(self, streams) -> np.ndarray:
        seg = self.p["decoder.segment_embedding"]
        return np.concatenate([rows + seg[i] for i, rows in enumerate(streams)])

    def decoder_log_probs(self, input_ids, memory) -> np.ndarray:
        """Log-probabilities over the vocabulary at every input position."""
        p = self.p
        table = p.get("decoder.token_embedding", p["context_encoder.token_embedding"])
        x = table[np.asarray(input_ids)] + self.pos[: len(input_ids)]
        for i in range(self.layers):
            pre = f"decoder.layers.{i}."
            x = layer_norm(x + self._attention(pre + "self_attn.", x, x, True), p[pre + "ln1.gain"], p[pre + "ln1.bias"])
            x = layer_norm(x + self._attention(pre + "cross_attn.", x, memory, False), p[pre + "ln2.gain"], p[pre + "ln2.bias"])
            x = layer_norm(x + self._ffn(pre + "ffn.", x), p[pre + "ln3.gain"], p[pre + "ln3.bias"])
        return log_softmax_rows(x @ p["decoder.out_proj.weight"] + p["decoder.out_proj.bias"])

    def emotion_probs(self, streams) -> np.ndarray:
        fused, knowledge, analysis = streams
        feature = np.concatenate([fused[0], analysis[0], knowledge.mean(axis=0)])
        logits = feature @ self.p["classifier.weight"] + self.p.get("classifier.bias", 0.0)
        return softmax_rows(logits[None, :])[0]

    def sample_losses(self, prep) -> tuple[np.ndarray, float]:
        """Teacher-forced per-token NLL and the emotion NLL of one sample."""
        streams = self.streams(prep)
        targets = list(prep.target_ids)
        lp = self.decoder_log_probs([BOS] + targets[:-1], self.memory(streams))
        per_token = -lp[np.arange(len(targets)), targets]
        emo = -math.log(self.emotion_probs(streams)[prep.emotion_index])
        return per_token, emo


def check_decoded(oracle: ModelOracle, prep, ids, log_probs, max_len, tol=1e-9, greedy=False):
    """Problems with one generated reply, judged by independent recomputation.

    Every per-token log-prob must match; a greedy token must be the argmax
    of its step (a tie within ``tol`` counts as an argmax). The reply ends
    at its first <eos> or runs to ``max_len``.
    """
    problems = []
    if not ids:
        return ["empty reply"]
    if EOS in ids[:-1]:
        problems.append("tokens follow <eos>")
    if ids[-1] != EOS and len(ids) != max_len:
        problems.append(f"reply of {len(ids)} tokens neither ends in <eos> nor reaches {max_len}")
    if len(log_probs) != len(ids):
        return problems + [f"{len(log_probs)} log-probs for {len(ids)} tokens"]
    lp = oracle.decoder_log_probs([BOS] + list(ids[:-1]), oracle.memory(oracle.streams(prep)))
    for t, tok in enumerate(ids):
        if abs(lp[t, tok] - log_probs[t]) > tol:
            problems.append(f"step {t}: log-prob {log_probs[t]!r} vs oracle {lp[t, tok]!r}")
            break
        if greedy and lp[t].max() - lp[t, tok] > tol:
            problems.append(f"step {t}: token {tok} is not the argmax {int(lp[t].argmax())}")
            break
    return problems


# ----------------------------------------------------------------------
# metric oracles (corpus BLEU with epsilon smoothing, sentence ROUGE F1,
# corpus Dist-n, accuracy, perplexity)


def words(text: str) -> list[str]:
    return _WORD.findall(text.lower())


def ngram_counts(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i : i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def bleu(hyps, refs, max_n, epsilon=1e-9):
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    if hyp_len == 0:
        return 0.0
    log_total = 0.0
    for n in range(1, max_n + 1):
        clipped = produced = 0
        for hyp, ref in zip(hyps, refs):
            rc = ngram_counts(ref, n)
            for gram, count in ngram_counts(hyp, n).items():
                produced += count
                clipped += min(count, rc.get(gram, 0))
        log_total += math.log(clipped / produced if produced and clipped else epsilon)
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_total / max_n)


def rouge_f1(hyp, ref, n):
    if len(ref) < n:
        return 0.0
    hc, rc = ngram_counts(hyp, n), ngram_counts(ref, n)
    h_total, r_total = sum(hc.values()), sum(rc.values())
    if h_total == 0 or r_total == 0:
        return 0.0
    overlap = sum(min(c, rc.get(g, 0)) for g, c in hc.items())
    prec, rec = overlap / h_total, overlap / r_total
    return 0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec)


def dist(hyps, n):
    grams = [tuple(h[i : i + n]) for h in hyps for i in range(len(h) - n + 1)]
    return len(set(grams)) / len(grams)


def accuracy(predicted, gold):
    return sum(1 for p, g in zip(predicted, gold) if p == g) / len(gold)


def perplexity(per_token_nll):
    values = list(per_token_nll)
    return math.exp(sum(values) / len(values))
