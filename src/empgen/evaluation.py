"""Automatic evaluation: perplexity, corpus-level BLEU, sentence-level
ROUGE, distinct-n, and emotion accuracy, plus report emission.

All metrics run over word-level tokenizer tokens, so the absolute values
are not comparable to subword-based published numbers. Scores are stored
as fractions in [0, 1]; the text table renders them x100.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import DialogueSample, Vocab, tokenize
from .decoder import DEFAULT_BEAM_SIZE, check_search
from .model import PLANS, EmpathyModel, Providers, prepare_samples
from .training import TrainConfig
from .util import write_file

BLEU_EPSILON = 1e-9

METRIC_COLUMNS = ["PPL", "B-1", "B-2", "B-3", "B-4", "R-1", "R-2", "Dist-1", "Dist-2", "Acc"]


class MetricError(ValueError):
    pass


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def perplexity(per_token_nll) -> float:
    """exp of the mean per-token negative log-likelihood over the corpus."""
    values = np.asarray(list(per_token_nll), dtype=np.float64)
    if values.size == 0:
        raise MetricError("perplexity needs at least one token")
    return float(np.exp(values.mean()))


def bleu_n(
    hypotheses: list[list[str]],
    references: list[list[str]],
    max_n: int = 4,
) -> float:
    """Corpus-level BLEU: clipped n-gram precision with brevity penalty,
    geometric mean over orders 1..max_n, zero counts smoothed to
    ``BLEU_EPSILON``."""
    if len(hypotheses) != len(references):
        raise MetricError("hypothesis/reference count mismatch")
    if not 1 <= max_n <= 4:
        raise MetricError("max_n must be in 1..4")
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        matches = 0
        total = 0
        for hyp, ref in zip(hypotheses, references):
            hc = _ngrams(hyp, n)
            rc = _ngrams(ref, n)
            matches += sum(min(c, rc[g]) for g, c in hc.items())
            total += sum(hc.values())
        p = matches / total if total > 0 and matches > 0 else BLEU_EPSILON
        log_sum += math.log(p)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum / max_n)


def rouge_n(hypothesis: list[str], reference: list[str], n: int) -> float:
    """Sentence-level n-gram F1 with clipped overlap."""
    if n not in (1, 2):
        raise MetricError("rouge order must be 1 or 2")
    hc = _ngrams(hypothesis, n)
    rc = _ngrams(reference, n)
    h_total = sum(hc.values())
    r_total = sum(rc.values())
    if h_total == 0 or r_total == 0:
        return 0.0
    overlap = sum(min(c, rc[g]) for g, c in hc.items())
    precision = overlap / h_total
    recall = overlap / r_total
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rouge_n_corpus(hypotheses: list[list[str]], references: list[list[str]], n: int) -> tuple[float, int]:
    """Mean sentence-level score; empty references score 0 and are counted."""
    if len(hypotheses) != len(references):
        raise MetricError("hypothesis/reference count mismatch")
    scores = []
    warnings = 0
    for hyp, ref in zip(hypotheses, references):
        if len(ref) < n:
            warnings += 1
            scores.append(0.0)
            continue
        scores.append(rouge_n(hyp, ref, n))
    return float(np.mean(scores)), warnings


def dist_n(hypotheses: list[list[str]], n: int) -> float:
    """Distinct n-grams over total n-grams across the whole corpus."""
    if not hypotheses:
        raise MetricError("empty corpus")
    seen: set[tuple[str, ...]] = set()
    total = 0
    for hyp in hypotheses:
        for i in range(len(hyp) - n + 1):
            seen.add(tuple(hyp[i : i + n]))
            total += 1
    if total == 0:
        raise MetricError(f"no hypothesis holds an n-gram of order {n}")
    return len(seen) / total


def accuracy(predicted: list[int], gold: list[int]) -> float:
    if len(predicted) != len(gold):
        raise MetricError("prediction/gold length mismatch")
    if not gold:
        raise MetricError("empty label lists")
    return sum(int(p == g) for p, g in zip(predicted, gold)) / len(gold)


@dataclass
class MetricReport:
    ppl: float
    bleu: list[float]  # orders 1..4, fractions
    rouge1: float
    rouge2: float
    dist1: float
    dist2: float
    acc: float
    sample_count: int
    config_fingerprint: str
    empty_reference_warnings: int = 0
    row_label: str = ""
    generations: list[dict] = field(default_factory=list, repr=False)

    def to_dict(self, include_generations: bool = False) -> dict:
        out = asdict(self)
        if not include_generations:
            del out["generations"]
        return out

    def row_values(self) -> list[float]:
        """Values in table column order; similarity scores scaled x100."""
        return [
            self.ppl,
            *[b * 100.0 for b in self.bleu],
            self.rouge1 * 100.0,
            self.rouge2 * 100.0,
            self.dist1 * 100.0,
            self.dist2 * 100.0,
            self.acc * 100.0,
        ]


def format_table(reports: list[MetricReport]) -> str:
    header = ["Model"] + METRIC_COLUMNS
    rows = []
    for r in reports:
        rows.append([r.row_label or "-"] + [f"{v:.2f}" for v in r.row_values()])
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def evaluate(
    model: EmpathyModel,
    config: TrainConfig,
    samples: list[DialogueSample],
    vocab: Vocab,
    providers: Providers,
    strategy: str = "greedy",
    beam_size: int = DEFAULT_BEAM_SIZE,
    row_label: str = "",
) -> MetricReport:
    """Generate, score, and classify the given split.

    The sample list may not be empty and ``check_search`` must allow the
    search. Required providers, and every sample's sequence lengths, are
    checked against the checkpoint's ablation plan and positions before
    any work starts.
    """
    if not samples:
        raise ValueError("evaluate needs samples, got an empty sample list")
    check_search(model.decoder, strategy, beam_size, config.max_gen_len)
    plan = PLANS[config.ablation]
    prepared = prepare_samples(
        samples, vocab, providers, plan, config.max_context_len, config.max_analysis_len
    )
    model.check_lengths(prepared, plan)
    replies = model.respond(prepared, plan, vocab, strategy, beam_size, config.max_gen_len)
    hyps = [vocab.tokens_of(reply.response.ids) for reply in replies]
    refs = [tokenize(sample.gold_response) for sample in samples]
    predicted = [int(np.argmax(reply.emotion_probs)) for reply in replies]
    gold = [prep.emotion_index for prep in prepared]
    generations = [
        {
            "id": sample.id,
            "response": reply.response.text,
            "reference": sample.gold_response,
            "predicted_emotion": label,
            "gold_emotion": prep.emotion_index,
        }
        for sample, prep, reply, label in zip(samples, prepared, replies, predicted)
    ]
    rouge1, warn1 = rouge_n_corpus(hyps, refs, 1)
    rouge2, warn2 = rouge_n_corpus(hyps, refs, 2)
    return MetricReport(
        ppl=perplexity(nll for reply in replies for nll in reply.per_token_nll),
        bleu=[bleu_n(hyps, refs, n) for n in (1, 2, 3, 4)],
        rouge1=rouge1,
        rouge2=rouge2,
        dist1=dist_n(hyps, 1),
        dist2=dist_n(hyps, 2),
        acc=accuracy(predicted, gold),
        sample_count=len(samples),
        config_fingerprint=config.fingerprint(),
        empty_reference_warnings=warn1 + warn2,
        row_label=row_label,
        generations=generations,
    )


def write_report(report: MetricReport, out_dir: str | Path) -> Path:
    json_path = Path(out_dir) / "report.json"
    write_file(json_path, json.dumps(report.to_dict(include_generations=True), indent=2, ensure_ascii=False) + "\n")
    write_file(json_path.with_name("report.txt"), format_table([report]) + "\n")
    return json_path
