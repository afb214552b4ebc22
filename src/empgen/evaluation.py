"""Automatic evaluation: perplexity, corpus-level BLEU, sentence-level
ROUGE, distinct-n, and emotion accuracy, plus report emission.

All metrics run over word-level tokenizer tokens, so the absolute values
are not comparable to subword-based published numbers. Scores are stored
as fractions in [0, 1]; the text table renders them x100.
"""

from __future__ import annotations

import json
import math
from collections import Counter, namedtuple
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


# A hypothesis–reference pair's counts at one n-gram order, all that the similarity metrics read: the
# hypothesis n-grams the reference holds, clipped to its counts, each side's total and the hypothesis n-grams.
NGramCounts = namedtuple("NGramCounts", "matches hyp_total ref_total hyp_grams")


def ngram_counts(hypothesis: list[str], reference: list[str], n: int) -> NGramCounts:
    hc, rc = (Counter(zip(*[tokens[i:] for i in range(n)])) for tokens in (hypothesis, reference))
    return NGramCounts(sum(min(c, rc[g]) for g, c in hc.items() if g in rc), sum(hc.values()), sum(rc.values()), hc)


def perplexity(per_token_nll) -> float:
    """exp of the mean per-token negative log-likelihood over the corpus."""
    values = np.asarray(list(per_token_nll), dtype=np.float64)
    if values.size == 0:
        raise MetricError("perplexity needs at least one token")
    return float(np.exp(values.mean()))


def _bleu(orders: list[list[NGramCounts]]) -> float:
    """Corpus BLEU over orders 1..len(``orders``), from each order's pair counts."""
    hyp_len, ref_len = sum(c.hyp_total for c in orders[0]), sum(c.ref_total for c in orders[0])
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for pairs in orders:
        matches = sum(c.matches for c in pairs)
        total = sum(c.hyp_total for c in pairs)
        p = matches / total if total > 0 and matches > 0 else BLEU_EPSILON
        log_sum += math.log(p)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum / len(orders))


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
    return _bleu(_counts(hypotheses, references, range(1, max_n + 1)))


def _rouge(c: NGramCounts) -> float:
    if c.hyp_total == 0 or c.ref_total == 0:
        return 0.0
    precision = c.matches / c.hyp_total
    recall = c.matches / c.ref_total
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rouge_n(hypothesis: list[str], reference: list[str], n: int) -> float:
    """Sentence-level n-gram F1 with clipped overlap."""
    if n not in (1, 2):
        raise MetricError("rouge order must be 1 or 2")
    return _rouge(ngram_counts(hypothesis, reference, n))


def _rouge_mean(pairs: list[NGramCounts]) -> tuple[float, int]:
    """Mean sentence-level score; a reference with no n-gram of the order scores 0 and is counted."""
    return float(np.mean([_rouge(c) for c in pairs])), sum(c.ref_total == 0 for c in pairs)


def rouge_n_corpus(hypotheses: list[list[str]], references: list[list[str]], n: int) -> tuple[float, int]:
    """Mean sentence-level score; empty references score 0 and are counted."""
    (pairs,) = _counts(hypotheses, references, [n])
    if not pairs:
        raise MetricError("empty corpus")
    if n not in (1, 2) and any(len(r) >= n for r in references):
        raise MetricError("rouge order must be 1 or 2")
    return _rouge_mean(pairs)


def _dist(pairs: list[NGramCounts]) -> float:
    """Distinct over total hypothesis n-grams; 0.0 where there are none."""
    total = sum(c.hyp_total for c in pairs)
    return len(set().union(*(c.hyp_grams for c in pairs))) / total if total else 0.0


def dist_n(hypotheses: list[list[str]], n: int) -> float:
    """Distinct n-grams over total n-grams across the whole corpus."""
    if not hypotheses:
        raise MetricError("empty corpus")
    if all(len(h) < n for h in hypotheses):
        raise MetricError(f"no hypothesis holds an n-gram of order {n}")
    return _dist([ngram_counts(h, [], n) for h in hypotheses])


def _counts(hypotheses: list[list[str]], references: list[list[str]], orders) -> list[list[NGramCounts]]:
    """Each pair's counts at each of ``orders``, each order counted once."""
    if len(hypotheses) != len(references):
        raise MetricError("hypothesis/reference count mismatch")
    return [[ngram_counts(h, r, n) for h, r in zip(hypotheses, references)] for n in orders]


def text_metrics(hypotheses: list[list[str]], references: list[list[str]]) -> dict:
    """BLEU-1..4, ROUGE-1/2, Dist-1/2 and the empty-reference warnings of a
    corpus, from one count of each order per pair. Dist-n reads 0.0 where no
    hypothesis reaches the order: such a corpus holds no distinct n-grams."""
    orders = _counts(hypotheses, references, (1, 2, 3, 4))
    (rouge1, warn1), (rouge2, warn2) = _rouge_mean(orders[0]), _rouge_mean(orders[1])
    return dict(
        bleu=[_bleu(orders[:n]) for n in (1, 2, 3, 4)], rouge1=rouge1, rouge2=rouge2,
        dist1=_dist(orders[0]), dist2=_dist(orders[1]), empty_reference_warnings=warn1 + warn2,
    )


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
    return MetricReport(
        ppl=perplexity(nll for reply in replies for nll in reply.per_token_nll),
        **text_metrics(hyps, refs),
        acc=accuracy(predicted, gold),
        sample_count=len(samples),
        config_fingerprint=config.fingerprint(),
        row_label=row_label,
        generations=generations,
    )


def write_report(report: MetricReport, out_dir: str | Path) -> Path:
    json_path = Path(out_dir) / "report.json"
    write_file(json_path, json.dumps(report.to_dict(include_generations=True), indent=2, ensure_ascii=False) + "\n")
    write_file(json_path.with_name("report.txt"), format_table([report]) + "\n")
    return json_path
