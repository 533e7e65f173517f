"""Span-level scoring (exact-match micro P/R/F1), multi-run aggregation,
and report formatting.

A predicted span counts as a true positive only when a gold span with the
same (type, start, end) exists; division by zero yields 0, matching the
reference CoNLL scorer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import Dataset, check_aligned


@dataclass(frozen=True)
class PRF:
    tp: int
    predicted: int
    gold: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, predicted: int, gold: int) -> "PRF":
        p = tp / predicted if predicted else 0.0
        r = tp / gold if gold else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return cls(tp, predicted, gold, p, r, f1)


@dataclass(frozen=True)
class RunMetrics:
    per_class: dict[str, PRF]
    overall: PRF


def span_prf(gold: Dataset, pred: Dataset) -> RunMetrics:
    """Micro-averaged exact-match span scores, overall and per class."""
    check_aligned(gold, pred)
    classes = gold.tag_set.entity_types
    tp = {c: 0 for c in classes}
    n_pred = {c: 0 for c in classes}
    n_gold = {c: 0 for c in classes}
    for g, p in zip(gold.sentences, pred.sentences):
        g_set = {(s.label, s.start, s.end) for s in g.spans}
        p_set = {(s.label, s.start, s.end) for s in p.spans}
        for label, _, _ in g_set & p_set:
            tp[label] += 1
        for label, _, _ in g_set:
            n_gold[label] += 1
        for label, _, _ in p_set:
            n_pred[label] += 1
    per_class = {
        c: PRF.from_counts(tp[c], n_pred[c], n_gold[c]) for c in classes
    }
    overall = PRF.from_counts(
        sum(tp.values()), sum(n_pred.values()), sum(n_gold.values())
    )
    return RunMetrics(per_class, overall)


def mean_and_se(values: list[float]) -> tuple[float, float]:
    """Arithmetic mean and standard error (sample sd over sqrt(n); 0 for a
    single value)."""
    if not values:
        raise ValueError("need at least one value")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


METRIC_NAMES = ("precision", "recall", "f1")


def metrics_columns(tag_set) -> list[str]:
    cols = []
    for cls in ("overall",) + tuple(tag_set.entity_types):
        for m in METRIC_NAMES:
            cols.append(f"{cls}_{m}")
    return cols


def metrics_row(metrics: RunMetrics, tag_set) -> dict[str, str]:
    """Full-precision CSV cells for one run."""
    row = {}
    for m in METRIC_NAMES:
        row[f"overall_{m}"] = repr(getattr(metrics.overall, m))
    for cls in tag_set.entity_types:
        for m in METRIC_NAMES:
            row[f"{cls}_{m}"] = repr(getattr(metrics.per_class[cls], m))
    return row


def format_report(metrics: RunMetrics, title: str = "") -> str:
    """Plain-text table with integer percentages, overall row first."""
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'Class':<10} {'P':>4} {'R':>4} {'F1':>4}  {'TP':>6} {'Pred':>6} {'Gold':>6}")
    rows = [("Overall", metrics.overall)]
    rows += [(c, prf) for c, prf in metrics.per_class.items()]
    for name, prf in rows:
        lines.append(
            f"{name:<10} {round(prf.precision * 100):>4} "
            f"{round(prf.recall * 100):>4} {round(prf.f1 * 100):>4}  "
            f"{prf.tp:>6} {prf.predicted:>6} {prf.gold:>6}"
        )
    return "\n".join(lines)
