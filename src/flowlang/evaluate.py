"""Detection-quality metrics over labeled scored sequences.

Anomaly scores are oriented so that higher = more anomalous. The ROC
sweep classifies an example as flagged when anomaly_score >= threshold;
ties share one step so the trapezoidal AUC equals the Mann-Whitney
statistic with ties counted half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable

from .errors import DataError
from .flows import Label
from .pst import Score

ZERO_POLICIES = ("exclude_zero", "zero_most_anomalous")
RANKINGS = ("logloss", "likelihood")
DEFAULT_PRECISION_NS = (10, 50, 100)


@dataclass(frozen=True, slots=True)
class ScoredExample:
    id: str
    anomaly_score: float
    label: Label
    zero_likelihood: bool = False

    def __post_init__(self):
        # NaN compares false both ways, so it would sort anywhere and turn
        # every rank statistic into a plausible but wrong number.
        if math.isnan(self.anomaly_score):
            raise ValueError(f"NaN anomaly score for {self.id!r}")


@dataclass(frozen=True, slots=True)
class RocPoint:
    fpr: float
    tpr: float
    threshold: float


@dataclass(frozen=True, slots=True)
class Histogram:
    """Equal-width bins over finite scores; non-finite scores (the
    zero_most_anomalous policy emits +inf) land in the overflow pair."""

    edges: tuple[float, ...]
    normal_counts: tuple[int, ...]
    attack_counts: tuple[int, ...]
    overflow_normal: int = 0
    overflow_attack: int = 0


@dataclass(frozen=True)
class EvalReport:
    auc: float
    roc: tuple[RocPoint, ...]
    precision_at: dict[int, float]
    histogram: Histogram
    n_attack: int
    n_normal: int
    n_zero_likelihood: int


def make_scored(
    scores: Iterable[tuple[str, Score, Label]],
    policy: str = "exclude_zero",
    rank: str = "logloss",
) -> list[ScoredExample]:
    """Turn (id, Score, label) triples into ranked, binary-labeled examples.

    Unlabeled entries are always dropped. Zero-likelihood entries are
    dropped under exclude_zero, or given a +inf anomaly score (strictly
    above every finite score) under zero_most_anomalous. rank selects the
    score orientation: per-symbol log loss (default) or negated raw
    likelihood.
    """
    if policy not in ZERO_POLICIES:
        raise ValueError(f"unknown zero policy: {policy!r}")
    if rank not in RANKINGS:
        raise ValueError(f"unknown ranking: {rank!r}")
    examples: list[ScoredExample] = []
    for seq_id, score, label in scores:
        if label is Label.UNLABELED:
            continue
        if score.zero_likelihood:
            if policy == "exclude_zero":
                continue
            value = math.inf
        elif rank == "logloss":
            value = score.per_symbol_log_loss
        else:
            value = -score.likelihood
        examples.append(ScoredExample(
            id=seq_id, anomaly_score=value, label=label,
            zero_likelihood=score.zero_likelihood,
        ))
    return examples


def roc_curve(examples: list[ScoredExample]) -> list[RocPoint]:
    """Threshold sweep over distinct scores, descending, ties grouped.

    Raises DataError unless both classes are present.
    """
    n_attack = sum(1 for e in examples if e.label is Label.ATTACK)
    n_normal = len(examples) - n_attack
    if n_attack == 0 or n_normal == 0:
        raise DataError(
            f"ROC needs both classes, got {n_attack} attack / {n_normal} normal")

    points = [RocPoint(0.0, 0.0, math.inf)]
    tp = fp = 0
    ranked = sorted(examples, key=lambda e: e.anomaly_score, reverse=True)
    for value, group in groupby(ranked, key=lambda e: e.anomaly_score):
        for e in group:
            if e.label is Label.ATTACK:
                tp += 1
            else:
                fp += 1
        points.append(RocPoint(fp / n_normal, tp / n_attack, value))
    return points


def auc(roc: list[RocPoint]) -> float:
    """Trapezoidal area under the curve; validates curve shape first."""
    if len(roc) < 2 or (roc[0].fpr, roc[0].tpr) != (0.0, 0.0) \
            or (roc[-1].fpr, roc[-1].tpr) != (1.0, 1.0):
        raise ValueError("malformed ROC curve")
    area = 0.0
    for prev, cur in zip(roc, roc[1:]):
        if cur.fpr < prev.fpr or cur.tpr < prev.tpr:
            raise ValueError("ROC points are not monotone")
        area += (cur.fpr - prev.fpr) * (prev.tpr + cur.tpr) / 2.0
    return area


def precision_at_n(examples: list[ScoredExample], n: int) -> float:
    """Fraction of attacks among the n most anomalous examples (ties
    broken by id ascending)."""
    if not 1 <= n <= len(examples):
        raise DataError(f"n must be in [1, {len(examples)}], got {n}")
    ranked = sorted(examples, key=lambda e: (-e.anomaly_score, e.id))
    hits = sum(1 for e in ranked[:n] if e.label is Label.ATTACK)
    return hits / n


def histogram(examples: list[ScoredExample], n_bins: int) -> Histogram:
    """Per-label counts over n_bins equal-width bins spanning the finite
    scores; the final bin is closed on the right."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    finite = [e.anomaly_score for e in examples if math.isfinite(e.anomaly_score)]
    lo, hi = (min(finite), max(finite)) if finite else (0.0, 1.0)
    if lo == hi:
        hi = lo + 1.0
    width = (hi - lo) / n_bins
    if 0.0 < width < math.inf:
        edges = [lo + i * width for i in range(n_bins)] + [hi]

        def offset(x: float) -> float:
            return (x - lo) / width
    else:
        # A span too narrow for a float width (it underflows, or lo + 1.0
        # rounds back to lo) or too wide (it overflows) is split in exact
        # arithmetic; a zero span puts every score in the first bin.
        exact_lo = Fraction(lo)
        step = (Fraction(hi) - exact_lo) / n_bins
        edges = [float(exact_lo + i * step) for i in range(n_bins)] + [hi]

        def offset(x: float) -> Fraction:
            return (Fraction(x) - exact_lo) / (step or 1)

    normal = [0] * n_bins
    attack = [0] * n_bins
    overflow_normal = overflow_attack = 0
    for e in examples:
        counts = attack if e.label is Label.ATTACK else normal
        if not math.isfinite(e.anomaly_score):
            if e.label is Label.ATTACK:
                overflow_attack += 1
            else:
                overflow_normal += 1
            continue
        idx = min(int(offset(e.anomaly_score)), n_bins - 1)
        counts[max(idx, 0)] += 1
    return Histogram(
        edges=tuple(edges),
        normal_counts=tuple(normal),
        attack_counts=tuple(attack),
        overflow_normal=overflow_normal,
        overflow_attack=overflow_attack,
    )


def evaluate(
    scores: Iterable[tuple[str, Score, Label]],
    policy: str = "exclude_zero",
    rank: str = "logloss",
    n_bins: int = 20,
    precision_ns: Iterable[int] = DEFAULT_PRECISION_NS,
) -> EvalReport:
    """Full evaluation: ROC, AUC, precision-at-n, histogram, counts.

    n_zero_likelihood counts zero-likelihood entries among all labeled
    inputs, whatever the policy; requested precision depths that exceed
    the evaluated example count are skipped.
    """
    triples = list(scores)
    n_zero = sum(
        1 for _, s, label in triples
        if label is not Label.UNLABELED and s.zero_likelihood)
    examples = make_scored(triples, policy=policy, rank=rank)
    roc = roc_curve(examples)
    n_attack = sum(1 for e in examples if e.label is Label.ATTACK)
    precision = {
        n: precision_at_n(examples, n)
        for n in sorted(set(precision_ns))
        if 1 <= n <= len(examples)
    }
    return EvalReport(
        auc=auc(roc),
        roc=tuple(roc),
        precision_at=precision,
        histogram=histogram(examples, n_bins),
        n_attack=n_attack,
        n_normal=len(examples) - n_attack,
        n_zero_likelihood=n_zero,
    )
