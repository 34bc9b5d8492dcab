"""Metric computation: per-type P/R/F1, micro-F1, confusion, bootstrap CIs.

The headline metric is micro-averaged F1 over the 8 positive relation
types: TP/FP/FN are pooled across those types, negatives contribute only
through false positives/negatives of positive types.  All scores are
percentages; zero denominators score 0 by convention.  A positive-gold
instance predicted as a different positive type counts as one FP (for
the predicted type) plus one FN (for the gold type), the standard micro
treatment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .relations import (
    CATEGORY_TYPES,
    CLASS_INDEX,
    Category,
    N_CLASSES,
    POSITIVE_TYPES,
    RELATION_TYPES,
    RelationType,
    is_positive,
)

# Positive types within each category, in canonical class order.
CATEGORY_POSITIVE_TYPES: dict[Category, tuple[RelationType, ...]] = {
    cat: tuple(t for t in types if is_positive(t)) for cat, types in CATEGORY_TYPES.items()
}


@dataclass(frozen=True)
class Micro:
    """Pooled precision/recall/F1 in percent."""

    p: float
    r: float
    f1: float


@dataclass(frozen=True)
class TypeScore:
    tp: int
    fp: int
    fn: int
    support: int  # gold count
    p: float
    r: float
    f1: float


@dataclass
class EvalReport:
    n: int
    per_type: dict[RelationType, TypeScore]
    micro: Micro
    category_micro: dict[Category, Micro]
    confusion: np.ndarray  # (11, 11) int64, rows gold, cols predicted
    ci: dict[str, tuple[float, float]] | None = field(default=None)

    def to_dict(self) -> dict:
        out: dict = {
            "n": self.n,
            "per_type": {
                t.value: vars(s) for t, s in self.per_type.items()
            },
            "micro": vars(self.micro),
            "category_micro": {c.value: vars(m) for c, m in self.category_micro.items()},
            "confusion": self.confusion.tolist(),
        }
        if self.ci is not None:
            out["ci"] = {k: list(v) for k, v in self.ci.items()}
        return out


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    r = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def _micro(scores: dict[RelationType, TypeScore], types: Sequence[RelationType]) -> Micro:
    tp = sum(scores[t].tp for t in types)
    fp = sum(scores[t].fp for t in types)
    fn = sum(scores[t].fn for t in types)
    return Micro(*_prf(tp, fp, fn))


def _check_aligned(gold: Sequence[RelationType], pred: Sequence[RelationType]) -> None:
    if len(gold) != len(pred):
        raise ValueError(f"gold/pred length mismatch: {len(gold)} vs {len(pred)}")
    if not gold:
        raise ValueError("nothing to evaluate: empty gold/pred sequences")


def confusion(
    gold: Sequence[RelationType], pred: Sequence[RelationType]
) -> np.ndarray:
    """11x11 count matrix: entry (i, j) = #(gold type i predicted as type j)."""
    _check_aligned(gold, pred)
    conf = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for g, p in zip(gold, pred):
        conf[CLASS_INDEX[g], CLASS_INDEX[p]] += 1
    return conf


def evaluate(
    gold: Sequence[RelationType], pred: Sequence[RelationType]
) -> EvalReport:
    """Score aligned gold/predicted label sequences.

    Per type t: TP = #(gold=t and pred=t), FP = #(gold!=t and pred=t),
    FN = #(gold=t and pred!=t).  The micro block pools the 8 positive
    types; category blocks pool the positive types of one category.
    """
    _check_aligned(gold, pred)
    conf = confusion(gold, pred)
    per_type: dict[RelationType, TypeScore] = {}
    for t in RELATION_TYPES:
        i = CLASS_INDEX[t]
        tp = int(conf[i, i])
        fp = int(conf[:, i].sum() - conf[i, i])
        fn = int(conf[i, :].sum() - conf[i, i])
        support = int(conf[i, :].sum())
        per_type[t] = TypeScore(tp, fp, fn, support, *_prf(tp, fp, fn))
    return EvalReport(
        n=len(gold),
        per_type=per_type,
        micro=_micro(per_type, POSITIVE_TYPES),
        category_micro={
            cat: _micro(per_type, types) for cat, types in CATEGORY_POSITIVE_TYPES.items()
        },
        confusion=conf,
    )


def bootstrap_ci(
    gold: Sequence[RelationType],
    pred: Sequence[RelationType],
    resamples: int = 1000,
    seed: int = 0,
) -> dict[str, tuple[float, float]]:
    """95% percentile bootstrap intervals for micro P, R and F1.

    Instances are resampled with replacement `resamples` times; each
    resample gets its own spawned seed, so intervals are deterministic in
    (gold, pred, resamples, seed) and independent of evaluation order.
    """
    _check_aligned(gold, pred)
    if resamples < 100:
        raise ValueError(f"need at least 100 resamples, got {resamples}")
    if not gold:
        raise ValueError("cannot bootstrap an empty sample")
    n = len(gold)
    gold = list(gold)
    pred = list(pred)
    stats = np.empty((resamples, 3))
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(resamples)):
        idx = np.random.default_rng(child).integers(0, n, size=n)
        m = evaluate([gold[j] for j in idx], [pred[j] for j in idx]).micro
        stats[i] = (m.p, m.r, m.f1)
    out: dict[str, tuple[float, float]] = {}
    for col, name in enumerate(("micro_p", "micro_r", "micro_f1")):
        lo, hi = np.percentile(stats[:, col], [2.5, 97.5])
        out[name] = (float(lo), float(hi))
    return out


# ---------------------------------------------------------------------------
# Human-readable rendering (percentages, one decimal)
# ---------------------------------------------------------------------------


def format_confusion(conf: np.ndarray) -> str:
    """Confusion matrix table; zero cells print blank."""
    names = [t.value for t in RELATION_TYPES]
    width = max(len(n) for n in names) + 1
    head = " " * width + "".join(f"{n:>{width}}" for n in names)
    lines = [head]
    for i, name in enumerate(names):
        cells = "".join(
            f"{int(v) if v else '':>{width}}" for v in conf[i]
        )
        lines.append(f"{name:<{width}}" + cells)
    return "\n".join(lines)


def format_report(report: EvalReport) -> str:
    lines = [f"instances: {report.n}", ""]
    lines.append(f"{'type':<8}{'P':>8}{'R':>8}{'F1':>8}{'support':>10}")
    for t in RELATION_TYPES:
        s = report.per_type[t]
        lines.append(
            f"{t.value:<8}{s.p:>8.1f}{s.r:>8.1f}{s.f1:>8.1f}{s.support:>10d}"
        )
    lines.append("")
    for cat in Category:
        m = report.category_micro[cat]
        lines.append(f"{cat.value:<8}{m.p:>8.1f}{m.r:>8.1f}{m.f1:>8.1f}")
    m = report.micro
    lines.append(f"{'micro':<8}{m.p:>8.1f}{m.r:>8.1f}{m.f1:>8.1f}")
    if report.ci:
        lines.append("")
        for name, (lo, hi) in report.ci.items():
            lines.append(f"{name}: 95% CI [{lo:.1f}, {hi:.1f}]")
    lines.append("")
    lines.append(format_confusion(report.confusion))
    return "\n".join(lines)
