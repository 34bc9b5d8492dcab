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

_POSITIVE_IDS = np.array([CLASS_INDEX[t] for t in POSITIVE_TYPES])
# Positive class ids within each category, in canonical class order.
_CATEGORY_IDS = {
    cat: np.array([CLASS_INDEX[t] for t in types if is_positive(t)])
    for cat, types in CATEGORY_TYPES.items()
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


def _prf(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision, recall and F1 in percent, elementwise over integer count arrays.

    The float operations are those of scoring one (tp, fp, fn) triple at a
    time, so each element is bit-identical to it; a zero denominator scores 0.
    """
    with np.errstate(invalid="ignore"):  # 0/0 where a denominator is 0
        p = np.where(tp + fp > 0, 100.0 * tp / (tp + fp), 0.0)
        r = np.where(tp + fn > 0, 100.0 * tp / (tp + fn), 0.0)
        f1 = np.where(p + r > 0, 2.0 * p * r / (p + r), 0.0)
    return p, r, f1


def _counts(conf: np.ndarray) -> np.ndarray:
    """TP, FP and FN of every class in each confusion matrix of `conf` (shape
    (..., 11, 11)), shape (3, ..., 11): the diagonal, and the column and row
    sums less it.  Summed over some classes, they are those classes' pooled
    counts."""
    tp = np.diagonal(conf, axis1=-2, axis2=-1)
    return np.stack([tp, conf.sum(axis=-2) - tp, conf.sum(axis=-1) - tp])


def _codes(gold: Sequence[RelationType], pred: Sequence[RelationType]) -> np.ndarray:
    """One int per instance: gold class * 11 + predicted class."""
    if len(gold) != len(pred):
        raise ValueError(f"gold/pred length mismatch: {len(gold)} vs {len(pred)}")
    if len(gold) == 0:
        raise ValueError("nothing to evaluate: empty gold/pred sequences")
    return np.array([CLASS_INDEX[g] * N_CLASSES + CLASS_INDEX[p] for g, p in zip(gold, pred)])


def _confusion(codes: np.ndarray) -> np.ndarray:
    return np.bincount(codes, minlength=N_CLASSES * N_CLASSES).reshape(N_CLASSES, N_CLASSES)


def confusion(
    gold: Sequence[RelationType], pred: Sequence[RelationType]
) -> np.ndarray:
    """11x11 count matrix: entry (i, j) = #(gold type i predicted as type j)."""
    return _confusion(_codes(gold, pred))


def evaluate(
    gold: Sequence[RelationType], pred: Sequence[RelationType]
) -> EvalReport:
    """Score aligned gold/predicted label sequences.

    Per type t: TP = #(gold=t and pred=t), FP = #(gold!=t and pred=t),
    FN = #(gold=t and pred!=t).  The micro block pools the 8 positive
    types; category blocks pool the positive types of one category.
    """
    conf = confusion(gold, pred)
    # The 11 types' counts, then the positive types' and each category's
    # pooled counts: 15 columns, scored in one pass.
    per_class = _counts(conf)
    pools = (_POSITIVE_IDS, *_CATEGORY_IDS.values())
    counts = np.column_stack([per_class, *(per_class[:, ids].sum(axis=1) for ids in pools)])
    scores = np.column_stack(_prf(*counts)).tolist()
    tp, fp, fn = counts.tolist()
    return EvalReport(
        n=len(gold),
        per_type={
            t: TypeScore(tp[i], fp[i], fn[i], tp[i] + fn[i], *scores[i])
            for i, t in enumerate(RELATION_TYPES)
        },
        micro=Micro(*scores[N_CLASSES]),
        category_micro={cat: Micro(*s) for cat, s in zip(_CATEGORY_IDS, scores[N_CLASSES + 1 :])},
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
    Each resample is counted into its own confusion matrix as it is drawn,
    so memory holds one resample's indices, not all of them, and the micro
    scores of all the matrices come from one vectorized pass.
    """
    codes = _codes(gold, pred)
    if resamples < 100:
        raise ValueError(f"need at least 100 resamples, got {resamples}")
    n = len(codes)
    conf = np.empty((resamples, N_CLASSES, N_CLASSES), dtype=np.int64)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(resamples)):
        conf[i] = _confusion(codes[np.random.default_rng(child).integers(0, n, size=n)])
    tp, fp, fn = _counts(conf)[..., _POSITIVE_IDS].sum(axis=-1)
    stats = np.column_stack(_prf(tp, fp, fn))
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
