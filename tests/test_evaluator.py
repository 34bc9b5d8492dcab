"""Tests for evaluation: micro-averaged P/R/F1, confusion matrix, bootstrap."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relcnn.evaluator import (
    bootstrap_ci,
    confusion,
    evaluate,
    format_confusion,
    format_report,
)
from relcnn.relations import (
    NEGATIVE_TYPES,
    POSITIVE_TYPES,
    RELATION_TYPES,
    Category,
    RelationType,
)

from conftest import micro_from_confusion

T = RelationType
labels = st.sampled_from(RELATION_TYPES)


def _brute_micro(gold, pred):
    """Second-route oracle: count tp/fp/fn by direct pair scans (percent)."""
    tp = sum(1 for g, p in zip(gold, pred) if g == p and g in POSITIVE_TYPES)
    fp = sum(1 for g, p in zip(gold, pred) if p in POSITIVE_TYPES and g != p)
    fn = sum(1 for g, p in zip(gold, pred) if g in POSITIVE_TYPES and g != p)
    prec = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    rec = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f1


def test_perfect_predictions():
    gold = [T.TRIP, T.TERP, T.PIP, T.NPP]
    rep = evaluate(gold, list(gold))
    assert (rep.micro.p, rep.micro.r, rep.micro.f1) == (100.0, 100.0, 100.0)
    assert rep.n == 4


def test_half_recall_full_precision():
    # one positive right, one positive missed to a negative: P=100, R=50
    gold = [T.TRAP, T.TERP]
    pred = [T.TRAP, T.NTEP]
    rep = evaluate(gold, pred)
    assert rep.micro.p == pytest.approx(100.0)
    assert rep.micro.r == pytest.approx(50.0)
    assert rep.micro.f1 == pytest.approx(200 / 3, abs=0.05)


def test_all_negative_predictions_score_zero():
    gold = [T.TRIP, T.TERP, T.PIP]
    pred = [T.NTRP, T.NTEP, T.NPP]
    rep = evaluate(gold, pred)
    assert (rep.micro.p, rep.micro.r, rep.micro.f1) == (0.0, 0.0, 0.0)


def test_negative_only_instances_do_not_enter_micro():
    gold = [T.NTRP, T.NPP, T.TRIP]
    pred = [T.NTRP, T.NPP, T.TRIP]
    rep = evaluate(gold, pred)
    assert rep.micro.f1 == 100.0
    # dropping the correct negatives changes nothing in the pooled counts
    rep2 = evaluate([T.TRIP], [T.TRIP])
    assert (rep.micro.p, rep.micro.r) == (rep2.micro.p, rep2.micro.r)


def test_per_type_scores_hand_case():
    gold = [T.TERP, T.TERP, T.TECP, T.NTEP]
    pred = [T.TERP, T.TECP, T.TECP, T.TERP]
    rep = evaluate(gold, pred)
    terp = rep.per_type[T.TERP]
    assert (terp.tp, terp.fp, terp.fn, terp.support) == (1, 1, 1, 2)
    assert terp.p == pytest.approx(50.0)
    assert terp.r == pytest.approx(50.0)
    tecp = rep.per_type[T.TECP]
    assert (tecp.tp, tecp.fp, tecp.fn) == (1, 1, 0)
    assert tecp.p == pytest.approx(50.0)
    assert tecp.r == pytest.approx(100.0)
    assert tecp.f1 == pytest.approx(200 / 3, abs=0.05)


def test_category_micro_pools_only_that_category():
    gold = [T.TERP, T.TECP, T.TRIP]
    pred = [T.TERP, T.NTEP, T.NTRP]
    rep = evaluate(gold, pred)
    tep = rep.category_micro[Category.TEP]
    assert tep.p == pytest.approx(100.0)       # 1 tp, 0 fp within TeP
    assert tep.r == pytest.approx(50.0)        # missed TeCP
    trp = rep.category_micro[Category.TRP]
    assert (trp.p, trp.r, trp.f1) == (0.0, 0.0, 0.0)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        evaluate([T.TRIP], [T.TRIP, T.TERP])
    with pytest.raises(ValueError):
        evaluate([], [])


@given(st.lists(labels, min_size=1, max_size=60), st.integers(0, 10 ** 6))
def test_confusion_marginals(gold, seed):
    rng = np.random.default_rng(seed)
    pred = [RELATION_TYPES[int(i)] for i in rng.integers(0, 11, size=len(gold))]
    conf = confusion(gold, pred)
    assert conf.shape == (11, 11)
    assert conf.sum() == len(gold)
    for i, t in enumerate(RELATION_TYPES):
        assert conf[i].sum() == sum(1 for g in gold if g == t)
        assert conf[:, i].sum() == sum(1 for p in pred if p == t)


@given(st.lists(labels, min_size=1, max_size=60), st.integers(0, 10 ** 6))
def test_micro_from_confusion_matches_evaluate_and_brute_force(gold, seed):
    rng = np.random.default_rng(seed)
    pred = [RELATION_TYPES[int(i)] for i in rng.integers(0, 11, size=len(gold))]
    rep = evaluate(gold, pred)
    from_conf = micro_from_confusion(confusion(gold, pred))
    assert from_conf.p == pytest.approx(rep.micro.p, abs=1e-9)
    assert from_conf.r == pytest.approx(rep.micro.r, abs=1e-9)
    assert from_conf.f1 == pytest.approx(rep.micro.f1, abs=1e-9)
    bp, br, bf = _brute_micro(gold, pred)
    assert rep.micro.p == pytest.approx(bp, abs=1e-9)
    assert rep.micro.r == pytest.approx(br, abs=1e-9)
    assert rep.micro.f1 == pytest.approx(bf, abs=1e-9)


@given(st.lists(labels, min_size=1, max_size=40))
def test_per_type_counts_are_consistent(gold):
    pred = list(reversed(gold))
    rep = evaluate(gold, pred)
    for t, sc in rep.per_type.items():
        assert sc.tp + sc.fn == sc.support
        assert sc.support == sum(1 for g in gold if g == t)
    # pooled counters equal the sum of positive-type counters
    tp = sum(rep.per_type[t].tp for t in POSITIVE_TYPES)
    fp = sum(rep.per_type[t].fp for t in POSITIVE_TYPES)
    if tp + fp:
        assert rep.micro.p == pytest.approx(100.0 * tp / (tp + fp))


def test_report_to_dict_round_trippable():
    gold = [T.TERP, T.TRIP, T.NPP]
    pred = [T.TERP, T.TRCP, T.PIP]
    d = evaluate(gold, pred, ).to_dict()
    import json

    payload = json.dumps(d, indent=2)
    assert '"micro"' in payload
    assert d["n"] == 3
    assert d["confusion"][6][6] == 1
    assert set(d["per_type"]) == {t.value for t in RELATION_TYPES}


# ---------------------------------------------------------------------------
# Bootstrap confidence intervals
# ---------------------------------------------------------------------------


def test_bootstrap_degenerate_perfect_predictions():
    gold = [T.TERP] * 30
    ci = bootstrap_ci(gold, list(gold), resamples=200, seed=0)
    lo, hi = ci["micro_f1"]
    assert lo == hi == 100.0


def test_bootstrap_deterministic_and_ordered():
    rng = np.random.default_rng(0)
    gold = [RELATION_TYPES[int(i)] for i in rng.integers(0, 11, size=40)]
    pred = [RELATION_TYPES[int(i)] for i in rng.integers(0, 11, size=40)]
    a = bootstrap_ci(gold, pred, resamples=150, seed=5)
    b = bootstrap_ci(gold, pred, resamples=150, seed=5)
    assert a == b
    c = bootstrap_ci(gold, pred, resamples=150, seed=6)
    assert a != c
    for lo, hi in a.values():
        assert lo <= hi


def test_bootstrap_rejects_too_few_resamples():
    with pytest.raises(ValueError):
        bootstrap_ci([T.TERP], [T.TERP], resamples=99, seed=0)


def test_bootstrap_interval_covers_point_estimate_typically():
    rng = np.random.default_rng(3)
    gold = [RELATION_TYPES[int(i) % 11] for i in rng.integers(0, 11, size=120)]
    pred = [g if rng.random() < 0.7 else RELATION_TYPES[int(rng.integers(0, 11))]
            for g in gold]
    point = evaluate(gold, pred).micro.f1
    lo, hi = bootstrap_ci(gold, pred, resamples=400, seed=0)["micro_f1"]
    assert lo <= point <= hi


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def test_format_confusion_blanks_zeros():
    gold = [T.TERP, T.TRIP]
    pred = [T.TERP, T.TERP]
    text = format_confusion(confusion(gold, pred))
    assert "TeRP" in text
    row_for_trip = next(line for line in text.splitlines() if line.startswith("TrIP"))
    assert "0" not in row_for_trip.replace("TrIP", "")


def test_format_report_mentions_each_positive_type_and_micro():
    rng = np.random.default_rng(1)
    gold = [RELATION_TYPES[int(i)] for i in rng.integers(0, 11, size=30)]
    pred = [RELATION_TYPES[int(i)] for i in rng.integers(0, 11, size=30)]
    text = format_report(evaluate(gold, pred))
    for t in POSITIVE_TYPES:
        assert t.value in text
    assert "micro" in text.lower()
