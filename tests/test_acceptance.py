"""Acceptance criteria for the release, one test per criterion.

Each test prints a single `[PASS]`/`[FAIL]` line (visible with `pytest -s`;
`pytest -v` additionally shows one PASSED/FAILED line per criterion through
the test names).  Criteria with a time budget assert it.

Criterion 11 exercises the licensed clinical corpus and is skipped unless
the environment variable RELCNN_I2B2_DIR points at a directory containing
`train/` and `test/` record sets in a supported annotation layout.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from relcnn.cli import main as cli_main
from relcnn.corpus import parse_document, read_instances, replace_concepts
from relcnn.encoding import (
    EncoderConfig,
    build_vocab,
    encode,
    encode_instances,
    segment_bounds,
)
from relcnn.evaluator import confusion, evaluate
from relcnn.model import (
    LOSS_CONSTRAINED,
    LOSS_SOFTMAX,
    POOL_MAX,
    POOL_MULTI,
    HyperParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    loss_classes,
    loss_from_trace,
    loss_over,
    pool,
    predict,
)
from relcnn.relations import (
    CATEGORY_CLASS_IDS,
    CATEGORY_TYPES,
    N_CLASSES,
    RELATION_TYPES,
    Category,
    RelationType,
)
from relcnn.synthgen import generate, placement_task_spec
from relcnn.trainer import TrainConfig, split_dev, train

from conftest import (
    build_instance,
    finite_diff_grad,
    grad_max_rel_err,
    micro_from_confusion,
    tokenize_normalize,
    write_raw_corpus,
)
from test_corpus import NORMALIZATION_FIXTURES

T = RelationType


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} ({name}): {detail}")
    assert ok, f"criterion {num:02d} ({name}): {detail}"


def _toy_world(n_instances: int = 5):
    """Tiny model family used by the gradient criteria: d_w=4, d_p=2, d_c=3, k=2."""
    rng = np.random.default_rng(2024)
    golds = [T.TERP, T.TRIP, T.PIP, T.TECP, T.NPP]
    originals = [build_instance(rng, golds[i % len(golds)]) for i in range(n_instances)]
    enc_cfg = EncoderConfig(max_distance=8, concept_len=3)
    vocab = build_vocab(originals, enc_cfg)
    encs = encode([replace_concepts(o) for o in originals], vocab, enc_cfg)
    return encs, vocab, enc_cfg


# ---------------------------------------------------------------------------
# 1. Analytic gradients match central finite differences.
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_check():
    started = time.monotonic()
    encs, vocab, enc_cfg = _toy_world(5)
    worst = 0.0
    for pooling in (POOL_MULTI, POOL_MAX):
        for loss in (LOSS_SOFTMAX, LOSS_CONSTRAINED):
            hp = HyperParams(d_w=4, d_p=2, d_ct=3, d_c=3, windows=(2,),
                             dropout_p=0.0, pooling=pooling, loss=loss,
                             beta=0.0005, lr=0.05)
            for i, enc in enumerate(encs):
                params = init_params(hp, vocab.n_words, vocab.n_positions,
                                     enc_cfg.concept_len,
                                     np.random.default_rng(31 * i + 7))
                analytic = backward(forward(enc, params, hp), params, hp)

                def objective(_):
                    return loss_from_trace(forward(enc, params, hp), params, hp)

                numeric = finite_diff_grad(objective, params, epsilon=1e-5)
                worst = max(worst, grad_max_rel_err(analytic, numeric, params))
    elapsed = time.monotonic() - started
    ok = worst < 1e-4 and elapsed < 10.0
    _report(1, "gradient check", ok,
            f"4 configs x 5 instances, worst rel err {worst:.3g} "
            f"(tol 1e-4), {elapsed:.1f}s (budget 10s)")


# ---------------------------------------------------------------------------
# 2. Pooling matches a brute-force oracle on 1000 cases incl. empty segments.
# ---------------------------------------------------------------------------


def test_criterion_02_pooling_vs_brute_force():
    started = time.monotonic()
    rng = np.random.default_rng(99)
    empties = {"before": 0, "between": 0, "after": 0}
    for case in range(1000):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, min(8, n) + 1))
        p1 = int(rng.integers(1, n))
        p2 = int(rng.integers(p1 + 1, n + 1))
        d_c = int(rng.integers(1, 6))
        ncols = n - k + 1
        Z = rng.normal(size=(d_c, ncols))
        bounds = segment_bounds(p1, p2, n, k)
        if bounds[0] is None:
            empties["before"] += 1
        if bounds[1] is None:
            empties["between"] += 1
        if bounds[2] is None:
            empties["after"] += 1
        pooled, arg = pool(Z.T, bounds)  # pool takes one window per row
        # independent oracle: plain python max over each segment
        expected = []
        for seg in bounds:
            if seg is None:
                expected.extend([0.0] * d_c)
                continue
            lo, hi = seg
            for f in range(d_c):
                expected.append(max(Z[f, c - 1] for c in range(lo, hi + 1)))
        assert pooled.tolist() == expected, f"case {case}: pooled mismatch"
        for i, seg in enumerate(bounds):
            if seg is None:
                assert (arg[i] == -1).all(), f"case {case}: empty segment argmax"
    elapsed = time.monotonic() - started
    ok = all(c >= 10 for c in empties.values()) and elapsed < 5.0
    _report(2, "multi-pool vs brute force", ok,
            f"1000 cases, empty segments hit before/between/after = "
            f"{empties['before']}/{empties['between']}/{empties['after']}, "
            f"{elapsed:.1f}s (budget 5s)")


# ---------------------------------------------------------------------------
# 3. Constrained training touches only the category's class rows.
# ---------------------------------------------------------------------------


def test_criterion_03_constrained_updates_masked():
    encs_pool, vocab, enc_cfg = _toy_world(1)
    hp = HyperParams(d_w=4, d_p=2, d_ct=3, d_c=3, windows=(2,), dropout_p=0.0,
                     loss=LOSS_CONSTRAINED, beta=0.0005, lr=0.05)
    rng = np.random.default_rng(7)
    checked = 0
    for cat in Category:
        for rep in range(100):
            gold_type = CATEGORY_TYPES[cat][rep % len(CATEGORY_TYPES[cat])]
            inst = build_instance(rng, gold_type)
            (enc,) = encode([replace_concepts(inst)], build_vocab([inst], enc_cfg), enc_cfg)
            params = init_params(hp, 60, vocab.n_positions, enc_cfg.concept_len,
                                 np.random.default_rng(checked))
            trace = forward(enc, params, hp)
            grads = backward(trace, params, hp)
            inactive = [i for i in range(11) if i not in CATEGORY_CLASS_IDS[cat]]
            # bitwise zero: compare the raw bit patterns, not a tolerance
            bits = grads["w_classes"].rows[inactive].view(np.uint64)
            assert bits.max() == 0, f"{cat} rep {rep}: rows outside category touched"
            checked += 1
    _report(3, "constrained gradient masking", checked == 300,
            f"{checked} instances (100 per category), all inactive rows bitwise zero")


# ---------------------------------------------------------------------------
# 4. Constrained loss on a TeP pair equals a standalone 3-class softmax CE.
# ---------------------------------------------------------------------------


def test_criterion_04_constrained_equals_standalone_softmax():
    encs, vocab, enc_cfg = _toy_world(5)
    hp = HyperParams(d_w=4, d_p=2, d_ct=3, d_c=3, windows=(2,), dropout_p=0.0,
                     loss=LOSS_CONSTRAINED, beta=0.0, lr=0.05)
    params = init_params(hp, vocab.n_words, vocab.n_positions, enc_cfg.concept_len,
                         np.random.default_rng(0))
    rng = np.random.default_rng(123)
    ids = list(CATEGORY_CLASS_IDS[Category.TEP])
    worst = 0.0
    n_checked = 0
    score_sets = [rng.normal(scale=3.0, size=11) for _ in range(50)]
    score_sets += [forward(e, params, hp).scores for e in encs if e.category == Category.TEP]
    for s in score_sets:
        for gold in ids:
            got = loss_over(s, gold, loss_classes(Category.TEP, hp), params, beta=0.0)
            # independent 3-class cross entropy, stable shift form
            sub = [float(s[i]) for i in ids]
            m = max(sub)
            want = m + math.log(sum(math.exp(v - m) for v in sub)) - float(s[gold])
            worst = max(worst, abs(got - want))
            n_checked += 1
    ok = worst <= 1e-12
    _report(4, "constrained == standalone 3-class CE", ok,
            f"{n_checked} score/gold combinations, max |diff| = {worst:.2e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# 5. Shape laws hold over the full hyperparameter grid.
# ---------------------------------------------------------------------------


def test_criterion_05_shape_laws_across_grid():
    from relcnn.trainer import GridSpec

    cells = GridSpec().cells()
    assert {"d_p": 10, "d_c": 200, "lr": 0.075, "beta": 0.0005,
            "windows": (4,)} in cells
    rng = np.random.default_rng(5)
    inst = build_instance(rng, T.TERP)
    while len(replace_concepts(inst).tokens) < 8:  # roomy enough for k=4
        inst = build_instance(rng, T.TERP)
    enc_cfg = EncoderConfig(max_distance=8, concept_len=3)
    vocab = build_vocab([inst], enc_cfg)
    (enc,) = encode([replace_concepts(inst)], vocab, enc_cfg)
    L = enc_cfg.concept_len
    n_cells = 0
    for cell in cells:
        for pooling in (POOL_MULTI, POOL_MAX):
            hp = HyperParams(d_p=cell["d_p"], d_c=cell["d_c"], lr=cell["lr"],
                             beta=cell["beta"], windows=cell["windows"],
                             pooling=pooling, dropout_p=0.0)
            assert hp.d_x == hp.d_w + 2 * hp.d_p
            d_cf = 2 * hp.d_ct + 2 * L * hp.d_w
            assert hp.d_cf(L) == d_cf
            per_window = (3 if pooling == POOL_MULTI else 1) * hp.d_c
            assert hp.pooled_per_window == per_window
            assert hp.rc_size(L) == len(hp.windows) * per_window + d_cf
            n_cells += 1
    # the laws also hold for realized tensors, checked on a sample of cells
    for cell in cells[:: len(cells) // 8]:
        for pooling in (POOL_MULTI, POOL_MAX):
            hp = HyperParams(d_p=cell["d_p"], d_c=cell["d_c"], lr=cell["lr"],
                             beta=cell["beta"], windows=cell["windows"],
                             pooling=pooling, dropout_p=0.0)
            params = init_params(hp, vocab.n_words, vocab.n_positions, L,
                                 np.random.default_rng(1))
            tr = forward(enc, params, hp)
            assert tr.rc.shape == (hp.rc_size(L),)
            assert tr.scores.shape == (N_CLASSES,)
    _report(5, "shape laws across grid", n_cells == 2 * 4 * 4 * 5 * 4,
            f"{n_cells} (cell, pooling) combinations verified, "
            "reference cell (d_p=10, d_c=200, lr=0.075, beta=0.0005) present")


# ---------------------------------------------------------------------------
# 6. The full-size model memorizes a 100-instance synthetic set.
# ---------------------------------------------------------------------------


def test_criterion_06_overfit_small_synthetic():
    started = time.monotonic()
    insts, _ = generate(placement_task_spec(sentences_per_type=50, seed=11))
    enc_cfg = EncoderConfig()  # reference settings
    vocab = build_vocab(insts, enc_cfg)
    encs = encode_instances(insts, vocab, enc_cfg)
    hp = HyperParams(dropout_p=0.0)  # reference model, dropout disabled
    cfg = TrainConfig(epochs=50, batch_size=1, seed=0)
    result = train(encs, encs[:10], hp, cfg, vocab, enc_cfg)
    best_acc = max(result.record.train_acc)
    hit_epoch = int(np.argmax(np.array(result.record.train_acc) >= 0.99))
    elapsed = time.monotonic() - started
    ok = best_acc >= 0.99 and elapsed < 60.0
    _report(6, "overfit 100 synthetic instances", ok,
            f"train acc {100 * best_acc:.1f}% (needs >= 99%), first hit at "
            f"epoch {hit_epoch}, {elapsed:.1f}s (budget 60s)")


# ---------------------------------------------------------------------------
# 7. Multi-pooling beats max-pooling on the placement task by a wide margin.
# ---------------------------------------------------------------------------


def test_criterion_07_multi_vs_max_margin():
    started = time.monotonic()
    enc_cfg = EncoderConfig(max_distance=60, concept_len=5)
    margins = []
    for seed in range(5):
        train_insts, _ = generate(placement_task_spec(
            sentences_per_type=1000, seed=seed, len_lo=40, len_hi=64))
        test_insts, _ = generate(placement_task_spec(
            sentences_per_type=250, seed=seed + 9999, len_lo=40, len_hi=64))
        vocab = build_vocab(train_insts, enc_cfg)
        train_enc = encode_instances(train_insts, vocab, enc_cfg)
        test_enc = encode_instances(test_insts, vocab, enc_cfg)
        tr, dev = split_dev(train_enc, 0.1, seed=seed)
        f1 = {}
        for pooling in (POOL_MULTI, POOL_MAX):
            hp = HyperParams(d_w=24, d_p=1, d_ct=3, d_c=24, windows=(4,),
                             dropout_p=0.0, pooling=pooling, loss=LOSS_SOFTMAX,
                             beta=0.0, lr=0.04)
            cfg = TrainConfig(epochs=3, batch_size=16, seed=seed)
            res = train(tr, dev, hp, cfg, vocab, enc_cfg)
            preds = [predict(e, res.params, hp)[0] for e in test_enc]
            gold = [e.gold for e in test_enc]
            f1[pooling] = evaluate(gold, preds).micro.f1
        margins.append(f1[POOL_MULTI] - f1[POOL_MAX])
    mean_margin = float(np.mean(margins))
    elapsed = time.monotonic() - started
    # pinned on first run: per-seed margins 54.0/50.6/50.0/49.8/50.0 (mean 50.9)
    ok = mean_margin >= 10.0 and abs(mean_margin - 50.9) <= 5.0 and elapsed < 300.0
    _report(7, "multi vs max pooling margin", ok,
            f"test micro-F1 margins per seed {[round(m, 1) for m in margins]}, "
            f"mean {mean_margin:.1f} (needs >= 10 and 50.9 +/- 5), "
            f"{elapsed:.0f}s (budget 300s)")


# ---------------------------------------------------------------------------
# 8. Evaluation metrics match hand-computed fixtures and confusion identities.
# ---------------------------------------------------------------------------

# (gold, pred, micro P, micro R, micro F1) worked out by hand, in percent
METRIC_FIXTURES = [
    ([T.TRIP, T.TERP, T.PIP, T.TRAP], [T.TRIP, T.TERP, T.PIP, T.TRAP],
     100.0, 100.0, 100.0),
    ([T.TRAP, T.TERP], [T.TRAP, T.NTEP], 100.0, 50.0, 66.7),
    ([T.TRIP, T.TERP, T.PIP], [T.NTRP, T.NTEP, T.NPP], 0.0, 0.0, 0.0),
    ([T.TERP] * 4, [T.TERP, T.TERP, T.TECP, T.NTEP], 66.7, 50.0, 57.1),
    ([T.NTRP, T.NTEP, T.NPP, T.PIP], [T.NTRP, T.NTEP, T.NPP, T.PIP],
     100.0, 100.0, 100.0),
    ([T.TRIP, T.TERP, T.PIP], [T.TERP, T.PIP, T.TRIP], 0.0, 0.0, 0.0),
    ([T.TRCP, T.TRCP, T.NTRP], [T.TRCP, T.NTRP, T.TRCP], 50.0, 50.0, 50.0),
    ([T.TECP] * 5, [T.TECP, T.TECP, T.TECP, T.TERP, T.NTEP], 75.0, 60.0, 66.7),
    ([T.PIP, T.NPP, T.PIP, T.NPP], [T.PIP, T.PIP, T.NPP, T.NPP], 50.0, 50.0, 50.0),
    ([T.TRIP, T.TRWP, T.TRCP, T.TRAP, T.TRNAP],
     [T.TRWP, T.TRWP, T.TRCP, T.TRAP, T.TRNAP], 80.0, 80.0, 80.0),
]


def test_criterion_08_metric_oracle():
    for idx, (gold, pred, p, r, f1) in enumerate(METRIC_FIXTURES):
        rep = evaluate(gold, pred)
        assert rep.micro.p == pytest.approx(p, abs=0.1), f"fixture {idx}: P"
        assert rep.micro.r == pytest.approx(r, abs=0.1), f"fixture {idx}: R"
        assert rep.micro.f1 == pytest.approx(f1, abs=0.1), f"fixture {idx}: F1"
        conf = confusion(gold, pred)
        for i, t in enumerate(RELATION_TYPES):
            assert conf[i].sum() == sum(1 for g in gold if g == t), \
                f"fixture {idx}: row sum {t.value}"
        mic = micro_from_confusion(conf)
        assert mic.f1 == pytest.approx(rep.micro.f1, abs=1e-9), \
            f"fixture {idx}: micro-from-confusion identity"
    _report(8, "metric oracle", True,
            f"{len(METRIC_FIXTURES)} hand fixtures to 0.1, row sums and "
            "confusion-derived micro identities hold")


# ---------------------------------------------------------------------------
# 9. The full pipeline is bit-reproducible end to end.
# ---------------------------------------------------------------------------


def test_criterion_09_end_to_end_determinism(tmp_path):
    raw = write_raw_corpus(tmp_path / "raw")

    def run_pipeline(out: Path) -> dict[str, bytes]:
        out.mkdir()
        assert cli_main([
            "preprocess", "--input", str(raw), "--out", str(out / "insts.jsonl"),
            "--vocab", str(out / "vocab.txt"), "--stats", str(out / "stats.json"),
            "--max-distance", "20",
        ]) == 0
        assert cli_main([
            "train", "--train", str(out / "insts.jsonl"),
            "--vocab", str(out / "vocab.txt"),
            "--checkpoint", str(out / "model.npz"),
            "--metrics", str(out / "metrics.json"),
            "--d-w", "8", "--d-p", "2", "--d-ct", "2", "--d-c", "6",
            "--dropout", "0.25", "--lr", "0.05", "--epochs", "3", "--seed", "0",
            "--concept-len", "3",  # the radius, 20, comes from the vocabulary
        ]) == 0
        assert cli_main([
            "predict", "--checkpoint", str(out / "model.npz"),
            "--vocab", str(out / "vocab.txt"),
            "--input", str(out / "insts.jsonl"), "--out", str(out / "preds.jsonl"),
        ]) == 0
        assert cli_main([
            "eval", "--gold", str(out / "insts.jsonl"),
            "--pred", str(out / "preds.jsonl"), "--out", str(out / "report.json"),
            "--bootstrap", "150", "--seed", "1",
        ]) == 0
        return {
            name: (out / name).read_bytes()
            for name in ("insts.jsonl", "vocab.txt", "stats.json", "model.npz",
                         "metrics.json", "preds.jsonl", "report.json")
        }

    a = run_pipeline(tmp_path / "a")
    b = run_pipeline(tmp_path / "b")
    encoder = load_checkpoint(tmp_path / "a" / "model.npz").encoder
    assert (encoder.max_distance, encoder.concept_len) == (20, 3)
    diffs = [name for name in a if a[name] != b[name]]
    _report(9, "end-to-end bit determinism", not diffs,
            "two preprocess->train->predict->eval runs, "
            + ("all 7 artifacts byte-identical" if not diffs
               else f"differing artifacts: {diffs}"))


# ---------------------------------------------------------------------------
# 10. Concept replacement positions and normalization fixtures.
# ---------------------------------------------------------------------------


def test_criterion_10_replacement_and_normalization():
    text = ("She was treated with steroids for this swelling at the outside "
            "hospital , and these were continued .\n")
    con = ('c="steroids" 1:4 1:4||t="treatment"\n'
           'c="this swelling" 1:6 1:7||t="problem"\n')
    rel = 'c="steroids" 1:4 1:4||r="TrIP"||c="this swelling" 1:6 1:7\n'
    doc = parse_document("doc", text, con, rel, "doc.con", "doc.rel")
    rep = replace_concepts(doc.positives[0])
    assert (rep.p1, rep.p2) == (5, 7), f"got placeholders at {(rep.p1, rep.p2)}"
    assert len(rep.tokens) == 17
    assert rep.tokens[4] == "__treatment__" and rep.tokens[6] == "__problem__"
    assert segment_bounds(rep.p1, rep.p2, len(rep.tokens), 4) == \
        [(1, 4), (5, 6), (7, 14)]

    assert len(NORMALIZATION_FIXTURES) == 20
    for raw, expected in NORMALIZATION_FIXTURES:
        assert tokenize_normalize(raw) == expected, f"normalization of {raw!r}"
    _report(10, "replacement + normalization", True,
            "placeholder positions (5, 7) over 17 tokens and 20 "
            "normalization fixtures verified")


# ---------------------------------------------------------------------------
# 11. Optional: licensed clinical corpus reproduction band (informational).
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    "RELCNN_I2B2_DIR" not in os.environ,
    reason="licensed corpus not mounted (set RELCNN_I2B2_DIR to run)",
)
def test_criterion_11_licensed_corpus_band(tmp_path):
    root = Path(os.environ["RELCNN_I2B2_DIR"])
    out = tmp_path / "real"
    out.mkdir()
    assert cli_main([
        "preprocess", "--input", str(root / "train"),
        "--out", str(out / "train.jsonl"), "--vocab", str(out / "vocab.txt"),
    ]) == 0
    assert cli_main([
        "preprocess", "--input", str(root / "test"),
        "--out", str(out / "test.jsonl"),
    ]) == 0
    assert cli_main([
        "train", "--train", str(out / "train.jsonl"),
        "--vocab", str(out / "vocab.txt"),
        "--checkpoint", str(out / "model.npz"), "--seed", "0",
    ]) == 0
    assert cli_main([
        "predict", "--checkpoint", str(out / "model.npz"),
        "--vocab", str(out / "vocab.txt"), "--input", str(out / "test.jsonl"),
        "--out", str(out / "preds.jsonl"),
    ]) == 0
    gold = [i.gold for i in read_instances(out / "test.jsonl")]
    pred_lines = (out / "preds.jsonl").read_text().splitlines()
    pred = [RelationType(json.loads(l)["pred"]) for l in pred_lines]
    f1 = evaluate(gold, pred).micro.f1
    # the reference reproduction band is 65-72 micro-F1; informational only
    in_band = 65.0 <= f1 <= 72.0
    _report(11, "licensed corpus band", f1 > 0.0,
            f"test micro-F1 {f1:.1f} ({'inside' if in_band else 'outside'} "
            "the informational 65-72 band)")
