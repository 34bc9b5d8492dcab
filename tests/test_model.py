"""Tests for the network: embedding, convolution, pooling, losses, gradients."""

from __future__ import annotations

import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcnn.corpus import Concept, RelationInstance, replace_concepts
from relcnn.encoding import EncoderConfig, encode, segment_bounds
from relcnn.model import (
    CHECKPOINT_FORMAT,
    LOSS_CONSTRAINED,
    LOSS_SOFTMAX,
    POOL_MAX,
    POOL_MULTI,
    PREDICT_CHUNK,
    HyperParams,
    RowGrad,
    StaleTraceError,
    _row_sums,
    _sum_rows,
    apply_sgd,
    backward,
    concept_features,
    convolve,
    embed_sentence,
    forward,
    init_params,
    load_checkpoint,
    loss_classes,
    loss_from_trace,
    loss_over,
    pool,
    predict,
    predict_batch,
    save_checkpoint,
    score_chunk,
)
from relcnn.numeric import finite_diff_grad, log_sum_exp
from relcnn.relations import (
    CATEGORY_CLASS_IDS,
    CLASS_INDEX,
    N_CLASSES,
    RELATION_TYPES,
    Category,
    ConceptType,
    RelationType,
)

from conftest import (
    TOY_ENC,
    build_instance,
    densify,
    encoded_instance,
    grad_max_rel_err,
    rewrite_checkpoint_meta,
    shared_vocab,
    toy_hp,
    toy_params,
)

VOCAB = shared_vocab(TOY_ENC)


def _setup(seed=0, gold=RelationType.TERP, **hp_overrides):
    hp = toy_hp(**hp_overrides)
    params = toy_params(hp, VOCAB, TOY_ENC, seed=seed)
    enc = encoded_instance(np.random.default_rng(seed), gold, VOCAB, TOY_ENC)
    return hp, params, enc


# ---------------------------------------------------------------------------
# Hyper-parameters and shapes
# ---------------------------------------------------------------------------


class TestHyperParams:
    def test_derived_sizes_published_defaults(self):
        hp = HyperParams()
        assert (hp.d_w, hp.d_p, hp.d_c) == (50, 10, 200)
        assert hp.d_x == 50 + 2 * 10
        assert hp.pooled_per_window == 3 * 200
        assert hp.d_cf(5) == 2 * 5 + 2 * 5 * 50
        assert hp.rc_size(5) == 3 * 200 + 510

    def test_max_pooling_sizes(self):
        hp = HyperParams(pooling=POOL_MAX)
        assert hp.n_segments == 1
        assert hp.pooled_per_window == 200
        assert hp.rc_size(5) == 200 + 510

    def test_multi_window_sizes(self):
        hp = HyperParams(windows=(3, 4, 5))
        assert hp.pooled_size == 3 * (3 * 200)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(d_w=0),
            dict(d_p=-1),
            dict(windows=()),
            dict(windows=(0,)),
            dict(dropout_p=1.0),
            dict(dropout_p=-0.1),
            dict(pooling="average"),
            dict(loss="hinge"),
            dict(beta=-1e-9),
            dict(lr=0.0),
        ],
    )
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            toy_hp(**bad)


def test_init_params_shapes_and_determinism():
    hp = toy_hp(windows=(2, 3))
    a = toy_params(hp, VOCAB, TOY_ENC, seed=4)
    b = toy_params(hp, VOCAB, TOY_ENC, seed=4)
    assert a.w_word.shape == (VOCAB.n_words, hp.d_w)
    assert a.w_pos.shape == (VOCAB.n_positions, hp.d_p)
    assert a.w_ctype.shape == (len(ConceptType), hp.d_ct)
    assert [w.shape for w in a.w_conv] == [(hp.d_c, hp.d_x * 2), (hp.d_c, hp.d_x * 3)]
    assert all((bv == 0).all() for bv in a.b_conv)  # biases start at zero
    assert a.w_classes.shape == (N_CLASSES, hp.rc_size(TOY_ENC.concept_len))
    for k, arr in a.arrays().items():
        np.testing.assert_array_equal(arr, b.arrays()[k], err_msg=k)


# ---------------------------------------------------------------------------
# Embedding and convolution
# ---------------------------------------------------------------------------


def test_embed_sentence_column_layout():
    """Column c of X stacks the k consecutive per-token vectors from c."""
    hp, params, enc = _setup(seed=2)
    k = hp.windows[0]
    X = embed_sentence(enc, params, k)
    n = enc.n_tokens
    assert X.shape == (hp.d_x * k, n - k + 1)
    for c in range(n - k + 1):
        col = []
        for o in range(k):
            t = c + o
            col.extend(params.w_word[enc.token_ids[t]])
            col.extend(params.w_pos[enc.pos1_ids[t]])
            col.extend(params.w_pos[enc.pos2_ids[t]])
        np.testing.assert_allclose(X[:, c], col, atol=0)


def test_convolve_matches_loop_oracle():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(6, 5))
    w = rng.normal(size=(3, 6))
    b = rng.normal(size=3)
    Z = convolve(X, w, b)
    assert Z.shape == (3, 5)
    for f in range(3):
        for c in range(5):
            pre = b[f] + sum(w[f, t] * X[t, c] for t in range(6))
            assert Z[f, c] == pytest.approx(max(pre, 0.0), abs=1e-12)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def _pool_oracle(Z, bounds):
    """Plain-python per-segment max, written independently of the library."""
    d_c, _ = Z.shape
    out = []
    for seg in bounds:
        if seg is None:
            out.extend([0.0] * d_c)
            continue
        lo, hi = seg
        for f in range(d_c):
            out.append(max(Z[f, c - 1] for c in range(lo, hi + 1)))
    return np.array(out)


@given(st.integers(0, 10 ** 6))
def test_pool_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 16))
    k = int(rng.integers(2, min(5, n) + 1))
    p1 = int(rng.integers(1, n))
    p2 = int(rng.integers(p1 + 1, n + 1))
    Z = rng.normal(size=(4, n - k + 1))
    bounds = segment_bounds(p1, p2, n, k)
    pooled, arg = pool(Z, bounds)
    np.testing.assert_allclose(pooled, _pool_oracle(Z, bounds), atol=0)
    # argmax routing: the recorded column reproduces the pooled value
    for i, seg in enumerate(bounds):
        if seg is None:
            assert (arg[i] == -1).all()
            np.testing.assert_array_equal(pooled[i * 4 : (i + 1) * 4], 0.0)
        else:
            for f in range(4):
                assert Z[f, arg[i, f]] == pooled[i * 4 + f]


def test_pool_single_segment_is_plain_max():
    rng = np.random.default_rng(1)
    Z = rng.normal(size=(3, 7))
    pooled, arg = pool(Z, [(1, 7)])
    np.testing.assert_array_equal(pooled, Z.max(axis=1))
    np.testing.assert_array_equal(arg[0], Z.argmax(axis=1))


def test_pool_first_occurrence_tie_break():
    Z = np.array([[1.0, 5.0, 5.0, 0.0]])
    pooled, arg = pool(Z, [(1, 4)])
    assert pooled[0] == 5.0
    assert arg[0, 0] == 1  # earliest max wins


# ---------------------------------------------------------------------------
# Concept features, score, forward
# ---------------------------------------------------------------------------


def test_concept_features_layout():
    hp, params, enc = _setup(seed=3)
    cf = concept_features(enc, params)
    L = TOY_ENC.concept_len
    assert cf.shape == (2 * hp.d_ct + 2 * L * hp.d_w,)
    ct1, ct2 = enc.ctype_ids
    np.testing.assert_array_equal(cf[: hp.d_ct], params.w_ctype[ct1])
    np.testing.assert_array_equal(cf[hp.d_ct : 2 * hp.d_ct], params.w_ctype[ct2])
    off = 2 * hp.d_ct
    for j, wid in enumerate(enc.content1_ids):
        np.testing.assert_array_equal(
            cf[off + j * hp.d_w : off + (j + 1) * hp.d_w], params.w_word[wid]
        )
    off += L * hp.d_w
    for j, wid in enumerate(enc.content2_ids):
        np.testing.assert_array_equal(
            cf[off + j * hp.d_w : off + (j + 1) * hp.d_w], params.w_word[wid]
        )


@pytest.mark.parametrize("pooling", [POOL_MULTI, POOL_MAX])
def test_forward_shapes_and_score_identity(pooling):
    hp, params, enc = _setup(pooling=pooling)
    tr = forward(enc, params, hp)
    L = TOY_ENC.concept_len
    assert tr.r_x.shape == (hp.pooled_size,)
    assert tr.rc.shape == (hp.rc_size(L),)
    assert tr.scores.shape == (N_CLASSES,)
    np.testing.assert_array_equal(tr.rc, np.concatenate([tr.r_x, tr.cf_x]))
    np.testing.assert_allclose(tr.scores, params.w_classes @ tr.rc, atol=1e-15)
    assert (tr.dropout_mask == 1.0).all()  # inference: identity mask
    np.testing.assert_array_equal(tr.rc_dropped, tr.rc)


def test_forward_multi_window_concatenates_banks():
    hp, params, enc = _setup(windows=(2, 3))
    tr = forward(enc, params, hp)
    assert len(tr.windows) == 2
    assert [w.k for w in tr.windows] == [2, 3]
    assert tr.r_x.shape == (2 * 3 * hp.d_c,)
    np.testing.assert_array_equal(
        tr.r_x, np.concatenate([w.pooled for w in tr.windows])
    )


def test_forward_uses_window_specific_bounds():
    hp, params, enc = _setup()
    tr = forward(enc, params, hp)
    w = tr.windows[0]
    assert w.bounds == segment_bounds(enc.p1, enc.p2, enc.n_tokens, w.k)


class TestDropout:
    def test_inference_mode_applies_no_mask(self):
        hp, params, enc = _setup(dropout_p=0.5)
        tr = forward(enc, params, hp, train=False)
        assert (tr.dropout_mask == 1.0).all()
        np.testing.assert_array_equal(tr.rc_dropped, tr.rc)

    def test_train_mask_is_inverted_scaling(self):
        hp, params, enc = _setup(dropout_p=0.25)
        tr = forward(enc, params, hp, train=True,
                     dropout_rng=np.random.default_rng(0))
        mask = tr.dropout_mask
        assert mask.shape == tr.rc.shape
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}
        assert (mask == 0.0).any() and (mask > 1.0).any()
        np.testing.assert_array_equal(tr.rc_dropped, tr.rc * mask)

    def test_train_requires_rng(self):
        hp, params, enc = _setup(dropout_p=0.5)
        with pytest.raises(ValueError):
            forward(enc, params, hp, train=True)

    def test_mask_reproducible_by_seed(self):
        hp, params, enc = _setup(dropout_p=0.5)
        a = forward(enc, params, hp, train=True, dropout_rng=np.random.default_rng(7))
        b = forward(enc, params, hp, train=True, dropout_rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a.dropout_mask, b.dropout_mask)

    def test_zero_rate_trains_without_mask_effect(self):
        hp, params, enc = _setup(dropout_p=0.0)
        tr = forward(enc, params, hp, train=True)
        np.testing.assert_array_equal(tr.rc_dropped, tr.rc)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _reg_terms(params):
    shared = (
        float(np.sum(params.w_word ** 2))
        + float(np.sum(params.w_pos ** 2))
        + float(np.sum(params.w_ctype ** 2))
        + sum(float(np.sum(w ** 2)) for w in params.w_conv)
    )
    return shared, float(np.sum(params.w_classes ** 2))


ALL_CLASSES = loss_classes(Category.TEP, toy_hp(loss=LOSS_SOFTMAX))
TEP_CLASSES = loss_classes(Category.TEP, toy_hp(loss=LOSS_CONSTRAINED))


@pytest.mark.parametrize("loss", [LOSS_SOFTMAX, LOSS_CONSTRAINED])
def test_loss_classes_are_all_classes_or_the_category_block(loss):
    hp = toy_hp(loss=loss)
    for cat in Category:
        want = CATEGORY_CLASS_IDS[cat] if loss == LOSS_CONSTRAINED else range(N_CLASSES)
        assert list(range(N_CLASSES))[loss_classes(cat, hp)] == list(want)


class TestSoftmaxLoss:
    def test_matches_hand_formula(self):
        hp, params, enc = _setup()
        s = np.array([0.2, -1.0, 3.0, 0.0, 0.5, -0.5, 1.0, 2.0, -2.0, 0.1, 0.9])
        gold = 2
        shared, cls = _reg_terms(params)
        expected = (math.log(sum(math.exp(v) for v in s)) - s[gold]
                    + hp.beta * (shared + cls))
        got = loss_over(s, gold, ALL_CLASSES, params, hp.beta)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_bias_excluded_from_regularizer(self):
        hp, params, enc = _setup()
        s = np.zeros(11)
        before = loss_over(s, 0, ALL_CLASSES, params, beta=10.0)
        for b in params.b_conv:
            b += 123.456
        after = loss_over(s, 0, ALL_CLASSES, params, beta=10.0)
        assert after == pytest.approx(before, rel=1e-15)

    def test_gold_out_of_range(self):
        _, params, _ = _setup()
        with pytest.raises(ValueError):
            loss_over(np.zeros(11), 11, ALL_CLASSES, params, 0.0)


class TestConstrainedLoss:
    def test_matches_hand_formula_on_category_block(self):
        hp, params, _ = _setup()
        s = np.linspace(-1.0, 1.0, 11)
        cat = Category.TEP
        ids = CATEGORY_CLASS_IDS[cat]
        gold = ids[1]
        shared, _ = _reg_terms(params)
        cat_rows = float(np.sum(params.w_classes[list(ids)] ** 2))
        expected = (math.log(sum(math.exp(s[i]) for i in ids)) - s[gold]
                    + hp.beta * (shared + cat_rows))
        got = loss_over(s, gold, TEP_CLASSES, params, hp.beta)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_ignores_scores_outside_category(self):
        _, params, _ = _setup()
        s = np.zeros(11)
        base = loss_over(s, 6, TEP_CLASSES, params, 0.0)
        s2 = s.copy()
        s2[[0, 1, 2, 3, 4, 5, 9, 10]] = 1e6  # other categories: irrelevant
        assert loss_over(s2, 6, TEP_CLASSES, params, 0.0) == base

    def test_rejects_gold_outside_category(self):
        _, params, _ = _setup()
        with pytest.raises(ValueError):
            loss_over(np.zeros(11), 0, TEP_CLASSES, params, 0.0)

    def test_constraint_diag(self):
        d = np.zeros(11)
        d[list(CATEGORY_CLASS_IDS[Category.PP])] = 1.0
        np.testing.assert_array_equal(d, [0] * 9 + [1, 1])


def test_loss_from_trace_dispatch():
    _, params, enc = _setup()
    gold = CLASS_INDEX[enc.gold]
    for loss in (LOSS_SOFTMAX, LOSS_CONSTRAINED):
        hp = toy_hp(loss=loss)
        tr = forward(enc, params, hp)
        assert loss_from_trace(tr, params, hp) == pytest.approx(
            loss_over(tr.scores, gold, loss_classes(enc.category, hp), params, hp.beta), rel=1e-15
        )


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

GRAD_TOL = 1e-4


def _check_gradients(pooling, loss, seed, dropout_p=0.0):
    hp = toy_hp(pooling=pooling, loss=loss, dropout_p=dropout_p)
    params = toy_params(hp, VOCAB, TOY_ENC, seed=seed)
    enc = encoded_instance(np.random.default_rng(seed + 100), RelationType.TECP,
                           VOCAB, TOY_ENC)

    def run_forward():
        if dropout_p > 0:
            return forward(enc, params, hp, train=True,
                           dropout_rng=np.random.default_rng(55))
        return forward(enc, params, hp)

    analytic = backward(run_forward(), params, hp)
    numeric = finite_diff_grad(
        lambda _: loss_from_trace(run_forward(), params, hp), params, epsilon=1e-5
    )
    return grad_max_rel_err(analytic, numeric, params)


@pytest.mark.parametrize("pooling", [POOL_MULTI, POOL_MAX])
@pytest.mark.parametrize("loss", [LOSS_SOFTMAX, LOSS_CONSTRAINED])
def test_backward_matches_finite_differences(pooling, loss):
    assert _check_gradients(pooling, loss, seed=1) < GRAD_TOL


def test_backward_with_fixed_dropout_mask():
    assert _check_gradients(POOL_MULTI, LOSS_SOFTMAX, seed=2, dropout_p=0.4) < GRAD_TOL


def test_backward_multi_window():
    hp = toy_hp(windows=(2, 3))
    params = toy_params(hp, VOCAB, TOY_ENC, seed=5)
    enc = encoded_instance(np.random.default_rng(50), RelationType.TRAP, VOCAB, TOY_ENC)
    analytic = backward(forward(enc, params, hp), params, hp)
    numeric = finite_diff_grad(
        lambda _: loss_from_trace(forward(enc, params, hp), params, hp), params, epsilon=1e-5
    )
    assert grad_max_rel_err(analytic, numeric, params) < GRAD_TOL


def test_constrained_gradient_rows_outside_category_are_zero():
    hp = toy_hp(loss=LOSS_CONSTRAINED)
    params = toy_params(hp, VOCAB, TOY_ENC, seed=6)
    enc = encoded_instance(np.random.default_rng(60), RelationType.PIP, VOCAB, TOY_ENC)
    tr = forward(enc, params, hp)
    grads = backward(tr, params, hp)
    g = grads["w_classes"]
    inactive = [i for i in range(11) if i not in CATEGORY_CLASS_IDS[Category.PP]]
    assert g[inactive].view(np.uint64).max() == 0  # bitwise zero
    assert np.abs(g[list(CATEGORY_CLASS_IDS[Category.PP])]).sum() > 0


def test_backward_rejects_stale_trace():
    hp, params, enc = _setup()
    tr = forward(enc, params, hp)
    grads = backward(tr, params, hp)
    apply_sgd(params, grads, lr=0.01)
    with pytest.raises(StaleTraceError):
        backward(tr, params, hp)


def test_apply_sgd_in_place_exact_and_bumps_revision():
    hp, params, enc = _setup()
    tr = forward(enc, params, hp)
    grads = backward(tr, params, hp)
    assert {n for n, g in grads.items() if not isinstance(g, RowGrad)} == {"b_conv_0", "w_classes"}
    kept = copy.deepcopy(grads)  # apply_sgd consumes its gradients
    before = {k: v.copy() for k, v in params.arrays().items()}
    rev = params.revision
    objects = {k: id(v) for k, v in params.arrays().items()}
    apply_sgd(params, grads, lr=0.1)
    assert params.revision == rev + 1
    assert {k: id(v) for k, v in params.arrays().items()} == objects  # updated in place
    for name, arr in params.arrays().items():
        g = kept[name]
        if isinstance(g, RowGrad):
            assert g.decay == 2.0 * hp.beta and g.shape == before[name].shape
            # closed form: the whole table decays, then the data part steps
            data = np.zeros(g.shape)
            data[g.ids] = g.rows
            expected = before[name] * (1.0 - 0.1 * g.decay) - 0.1 * data
        else:
            expected = before[name] - 0.1 * g
        np.testing.assert_array_equal(arr, expected, err_msg=name)


@pytest.mark.parametrize("windows", [(2,), (2, 3)])
@pytest.mark.parametrize("loss", [LOSS_SOFTMAX, LOSS_CONSTRAINED])
def test_backward_into_a_workspace_equals_a_fresh_backward(windows, loss):
    """``backward(out=ws)`` is bitwise a fresh ``backward``, also after ``apply_sgd``
    consumed `ws` and when the previous sample had another category."""
    hp = toy_hp(windows=windows, loss=loss, dropout_p=0.3)
    params = toy_params(hp, VOCAB, TOY_ENC, seed=8)
    rng = np.random.default_rng(8)
    ws = None
    for gold in [RelationType.TRIP, RelationType.PIP, RelationType.TECP, RelationType.PIP]:
        enc = encoded_instance(rng, gold, VOCAB, TOY_ENC)
        tr = forward(enc, params, hp, train=True, dropout_rng=np.random.default_rng(9))
        fresh = backward(tr, params, hp)
        grads = backward(tr, params, hp, out=ws)
        assert grads.keys() == fresh.keys()
        for name, g in grads.items():
            ref = fresh[name]
            if isinstance(g, RowGrad):
                assert (g.decay, g.shape) == (ref.decay, ref.shape), name
                np.testing.assert_equal(g.ids, ref.ids, err_msg=name)
                g, ref = g.rows, ref.rows
            assert g.tobytes() == ref.tobytes(), name  # bitwise, signed zeros included
        if ws is not None:  # the arrays were reused, not reallocated
            for name in ("w_classes", "w_conv_0", "b_conv_0"):
                old, new = ws[name], grads[name]
                if isinstance(new, RowGrad):
                    old, new = old.rows, new.rows
                assert new is old, name
        apply_sgd(params, grads, hp.lr)
        ws = grads


@given(st.lists(st.integers(0, 9), min_size=1, max_size=40), st.integers(1, 6),
       st.integers(0, 2 ** 31 - 1))
def test_row_sums_match_add_at_bitwise(ids, d, seed):
    ids = np.array(ids)
    rows = np.random.default_rng(seed).normal(size=(ids.shape[0], d))
    ref = np.zeros((10, d))
    np.add.at(ref, ids, rows)
    np.testing.assert_array_equal(_row_sums(ids, rows, 10), ref)
    uniq, summed = _sum_rows(ids, rows)
    np.testing.assert_array_equal(uniq, np.unique(ids))
    np.testing.assert_array_equal(summed, ref[uniq])


def _repeated_word_instance():
    """tok3 occurs twice in the replaced sentence and again in concept 1's content."""
    tokens = ["tok3", "tok7", "tok3", "ent1", "tok3", "ent2", "tok9"]
    c1 = Concept(tokens=["tok3", "ent1"], start=3, end=4, ctype=ConceptType.TREATMENT)
    c2 = Concept(tokens=["ent2"], start=6, end=6, ctype=ConceptType.PROBLEM)
    inst = RelationInstance(tokens=tokens, concept1=c1, concept2=c2, gold=RelationType.TRIP)
    enc = encode(replace_concepts(inst), VOCAB, TOY_ENC)
    tok3 = VOCAB.word_ids["tok3"]
    assert list(enc.token_ids).count(tok3) == 2 and tok3 in enc.content1_ids
    return enc


@pytest.mark.parametrize("batch_size", [1, 3])
def test_sparse_step_matches_dense_rule(batch_size):
    """50 sparse steps track the dense rule W <- W - lr mean(g + 2 beta W) to 1e-12.

    The dense side scatter-adds every row gradient unbuffered, so an update
    that lost the contribution of a repeated id would drift away from it.
    """
    hp = toy_hp(beta=0.01, lr=0.05)
    sparse = toy_params(hp, VOCAB, TOY_ENC, seed=3)
    dense = sparse.copy()
    rng = np.random.default_rng(3)
    batch = [_repeated_word_instance()] + [
        encoded_instance(rng, RELATION_TYPES[i], VOCAB, TOY_ENC) for i in range(batch_size - 1)
    ]
    worst = 0.0
    for _ in range(50):
        summed, dense_sum = None, None
        for enc in batch:
            grads = backward(forward(enc, sparse, hp), sparse, hp)
            assert np.unique(grads["w_word"].ids).size == grads["w_word"].ids.size
            summed = grads if summed is None else {n: summed[n] + grads[n] for n in grads}
            ref = backward(forward(enc, dense, hp), dense, hp)
            ref = {n: densify(g, dense.arrays()[n]) for n, g in ref.items()}
            dense_sum = ref if dense_sum is None else {n: dense_sum[n] + ref[n] for n in ref}
        apply_sgd(sparse, {n: g / batch_size for n, g in summed.items()}, hp.lr)
        for name, arr in dense.arrays().items():
            arr -= hp.lr * (dense_sum[name] / batch_size)
        dense.revision += 1
        for name, arr in sparse.arrays().items():
            worst = max(worst, float(np.abs(arr - dense.arrays()[name]).max()))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def test_predict_returns_type_and_distribution():
    hp, params, enc = _setup()
    label, probs = predict(enc, params, hp)
    assert label in RELATION_TYPES
    assert probs.shape == (11,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert label == RELATION_TYPES[int(np.argmax(probs))]


def test_predict_tie_breaks_to_first_class():
    hp, params, enc = _setup()
    for arr in params.arrays().values():
        arr[...] = 0.0
    label, probs = predict(enc, params, hp)
    assert label == RELATION_TYPES[0]
    np.testing.assert_allclose(probs, np.full(11, 1 / 11), atol=1e-15)


@settings(max_examples=40)
@given(
    seed=st.integers(0, 10 ** 6),
    windows=st.sampled_from([(2,), (3, 4, 5), (1, 30)]),  # 30 exceeds every sentence
    pooling=st.sampled_from([POOL_MAX, POOL_MULTI]),
    size=st.sampled_from([0, 1, PREDICT_CHUNK, PREDICT_CHUNK + 1]),
    edges=st.sampled_from([(0, None), (None, 0), (0, 0)]),
)
def test_predict_batch_matches_per_instance_forward(seed, windows, pooling, size, edges):
    """Batched scores, labels and probabilities against forward/predict, one by one.

    About half the instances take `edges` as their (pre, post) token counts:
    pre = 0 empties the first pooling segment, and post = 0 the last one for
    windows k >= 2.
    """
    rng = np.random.default_rng(seed)
    hp = toy_hp(windows=windows, pooling=pooling, d_c=5)
    params = toy_params(hp, VOCAB, TOY_ENC, seed=seed)
    encs = []
    for i in range(size):
        pre, post = edges if rng.random() < 0.5 else (None, None)
        inst = build_instance(rng, RELATION_TYPES[i % N_CLASSES], pre=pre, post=post)
        encs.append(encode(replace_concepts(inst), VOCAB, TOY_ENC))
    labels, probs = predict_batch(encs, params, hp)
    assert len(labels) == size and probs.shape == (size, N_CLASSES)
    if size:
        scores = score_chunk(encs, params, hp)
        np.testing.assert_allclose(
            scores, [forward(enc, params, hp).scores for enc in encs], rtol=0, atol=1e-12
        )
    for enc, label, row in zip(encs, labels, probs):
        want_label, want_probs = predict(enc, params, hp)
        assert label == want_label
        np.testing.assert_allclose(row, want_probs, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    hp = toy_hp(windows=(2, 3), pooling=POOL_MAX, loss=LOSS_CONSTRAINED)
    params = toy_params(hp, VOCAB, TOY_ENC, seed=8)
    path = tmp_path / "model.npz"
    save_checkpoint(path, params, hp, TOY_ENC, vocab_sha256="ab" * 32)
    ckpt = load_checkpoint(path)
    assert ckpt.hp == hp
    assert ckpt.encoder == TOY_ENC
    assert ckpt.vocab_sha256 == "ab" * 32
    for name, arr in params.arrays().items():
        got = ckpt.params.arrays()[name]
        assert arr.dtype == got.dtype
        np.testing.assert_array_equal(arr, got, err_msg=name)


def test_checkpoint_save_is_deterministic(tmp_path):
    hp, params, _ = _setup()
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(p1, params, hp, TOY_ENC, vocab_sha256="00" * 32)
    save_checkpoint(p2, params, hp, TOY_ENC, vocab_sha256="00" * 32)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_recording_the_class_count_loads_and_predicts_identically(tmp_path):
    # Older checkpoints carry "m": 11 among their hyperparams.
    hp, params, enc = _setup(windows=(2, 3))
    new, old = tmp_path / "new.npz", tmp_path / "old.npz"
    save_checkpoint(new, params, hp, TOY_ENC, vocab_sha256="00" * 32)
    rewrite_checkpoint_meta(new, old, lambda meta: meta["hyperparams"].update(m=N_CLASSES))
    a, b = load_checkpoint(new), load_checkpoint(old)
    assert b.hp == a.hp == hp
    label_a, probs_a = predict(enc, a.params, a.hp)
    label_b, probs_b = predict(enc, b.params, b.hp)
    assert label_a == label_b
    np.testing.assert_array_equal(probs_a, probs_b)


@pytest.mark.parametrize("edit,message", [
    (lambda meta: meta["hyperparams"].update(m=12), "m=12"),
    (lambda meta: meta["hyperparams"].update(hidden=3), "hidden"),
    (lambda meta: meta["encoder"].update(max_distance="60"), "<"),
    (lambda meta: meta["hyperparams"].pop("windows"), "windows"),
    (lambda meta: meta.pop("vocab_sha256"), "vocab_sha256"),
    (lambda meta: meta["hyperparams"].update(pooling=5), "pooling mode 5"),
    (lambda meta: meta["hyperparams"].update(d_w=0), "d_w=0"),
    (lambda meta: meta["encoder"].update(max_distance=0), "max_distance=0"),
], ids=["m-12", "unknown-key", "wrong-type", "missing-windows", "missing-vocab-hash",
        "unknown-pooling", "zero-size", "zero-radius"])
def test_load_checkpoint_rejects_bad_config_naming_the_file(tmp_path, edit, message):
    hp, params, _ = _setup()
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_checkpoint(good, params, hp, TOY_ENC, vocab_sha256="00" * 32)
    rewrite_checkpoint_meta(good, bad, edit)
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: ") as exc:
        load_checkpoint(bad)
    assert message in str(exc.value)


def test_load_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, x=np.zeros(3))
    with pytest.raises(ValueError, match=CHECKPOINT_FORMAT.split()[0]):
        load_checkpoint(path)
