"""Tests for the network: embedding, convolution, pooling, losses, gradients."""

from __future__ import annotations

import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcnn import model
from relcnn.corpus import Concept, RelationInstance, replace_concepts
from relcnn.encoding import PAD, PAD_ID, EncoderConfig, encode, segment_bounds
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
    _padded_ids,
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
    score,
    score_chunk,
)
from relcnn.numeric import log_sum_exp, softmax
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
    backward_reference,
    build_instance,
    concept_features_reference,
    embed_sentence_reference,
    features_reference,
    log_sum_exp_reference,
    pool_reference,
    densify,
    encoded_instance,
    finite_diff_grad,
    grad_max_rel_err,
    pooled_windows_columns,
    predict_batch_reference,
    relu_map_pooling,
    rewrite_checkpoint_meta,
    score_chunk_reference,
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
            dict(beta=float("nan")),
            dict(beta=float("inf")),
            dict(lr=float("nan")),
            dict(lr=float("inf")),
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


def test_embed_sentence_window_layout():
    """Row c of X stacks the k consecutive per-token vectors from c; a chunk's X
    holds each sentence's windows in turn, none straddling two sentences."""
    hp, params, enc = _setup(seed=2)
    k = hp.windows[0]
    X = embed_sentence(*_padded_ids([enc], params, k), params, k)
    assert X.flags.c_contiguous
    n = enc.n_tokens
    assert X.shape == (n - k + 1, hp.d_x * k)
    for c in range(n - k + 1):
        col = []
        for o in range(k):
            t = c + o
            col.extend(params.w_word[enc.token_ids[t]])
            col.extend(params.w_pos[enc.pos1_ids[t]])
            col.extend(params.w_pos[enc.pos2_ids[t]])
        np.testing.assert_allclose(X[c], col, atol=0)
    other = encoded_instance(np.random.default_rng(3), RelationType.PIP, VOCAB, TOY_ENC)
    chunk = embed_sentence(*_padded_ids([enc, other, enc], params, k), params, k)
    alone = embed_sentence(*_padded_ids([other], params, k), params, k)
    np.testing.assert_array_equal(chunk, np.concatenate([X, alone, X]))


def test_convolve_matches_loop_oracle():
    """The raw feature map X W_conv^T: the bias and relu come after pooling."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5, 6))
    w = rng.normal(size=(3, 6))
    Z = convolve(X, w)
    assert Z.shape == (5, 3)
    for f in range(3):
        for c in range(5):
            pre = sum(w[f, t] * X[c, t] for t in range(6))
            assert Z[c, f] == pytest.approx(pre, abs=1e-12)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def _pool_oracle(Z, bounds):
    """Plain-python per-segment max and first argmax, written independently of the library."""
    _, d_c = Z.shape
    out, arg = [], []
    for seg in bounds:
        if seg is None:
            out.extend([0.0] * d_c)
            arg.append([-1] * d_c)
            continue
        lo, hi = seg
        cols = range(lo - 1, hi)
        out.extend(max(Z[c, f] for c in cols) for f in range(d_c))
        arg.append([max(cols, key=lambda c: (Z[c, f], -c)) for f in range(d_c)])
    return np.array(out), np.array(arg)


@given(st.integers(0, 10 ** 6))
def test_pool_matches_brute_force(seed):
    """One instance's segments, or a chunk's: several instances' segments offset into
    one Z, including empty segments and sentences shorter than the window."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    bounds, ncols = [], 0
    for _ in range(int(rng.integers(1, 5))):
        n = int(rng.integers(2, 16))
        p1 = int(rng.integers(1, n))
        p2 = int(rng.integers(p1 + 1, n + 1))
        n = max(n, k)  # a short sentence is padded to the window
        bounds += [
            None if seg is None else (seg[0] + ncols, seg[1] + ncols)
            for seg in segment_bounds(p1, p2, n, k)
        ]
        ncols += n - k + 1
    # Half the draws take small integers, so that columns tie.
    Z = rng.normal(size=(ncols, 4)) if rng.random() < 0.5 else rng.integers(0, 3, (ncols, 4)) * 1.0
    pooled, arg = pool(Z, bounds)
    want_pooled, want_arg = _pool_oracle(Z, bounds)
    np.testing.assert_array_equal(pooled, want_pooled)
    np.testing.assert_array_equal(arg, want_arg)


def test_pool_single_segment_is_plain_max():
    rng = np.random.default_rng(1)
    Z = rng.normal(size=(7, 3))
    pooled, arg = pool(Z, [(1, 7)])
    np.testing.assert_array_equal(pooled, Z.max(axis=0))
    np.testing.assert_array_equal(arg[0], Z.argmax(axis=0))


def test_pool_first_occurrence_tie_break():
    Z = np.array([[1.0], [5.0], [5.0], [0.0]])
    pooled, arg = pool(Z, [(1, 4)])
    assert pooled[0] == 5.0
    assert arg[0, 0] == 1  # earliest max wins


def test_pool_and_backward_route_an_exact_tie_to_its_first_column():
    """Windows 1 and 3 repeat a 2-gram whose distances to both entities are clipped to
    the radius, so their rows of the raw map are equal.  Pool takes the first, and
    backward sends
    each filter's gradient through that one cell: a second cell would double it against
    finite differences, which every parameter keeps the tie for."""
    enc_cfg = EncoderConfig(max_distance=1, concept_len=3, min_word_freq=1)
    vocab = shared_vocab(enc_cfg)
    c1 = Concept(start=5, end=5, ctype=ConceptType.TREATMENT)
    c2 = Concept(start=7, end=7, ctype=ConceptType.PROBLEM)
    tokens = ["tok3", "tok7", "tok3", "tok7", "ent1", "tok9", "ent2"]
    inst = RelationInstance(tokens=tokens, concept1=c1, concept2=c2, gold=RelationType.TRIP)
    (enc,) = encode([replace_concepts(inst)], vocab, enc_cfg)
    hp = toy_hp(d_c=8)
    params = toy_params(hp, vocab, enc_cfg, seed=1)
    tr = forward(enc, params, hp)
    wt = tr.windows[0]
    lo, hi = enc.segments(wt.k, True)[0]
    assert (lo, hi) == (1, 4)
    Z = wt.X @ params.w_conv[0].T
    assert Z[0].tobytes() == Z[2].tobytes()
    first_segment = wt.pooled[: hp.d_c]
    tied = (Z[0] == Z[lo - 1 : hi].max(axis=0)) & (first_segment > 0.0)
    assert 0 < tied.sum() < hp.d_c
    np.testing.assert_array_equal(wt.argmax_cols[0][tied], 0)

    analytic = backward(tr, params, hp)
    numeric = finite_diff_grad(
        lambda _: loss_from_trace(forward(enc, params, hp), params, hp), params, epsilon=1e-5
    )
    assert grad_max_rel_err(analytic, numeric, params) < GRAD_TOL


def test_a_rounding_tie_routes_to_the_raw_maximum():
    """Filter 0 reads the first word coordinate of a window's first token: 1e-17 in
    window t = 0 and 2e-17 in window s = 1, -1 elsewhere.  Its bias 1.0 rounds both
    maxima to 1.0, so the biased map ties where the raw map does not.  Pooling runs on
    the raw map: the trace names s, and backward sends the filter's gradient through
    window s alone."""
    hp = toy_hp(pooling=POOL_MAX)
    params = toy_params(hp, VOCAB, TOY_ENC, seed=2)
    inst = _short_instance(["tok3", "tok5", "tok7", "ent1", "tok9", "ent2"], 4, 6)
    (enc,) = encode([replace_concepts(inst)], VOCAB, TOY_ENC)
    t_word, s_word = enc.token_ids[:2].tolist()
    params.w_conv[0][...] = 0.0
    params.w_conv[0][0, 0] = 1.0
    params.b_conv[0][...] = 0.0
    params.b_conv[0][0] = 1.0
    params.w_word[:, 0] = -1.0
    params.w_word[t_word, 0] = 1e-17
    params.w_word[s_word, 0] = 2e-17

    tr = forward(enc, params, hp)
    wt = tr.windows[0]
    raw = (wt.X @ params.w_conv[0].T)[:, 0]
    assert raw[0] < raw[1] and raw[0] + 1.0 == raw[1] + 1.0 == 1.0 and (raw[2:] < 0).all()
    assert tr.r_x[0] == 1.0
    assert wt.argmax_cols[0, 0] == 1

    ds = softmax(tr.scores)
    ds[CLASS_INDEX[enc.gold]] -= 1.0
    dr = float(params.w_classes[:, 0] @ ds)
    assert dr != 0.0
    grads = backward(tr, params, hp)
    np.testing.assert_allclose(grads["w_conv_0"].rows[0], dr * wt.X[1], rtol=1e-12, atol=0)
    np.testing.assert_array_equal(grads["w_conv_0"].rows[1:], 0.0)
    word = dict(zip(grads["w_word"].ids.tolist(), grads["w_word"].rows[:, 0]))
    assert word[t_word] == 0.0
    assert word[s_word] == pytest.approx(dr, rel=1e-12)


# ---------------------------------------------------------------------------
# Concept features, score, forward
# ---------------------------------------------------------------------------


def _concept_rows(encs, params, hp):
    """``concept_features`` written into the tail of a fresh rc."""
    rc = np.empty((len(encs), params.w_classes.shape[1]))
    return concept_features(encs, params, out=rc[:, hp.pooled_size :])


def test_concept_features_layout():
    hp, params, enc = _setup(seed=3)
    other = encoded_instance(np.random.default_rng(4), RelationType.PIP, VOCAB, TOY_ENC)
    rows = _concept_rows([other, enc], params, hp)
    np.testing.assert_array_equal(rows[0], _concept_rows([other], params, hp)[0])
    cf = rows[1]
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
    """The pooled values are those of relu(X W_conv^T + b) over the window size's
    segments."""
    hp, params, enc = _setup()
    tr = forward(enc, params, hp)
    w = tr.windows[0]
    Z = np.maximum(w.X @ params.w_conv[0].T + params.b_conv[0], 0.0)
    want, _ = pool(Z, segment_bounds(enc.p1, enc.p2, enc.n_tokens, w.k))
    assert w.pooled.tobytes() == want.tobytes()


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
    g = grads["w_classes"].rows
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
    params.word_scale = 0.75  # a table mid-epoch: W = 0.75 U
    tr = forward(enc, params, hp)
    grads = backward(tr, params, hp)
    assert all(isinstance(g, RowGrad) for g in grads.values())
    assert {n for n, g in grads.items() if g.decay == 0.0} == {"b_conv_0", "w_classes"}
    kept = copy.deepcopy(grads)  # apply_sgd consumes its gradients
    before = {k: v.copy() for k, v in params.arrays().items()}
    rev = params.revision
    objects = {k: id(v) for k, v in params.arrays().items()}
    apply_sgd(params, grads, lr=0.1)
    assert params.revision == rev + 1
    assert {k: id(v) for k, v in params.arrays().items()} == objects  # updated in place
    for name, arr in params.arrays().items():
        g = kept[name]
        assert g.decay in (0.0, 2.0 * hp.beta) and g.shape == before[name].shape
        # closed form: the whole table decays, then the data part steps
        data = np.zeros(g.shape)
        data[g.ids] = g.rows
        if name == "w_word":
            # closed form: the scale decays, then the stored rows step at lr / s'
            scale = 0.75 * (1.0 - 0.1 * g.decay)
            assert params.word_scale == scale
            expected = before[name] - (0.1 / scale) * data
        else:
            expected = before[name] * (1.0 - 0.1 * g.decay) - 0.1 * data
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
            assert (g.decay, g.shape) == (ref.decay, ref.shape), name
            np.testing.assert_equal(g.ids, ref.ids, err_msg=name)
            assert g.rows.tobytes() == ref.rows.tobytes(), name  # bitwise, signed zeros included
        if ws is not None:  # the arrays were reused, not reallocated
            for name in ("w_classes", "w_conv_0", "b_conv_0"):
                assert grads[name].rows is ws[name].rows, name
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
    c1 = Concept(start=3, end=4, ctype=ConceptType.TREATMENT)
    c2 = Concept(start=6, end=6, ctype=ConceptType.PROBLEM)
    inst = RelationInstance(tokens=tokens, concept1=c1, concept2=c2, gold=RelationType.TRIP)
    (enc,) = encode([replace_concepts(inst)], VOCAB, TOY_ENC)
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
            ref = backward(forward(enc, dense, hp), dense, hp)
            ref = {n: densify(g, dense.arrays()[n]) for n, g in ref.items()}
            if summed is None:
                summed, dense_sum = grads, ref
            else:
                for n in grads:
                    summed[n] += grads[n]
                    dense_sum[n] += ref[n]
        apply_sgd(sparse, summed, hp.lr / batch_size)
        for name, arr in dense.arrays().items():
            arr -= hp.lr * (dense_sum[name] / batch_size)
        dense.revision += 1
        for name, arr in sparse.copy().arrays().items():  # the copy holds W = s U
            worst = max(worst, float(np.abs(arr - dense.arrays()[name]).max()))
    assert worst <= 1e-12


def _warm_params(hp, n_steps=3, seed=5):
    """Parameters after `n_steps` SGD steps, their word scale not yet folded."""
    params = toy_params(hp, VOCAB, TOY_ENC, seed=seed)
    rng = np.random.default_rng(seed)
    for i in range(n_steps):
        enc = encoded_instance(rng, RELATION_TYPES[i % N_CLASSES], VOCAB, TOY_ENC)
        apply_sgd(params, backward(forward(enc, params, hp), params, hp), hp.lr)
    assert params.word_scale < 1.0
    return params


def test_warm_step_leaves_untouched_word_rows_bitwise_unchanged():
    """The step decays the word table through its scale and writes only the rows the
    sample looked up: its cost does not grow with the vocabulary."""
    hp = toy_hp(beta=0.01)
    params = _warm_params(hp)
    enc = encoded_instance(np.random.default_rng(50), RelationType.TRIP, VOCAB, TOY_ENC)
    grads = backward(forward(enc, params, hp), params, hp)
    touched = grads["w_word"].ids
    stored, scale = params.w_word.copy(), params.word_scale
    assert apply_sgd(params, grads, hp.lr) is False
    untouched = np.setdiff1d(np.arange(VOCAB.n_words), touched)
    assert untouched.size > touched.size > 0
    assert params.w_word[untouched].tobytes() == stored[untouched].tobytes()
    assert not np.array_equal(params.w_word[touched], stored[touched])
    assert params.word_scale == scale * (1.0 - hp.lr * 2.0 * hp.beta)


def test_live_scaled_table_scores_as_a_folded_copy():
    """What scoring mid-epoch reads (W = s U, s != 1) equals the folded table: the
    same labels, probabilities and loss within 1e-12."""
    hp = toy_hp(beta=0.01, windows=(2, 3))
    live = _warm_params(hp)
    folded = live.copy()
    assert folded.word_scale == 1.0 and live.word_scale < 1.0
    np.testing.assert_array_equal(folded.w_word, live.w_word * live.word_scale)
    rng = np.random.default_rng(51)
    encs = [encoded_instance(rng, RELATION_TYPES[i % N_CLASSES], VOCAB, TOY_ENC)
            for i in range(PREDICT_CHUNK + 3)]
    labels, probs = predict_batch(encs, live, hp)
    want_labels, want_probs = predict_batch(encs, folded, hp)
    assert labels == want_labels
    np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
    for enc in encs[:3]:
        label, row = predict(enc, live, hp)
        want_label, want_row = predict(enc, folded, hp)
        assert label == want_label
        np.testing.assert_allclose(row, want_row, rtol=0, atol=1e-12)
        got = loss_from_trace(forward(enc, live, hp), live, hp)
        want = loss_from_trace(forward(enc, folded, hp), folded, hp)
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_floor_fold_keeps_w_close_to_the_unfolded_scale(monkeypatch):
    """Under lr 2 beta = 0.4 the word scale falls below WORD_SCALE_FLOOR within a few
    steps; apply_sgd folds it into the table, and W stays within 1e-12 of the same
    steps taken with no floor, every other array bitwise equal."""
    hp = toy_hp(beta=0.5, lr=0.4)
    params = toy_params(hp, VOCAB, TOY_ENC, seed=7)
    unfolded = params.copy()
    rng = np.random.default_rng(7)
    folds = []
    for i in range(30):
        enc = encoded_instance(rng, RELATION_TYPES[i % N_CLASSES], VOCAB, TOY_ENC)
        grads = backward(forward(enc, params, hp), params, hp)
        same = copy.deepcopy(grads)
        folds.append(apply_sgd(params, grads, hp.lr))
        with monkeypatch.context() as m:
            m.setattr(model, "WORD_SCALE_FLOOR", 0.0)
            assert apply_sgd(unfolded, same, hp.lr) is False
        assert params.word_scale >= model.WORD_SCALE_FLOOR
        w, ref = params.copy().arrays(), unfolded.copy().arrays()
        np.testing.assert_allclose(w.pop("w_word"), ref.pop("w_word"), rtol=0, atol=1e-12)
        for name, arr in w.items():
            assert arr.tobytes() == ref[name].tobytes(), name
    assert sum(folds) >= 2 and unfolded.word_scale < model.WORD_SCALE_FLOOR ** 2


def test_checkpoint_of_a_live_scaled_table_holds_w(tmp_path):
    """save_checkpoint writes W, never the stored table or its scale, and leaves the
    live parameters as they were."""
    hp = toy_hp(beta=0.01)
    live = _warm_params(hp)
    stored, scale = live.w_word.copy(), live.word_scale
    path = tmp_path / "model.npz"
    save_checkpoint(path, live, hp, TOY_ENC, vocab_sha256="00" * 32)
    assert live.word_scale == scale and live.w_word.tobytes() == stored.tobytes()
    with np.load(path) as data:
        assert set(data.files) == {"__meta__", *live.arrays()}
    ckpt = load_checkpoint(path)
    assert ckpt.params.word_scale == 1.0
    for name, arr in live.copy().arrays().items():
        assert ckpt.params.arrays()[name].tobytes() == arr.tobytes(), name


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
    windows k >= 2.  ``predict`` is bit for bit a chunk of one, whose scores
    are bit for bit ``forward``'s.
    """
    rng = np.random.default_rng(seed)
    hp = toy_hp(windows=windows, pooling=pooling, d_c=5)
    params = toy_params(hp, VOCAB, TOY_ENC, seed=seed)
    reps = []
    for i in range(size):
        pre, post = edges if rng.random() < 0.5 else (None, None)
        inst = build_instance(rng, RELATION_TYPES[i % N_CLASSES], pre=pre, post=post)
        reps.append(replace_concepts(inst))
    encs = encode(reps, VOCAB, TOY_ENC)
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
        one_labels, one_probs = predict_batch([enc], params, hp)
        assert one_labels == [want_label] and one_probs[0].tobytes() == want_probs.tobytes()
        assert score_chunk([enc], params, hp)[0].tobytes() == forward(enc, params, hp).scores.tobytes()


# ---------------------------------------------------------------------------
# Windows as rows against the column layout
# ---------------------------------------------------------------------------


def _layout_chunk(seed: int, size: int) -> list:
    """`size` encoded instances; the first is three tokens long, shorter than windows 4
    and 5, and about half the rest have no tokens outside the concept pair."""
    rng = np.random.default_rng(seed)
    c1 = Concept(start=1, end=1, ctype=ConceptType.TREATMENT)
    c2 = Concept(start=3, end=3, ctype=ConceptType.PROBLEM)
    short = RelationInstance(["ent1", "tok5", "ent2"], c1, c2, RelationType.TRIP)
    insts = [short]
    for i in range(1, size):
        pre, post = (0, 0) if rng.random() < 0.5 else (None, None)
        insts.append(build_instance(rng, RELATION_TYPES[i % N_CLASSES], pre=pre, post=post))
    return encode([replace_concepts(inst) for inst in insts], VOCAB, TOY_ENC)


@pytest.mark.parametrize("pooling", [POOL_MULTI, POOL_MAX])
def test_window_rows_match_the_column_layout(pooling):
    """The pooled vectors, scores and every backward gradient agree with the column
    layout's within 1e-12, and the argmax windows exactly: in chunks of 1, of
    PREDICT_CHUNK and a ragged chunk, at windows (3, 4, 5)."""
    hp = toy_hp(windows=(3, 4, 5), pooling=pooling, d_c=24, dropout_p=0.3)
    params = toy_params(hp, VOCAB, TOY_ENC, seed=5)
    encs = _layout_chunk(seed=7, size=PREDICT_CHUNK + 6)
    assert encs[0].n_tokens == 3
    chunks = [encs[:1], encs[1 : 1 + PREDICT_CHUNK], encs[1 + PREDICT_CHUNK :]]
    want_scores = []
    for chunk in chunks:
        rc, traces = model._features(chunk, params, hp, traced=True)
        want_r_x, want_traces = pooled_windows_columns(chunk, params, hp)
        np.testing.assert_allclose(rc[:, : hp.pooled_size], want_r_x, rtol=0, atol=1e-12)
        for wt, want in zip(traces, want_traces):
            np.testing.assert_array_equal(wt.argmax_cols, want.argmax_cols)
            np.testing.assert_allclose(wt.X, want.X.T, rtol=0, atol=1e-12)
        want_scores.append(score(want_r_x, _concept_rows(chunk, params, hp), params))
        np.testing.assert_allclose(
            score_chunk(chunk, params, hp), want_scores[-1], rtol=0, atol=1e-12
        )
    # predict_batch's own chunks: PREDICT_CHUNK instances, then a ragged rest.
    labels, probs = predict_batch(encs[1:], params, hp)
    want = np.concatenate(want_scores[1:])
    assert labels == [RELATION_TYPES[i] for i in want.argmax(axis=1)]
    np.testing.assert_allclose(probs, softmax(want), rtol=0, atol=1e-12)

    dropout_rng = np.random.default_rng(11)
    for enc in encs:
        trace = forward(enc, params, hp, train=True, dropout_rng=dropout_rng)
        grads = backward(trace, params, hp)
        column_trace = copy.copy(trace)
        column_trace.windows = pooled_windows_columns([enc], params, hp)[1]
        want_grads = backward_reference(column_trace, params, hp, columns=True)
        assert grads.keys() == want_grads.keys()
        for name, g in grads.items():
            np.testing.assert_equal(g.ids, want_grads[name].ids, err_msg=name)
            assert g.decay == want_grads[name].decay, name
            np.testing.assert_allclose(
                g.rows, want_grads[name].rows, rtol=0, atol=1e-12, err_msg=name
            )


@pytest.mark.parametrize("loss", [LOSS_SOFTMAX, LOSS_CONSTRAINED])
@pytest.mark.parametrize("pooling", [POOL_MULTI, POOL_MAX])
@pytest.mark.parametrize("windows", [(4,), (3, 4, 5), (2, 5)])
def test_inference_pools_the_raw_map_bit_for_bit(windows, pooling, loss):
    """``score_chunk`` and ``predict_batch``, which pool the raw feature map and bias and
    relu the maxima, give byte for byte the scores, labels and probabilities of the
    bias -> relu -> max reference, on 1, PREDICT_CHUNK and PREDICT_CHUNK + 1 instances
    (``predict_batch`` scores the last as a full chunk and a ragged one).  The traced
    path, ``forward`` of each instance, gives byte for byte the reference's pooled
    blocks, and its live argmax rows are the reference's.  Every bias is positive and
    the first instance, three tokens long, has an empty first segment, so biasing an
    empty segment fails under "multi"."""
    hp = toy_hp(windows=windows, pooling=pooling, loss=loss, d_c=24)
    params = toy_params(hp, VOCAB, TOY_ENC, seed=3)
    rng = np.random.default_rng(4)
    for b in params.b_conv:
        b[...] = rng.uniform(0.05, 0.5, size=b.shape)
    encs = _layout_chunk(seed=9, size=PREDICT_CHUNK + 1)
    assert encs[0].n_tokens == 3 and encs[0].segments(windows[0], True)[0] is None
    for chunk in (encs[:1], encs[:PREDICT_CHUNK], encs):
        want = score_chunk_reference(chunk, params, hp)
        assert score_chunk(chunk, params, hp).tobytes() == want.tobytes()
        labels, probs = predict_batch(chunk, params, hp)
        want_labels, want_probs = predict_batch_reference(chunk, params, hp)
        assert labels == want_labels and probs.tobytes() == want_probs.tobytes()
    for enc in encs:
        trace = forward(enc, params, hp)
        want = relu_map_pooling([enc], params, hp)
        assert trace.r_x.tobytes() == np.concatenate([p[0] for p, _ in want]).tobytes()
        for wt, (pooled, arg) in zip(trace.windows, want):
            live = pooled.reshape(arg.shape) > 0.0
            np.testing.assert_array_equal(wt.argmax_cols[live], arg[live])


# ---------------------------------------------------------------------------
# The stages against their Python-level forms, byte for byte
# ---------------------------------------------------------------------------


def _chunks_at_windows_4_5():
    """(name, chunk): a chunk whose sentences all fill a window of 5 (no <pad>), a
    chunk led by a 3-token sentence, and the ragged last chunk of ``predict_batch``."""
    encs = _layout_chunk(seed=21, size=PREDICT_CHUNK + 3)
    unpadded = [enc for enc in encs if enc.n_tokens >= 5]
    assert len(unpadded) >= 3 and encs[0].n_tokens == 3
    return [("unpadded", unpadded), ("short-first", encs[:PREDICT_CHUNK]),
            ("ragged", encs[PREDICT_CHUNK:])]


@pytest.mark.parametrize("word_scale", [1.0, 0.625])
def test_embed_sentence_matches_the_sliced_windows_bitwise(word_scale):
    """A chunk's window matrix X, gathered by one fancy index on the window view,
    equals byte for byte each sentence's windows sliced and joined by ``concatenate``;
    X is C-contiguous."""
    hp = toy_hp(windows=(4, 5))
    params = toy_params(hp, VOCAB, TOY_ENC, seed=2)
    params.word_scale = word_scale
    for name, chunk in _chunks_at_windows_4_5():
        for k in hp.windows:
            ids = _padded_ids(chunk, params, k)
            X = embed_sentence(*ids, params, k)
            assert X.flags.c_contiguous, name
            assert X.tobytes() == embed_sentence_reference(*ids, params, k).tobytes(), name


@pytest.mark.parametrize("word_scale", [1.0, 0.625])
def test_concept_features_into_the_rc_tail_match_concatenate(word_scale):
    """Written into rc's tail (``out=``), the concept features are byte for byte the
    concatenated type and word rows; rc's head is left alone."""
    hp = toy_hp()
    params = toy_params(hp, VOCAB, TOY_ENC, seed=4)
    params.word_scale = word_scale
    for name, chunk in _chunks_at_windows_4_5():
        want = concept_features_reference(chunk, params)
        rc = np.full((len(chunk), params.w_classes.shape[1]), np.nan)
        tail = rc[:, hp.pooled_size :]
        assert concept_features(chunk, params, out=tail) is tail
        assert tail.tobytes() == want.tobytes(), name
        assert np.isnan(rc[:, : hp.pooled_size]).all(), name


@pytest.mark.parametrize("empty", [0.0, -np.inf])
@pytest.mark.parametrize("argmax", [True, False])
def test_pool_matches_the_filled_form_bitwise(argmax, empty):
    """Pooled maxima and argmax rows, empty ranges included, equal byte for byte those
    of outputs filled by ``np.full`` first; the argmax rows are intp."""
    Z = np.random.default_rng(8).normal(size=(9, 5))
    Z[4, 2] = Z[5, 2]  # an exact tie inside a range
    bounds = [(1, 3), None, (4, 7), (2, 2), None, (1, 9)]
    pooled, arg = pool(Z, bounds, argmax=argmax, empty=empty)
    want_pooled, want_arg = pool_reference(Z, bounds, argmax=argmax, empty=empty)
    assert pooled.tobytes() == want_pooled.tobytes()
    if argmax:
        assert arg.dtype == np.intp and arg.tobytes() == want_arg.tobytes()
    else:
        assert arg is None and want_arg is None


def _ds(trace, hp):
    """d loss / d scores of a traced sample."""
    classes = loss_classes(trace.enc.category, hp)
    ds = np.zeros(N_CLASSES)
    ds[classes] = softmax(trace.scores[classes])
    ds[CLASS_INDEX[trace.enc.gold]] -= 1.0
    return ds


def test_backward_scatter_matches_boolean_indexing_bitwise():
    """backward's convolution and bias gradients equal byte for byte those of the
    pooled gradient scattered by boolean masks and ``nonzero``, summed by ``np.sum``:
    under both poolings, with windows longer than a sentence and empty segments."""
    max_hp = toy_hp(windows=(3, 4), pooling=POOL_MAX, d_c=24, dropout_p=0.3)
    cases = [*_word_layout_cases(),
             (max_hp, toy_params(max_hp, VOCAB, TOY_ENC), _layout_chunk(seed=7, size=4))]
    n_empty = 0
    for hp, params, encs in cases:
        dropout_rng = np.random.default_rng(12)
        for enc in encs:
            trace = forward(enc, params, hp, train=True, dropout_rng=dropout_rng)
            grads = backward(trace, params, hp)
            drc = (params.w_classes.T @ _ds(trace, hp)) * trace.dropout_mask
            per = hp.pooled_per_window
            for j, wt in enumerate(trace.windows):
                n_empty += int((wt.argmax_cols == -1).any())
                dr_w = drc[j * per : (j + 1) * per].reshape(wt.argmax_cols.shape)
                live = (wt.pooled > 0.0).reshape(wt.argmax_cols.shape)
                dpre = np.zeros((wt.X.shape[0], hp.d_c))
                dpre[wt.argmax_cols[live], np.nonzero(live)[1]] = dr_w[live]
                assert grads[f"w_conv_{j}"].rows.tobytes() == (dpre.T @ wt.X).tobytes()
                assert grads[f"b_conv_{j}"].rows.tobytes() == np.sum(dpre, axis=0).tobytes()
    assert n_empty > 0


def test_predict_and_a_step_at_a_live_word_scale_match_the_python_level_forms(monkeypatch):
    """With the word scale not 1, one-instance ``predict`` and a batch-1 step (forward
    with dropout, loss, backward, apply_sgd) give byte for byte the probabilities, loss
    and updated arrays of the same run through the Python-level stages."""
    hp = toy_hp(windows=(2, 5), beta=0.01, dropout_p=0.3, d_c=6)
    encs = _layout_chunk(seed=13, size=4)
    runs = []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr(model, "_features", features_reference)
            monkeypatch.setattr(model, "log_sum_exp", log_sum_exp_reference)
        params = _warm_params(hp)
        assert params.word_scale != 1.0
        probs = [predict(enc, params, hp)[1].tobytes() for enc in encs]
        dropout_rng = np.random.default_rng(14)
        losses = []
        for enc in encs:
            trace = forward(enc, params, hp, train=True, dropout_rng=dropout_rng)
            losses.append(loss_from_trace(trace, params, hp))
            grads = (backward_reference if reference else backward)(trace, params, hp)
            apply_sgd(params, grads, hp.lr)
        arrays = {name: arr.tobytes() for name, arr in params.arrays().items()}
        runs.append((probs, losses, arrays, params.word_scale))
    assert runs[0] == runs[1]


def test_a_word_id_past_the_table_raises_index_error():
    params = toy_params(toy_hp(), VOCAB, TOY_ENC)
    n = params.w_word.shape[0]
    ids = np.array([n - 1, -1])  # a negative id wraps, as an index does
    assert params.word_rows(ids).tobytes() == params.w_word[ids].tobytes()
    with pytest.raises(IndexError):
        params.word_rows(np.array([0, n]))


# ---------------------------------------------------------------------------
# What an instance keeps: padded ids, word layout, segments
# ---------------------------------------------------------------------------


def _short_instance(tokens: list[str], c1: int, c2: int) -> RelationInstance:
    """One-token concepts at 1-based positions c1 < c2 of `tokens`."""
    return RelationInstance(
        tokens,
        Concept(start=c1, end=c1, ctype=ConceptType.TREATMENT),
        Concept(start=c2, end=c2, ctype=ConceptType.PROBLEM),
        RelationType.TRIP,
    )


@pytest.mark.parametrize("max_distance", [8, 1])
def test_pad_position_ids_are_those_of_explicit_pad_tokens(max_distance):
    """A 3-token sentence at windows=(5,) is padded with two <pad> tokens whose ids are
    what ``encode`` gives the sentence written with two explicit <pad> tokens:
    position ids Vocab.position_id(i - p) for i = 4, 5, clipped to the radius."""
    enc_cfg = EncoderConfig(max_distance=max_distance, concept_len=3, min_word_freq=1)
    vocab = shared_vocab(enc_cfg)
    short = _short_instance(["ent1", "tok5", "ent2"], 1, 3)
    explicit = _short_instance(["ent1", "tok5", "ent2", PAD, PAD], 1, 3)
    enc, want = encode([replace_concepts(short), replace_concepts(explicit)], vocab, enc_cfg)
    hp = toy_hp(windows=(5,))
    wt = forward(enc, toy_params(hp, vocab, enc_cfg), hp).windows[0]
    assert wt.token_ids.tolist() == want.token_ids.tolist() == [*enc.token_ids, PAD_ID, PAD_ID]
    assert wt.pos1_ids.tolist() == want.pos1_ids.tolist()
    assert wt.pos2_ids.tolist() == want.pos2_ids.tolist()
    assert want.pos1_ids[3:].tolist() == [vocab.position_id(i - enc.p1) for i in (4, 5)]
    assert want.pos2_ids[3:].tolist() == [vocab.position_id(i - enc.p2) for i in (4, 5)]


def _assert_same_grads(got: dict[str, RowGrad], want: dict[str, RowGrad]) -> None:
    assert got.keys() == want.keys()
    for name, g in got.items():
        if isinstance(want[name].ids, slice):
            assert g.ids == want[name].ids, name
        else:
            assert np.array_equal(g.ids, want[name].ids), name
        assert g.decay == want[name].decay, name
        assert g.rows.tobytes() == want[name].rows.tobytes(), name  # bitwise


def _word_layout_cases():
    """(hp, params, encs): the layout chunk at windows (3, 4, 5), whose first sentence
    pads, under either loss; a sentence shorter than its window whose concept contents
    hold no <pad> (concept_len 1); and a concept word repeated in the sentence."""
    for loss in [LOSS_SOFTMAX, LOSS_CONSTRAINED]:
        hp = toy_hp(windows=(3, 4, 5), d_c=24, dropout_p=0.3, loss=loss)
        yield hp, toy_params(hp, VOCAB, TOY_ENC, seed=5), _layout_chunk(seed=7, size=8)

    enc_cfg = EncoderConfig(max_distance=8, concept_len=1, min_word_freq=1)
    vocab = shared_vocab(enc_cfg)
    insts = [_short_instance(["ent1", "tok5", "ent2"], 1, 3)]
    (enc,) = encode([replace_concepts(inst) for inst in insts], vocab, enc_cfg)
    assert PAD_ID not in enc.word_layout[0]
    for windows in [(5,), (2, 5)]:
        hp = toy_hp(windows=windows, d_c=6, dropout_p=0.3)
        yield hp, toy_params(hp, vocab, enc_cfg, seed=2), [enc]

    repeated = _short_instance(["tok5", "ent1", "tok7", "ent2", "ent1", "ent2"], 2, 4)
    (enc,) = encode([replace_concepts(repeated)], VOCAB, TOY_ENC)
    assert enc.content1_ids[0] in enc.token_ids and enc.content2_ids[0] in enc.token_ids
    hp = toy_hp(windows=(2, 3), d_c=6, dropout_p=0.3)
    yield hp, toy_params(hp, VOCAB, TOY_ENC, seed=3), [enc]


def test_word_gradient_equals_the_concatenated_ids_sum_exactly():
    """Every gradient, and the w_word ids and rows in particular, equal bit for bit
    those of the word rows summed over the concatenated ids (``backward_reference``):
    per sample, and for two samples summed through ``RowGrad.__iadd__``."""
    for hp, params, encs in _word_layout_cases():
        dropout_rng = np.random.default_rng(11)
        got, want = [], []
        for enc in encs:
            trace = forward(enc, params, hp, train=True, dropout_rng=dropout_rng)
            got.append(backward(trace, params, hp))
            want.append(backward_reference(trace, params, hp))
            _assert_same_grads(got[-1], want[-1])
        # A second sample of the same batch, added in place: the first sample again.
        trace = forward(encs[0], params, hp, train=True, dropout_rng=dropout_rng)
        seconds = [
            (got[0], backward(trace, params, hp)),
            (want[0], backward_reference(trace, params, hp)),
        ]
        for total, other in seconds:
            for name, g in total.items():
                g += other[name]
        _assert_same_grads(got[0], want[0])


def test_an_instance_keeps_its_layout_and_segments():
    """The word layout and the segments are computed once per instance, read-only
    where they are arrays, and what a chunk of one pools over; a chunk of one that
    needs no <pad> reads the instance's own id arrays."""
    hp = toy_hp(windows=(2, 5))
    params = toy_params(hp, VOCAB, TOY_ENC)
    enc = _layout_chunk(seed=7, size=1)[0]
    uniq, index = enc.word_layout
    assert enc.word_layout[0] is uniq and not uniq.flags.writeable and not index.flags.writeable
    ids = np.concatenate([enc.content1_ids, enc.content2_ids, enc.token_ids])
    assert uniq.tolist() == sorted(set(ids.tolist())) and uniq[index].tolist() == ids.tolist()
    trace = forward(enc, params, hp)
    for wt in trace.windows:
        n = max(enc.n_tokens, wt.k)
        segments = enc.segments(wt.k, True)
        assert model._chunk_bounds([enc], [n], wt.k, POOL_MULTI) is segments
        assert segments == segment_bounds(enc.p1, enc.p2, n, wt.k)
    assert trace.windows[0].token_ids is enc.token_ids  # no <pad> needed at k = 2
    own = (enc.token_ids, enc.pos1_ids, enc.pos2_ids)  # nor at k = n, one window
    assert all(a is b for a, b in zip(_padded_ids([enc], params, enc.n_tokens), own))
    assert enc.segments(5, False) == [(1, 1)]


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
    (lambda meta: meta["encoder"].update(max_distance="60"), "encoder: max_distance: expected int, got '60'"),
    (lambda meta: meta["hyperparams"].pop("windows"), "windows"),
    (lambda meta: meta.pop("vocab_sha256"), "vocab_sha256"),
    (lambda meta: meta["hyperparams"].update(pooling="avg"), "unknown pooling mode 'avg'"),
    (lambda meta: meta["hyperparams"].update(d_w=0), "d_w=0"),
    (lambda meta: meta["encoder"].update(max_distance=0), "max_distance=0"),
    (lambda meta: meta["hyperparams"].update(windows=[4.0]), "windows: expected int, got 4.0"),
    (lambda meta: meta["encoder"].update(concept_len=5.0), "concept_len: expected int, got 5.0"),
    (lambda meta: meta["hyperparams"].update(d_c=200.0), "d_c: expected int, got 200.0"),
    (lambda meta: meta["hyperparams"].update(d_w=True), "d_w: expected int, got True"),
    (lambda meta: meta["hyperparams"].pop("loss"), "hyperparams: missing keys loss"),
    (lambda meta: meta.update(hyperparams=list(meta["hyperparams"].items())),
     "hyperparams: expected an object with keys"),
    (lambda meta: meta.update(vocab_sha256=123), "vocab_sha256: expected str, got 123"),
], ids=["m-12", "unknown-key", "wrong-type", "missing-windows", "missing-vocab-hash",
        "unknown-pooling", "zero-size", "zero-radius", "float-window", "float-concept-len",
        "float-filters", "bool-size", "missing-loss", "hyperparams-list", "numeric-hash"])
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
