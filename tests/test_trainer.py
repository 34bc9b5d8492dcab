"""Tests for the SGD loop, dev-based selection, splitting, and grid search."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from relcnn import trainer
from relcnn.encoding import UNK_ID, EncoderConfig, build_vocab, encode_instances
from relcnn.evaluator import evaluate
from relcnn.model import (
    HyperParams,
    apply_sgd,
    backward,
    forward,
    init_params,
    load_checkpoint,
    loss_classes,
    loss_from_trace,
    predict,
    predict_batch,
    save_checkpoint,
    score_chunk,
    sq_norm,
)
from relcnn.numeric import softmax
from relcnn.relations import CATEGORY_OF
from relcnn.synthgen import generate, placement_task_spec
from relcnn.trainer import (
    GridSpec,
    TrainConfig,
    TrainingDiverged,
    grid_search,
    initial_params,
    load_word_vectors,
    split_dev,
    train,
)

from conftest import three_category_corpus

ENC = EncoderConfig(max_distance=30, concept_len=3)


def _toy_corpus(n_per_type=16, seed=1):
    insts, _ = generate(placement_task_spec(sentences_per_type=n_per_type, seed=seed))
    vocab = build_vocab(insts, ENC)
    return encode_instances(insts, vocab, ENC), vocab


def _hp(**over):
    base = dict(d_w=8, d_p=2, d_ct=2, d_c=8, windows=(4,), dropout_p=0.0,
                beta=0.0, lr=0.05)
    base.update(over)
    return HyperParams(**base)


# ---------------------------------------------------------------------------
# split_dev
# ---------------------------------------------------------------------------


class TestSplitDev:
    def test_sizes_and_partition(self):
        items = list(range(10))
        tr, dev = split_dev(items, 0.2, seed=0)
        assert len(tr) == 8 and len(dev) == 2
        assert sorted(tr + dev) == items

    def test_deterministic_and_seed_sensitive(self):
        items = list(range(50))
        assert split_dev(items, 0.2, seed=3) == split_dev(items, 0.2, seed=3)
        assert split_dev(items, 0.2, seed=3) != split_dev(items, 0.2, seed=4)

    def test_rounding(self):
        tr, dev = split_dev(list(range(7)), 0.2, seed=0)  # round(1.4) = 1
        assert len(dev) == 1 and len(tr) == 6
        tr, dev = split_dev([0, 1], 0.5, seed=0)  # the smallest split: one and one
        assert len(dev) == 1 and len(tr) == 1 and sorted(tr + dev) == [0, 1]

    @pytest.mark.parametrize("n,frac", [(1, 0.2), (3, 0.9), (4, 0.05)])
    def test_degenerate_split_rejected(self, n, frac):
        # either side would be empty
        with pytest.raises(ValueError):
            split_dev(list(range(n)), frac, seed=0)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad,field", [
    (dict(epochs=-1), "epochs"),
    (dict(batch_size=0), "batch_size"),
    (dict(seed=-1), "seed"),
    (dict(dev_fraction=1.0), "dev_fraction"),
])
def test_train_config_rejects_out_of_range_values(bad, field):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**bad)


def test_train_is_deterministic_given_seed():
    encs, vocab = _toy_corpus()
    tr, dev = split_dev(encs, 0.25, seed=0)
    hp = _hp(dropout_p=0.3)
    cfg = TrainConfig(epochs=2, batch_size=3, seed=7)
    a = train(tr, dev, hp, cfg, vocab, ENC)
    b = train(tr, dev, hp, cfg, vocab, ENC)
    assert a.record == b.record  # wall time excluded from equality
    for name, arr in a.params.arrays().items():
        np.testing.assert_array_equal(arr, b.params.arrays()[name], err_msg=name)
    c = train(tr, dev, hp, TrainConfig(epochs=2, batch_size=3, seed=8), vocab, ENC)
    assert any(
        not np.array_equal(c.params.arrays()[n], a.params.arrays()[n])
        for n in a.params.arrays()
    )


def test_train_epochs_zero_returns_init_unchanged():
    encs, vocab = _toy_corpus(n_per_type=4)
    hp = _hp()
    rng = np.random.default_rng(5)
    init = init_params(hp, vocab.n_words, vocab.n_positions, ENC.concept_len, rng)
    res = train(encs[:6], encs[6:8], hp, TrainConfig(epochs=0, seed=0), vocab, ENC,
                init=init)
    assert res.record.n_epochs == 0
    assert res.record.best_epoch == -1
    for name, arr in res.params.arrays().items():
        np.testing.assert_array_equal(arr, init.arrays()[name], err_msg=name)
    assert res.params is not init  # defensive copy, not an alias


def test_train_loss_decreases_on_learnable_toy():
    encs, vocab = _toy_corpus()
    tr, dev = split_dev(encs, 0.25, seed=0)
    res = train(tr, dev, _hp(), TrainConfig(epochs=3, seed=0), vocab, ENC)
    assert res.record.train_loss[-1] < res.record.train_loss[0]
    assert res.record.n_epochs == 3


def test_train_best_epoch_is_first_argmax_of_dev_f1():
    encs, vocab = _toy_corpus()
    tr, dev = split_dev(encs, 0.25, seed=1)
    res = train(tr, dev, _hp(), TrainConfig(epochs=4, seed=2), vocab, ENC)
    f1 = res.record.dev_f1
    assert res.record.best_epoch == int(np.argmax(f1))


@pytest.mark.parametrize("batch_size", [2, 3])
def test_train_batch_gradients_are_averaged(batch_size):
    """One epoch over a single batch reproduces by hand, in the closed form
    ``apply_sgd`` applies to the summed gradients:
    W (1 - (lr/B) sum decay) - (lr/B) sum data, and for the word table
    s' = 1 - (lr/B) sum decay, U - (lr/B/s') sum data, folded to s' U at the
    epoch end.  Batch 3 pins the rounding at a batch size that is not a power
    of two."""
    encs, vocab = _toy_corpus(n_per_type=2)
    encs = encs[:batch_size]
    hp = _hp(beta=0.001)
    rng = np.random.default_rng(9)
    init = init_params(hp, vocab.n_words, vocab.n_positions, ENC.concept_len, rng)
    cfg = TrainConfig(epochs=1, batch_size=batch_size, seed=11)
    res = train(encs, encs, hp, cfg, vocab, ENC, init=init)

    # replicate: shuffle stream is the second spawn of the config seed
    _, shuffle_ss, _ = np.random.SeedSequence(cfg.seed).spawn(3)
    order = np.random.default_rng(shuffle_ss).permutation(batch_size)
    params = init.copy()
    data, decay = {}, {}
    for i in order:
        trace = forward(encs[int(i)], params, hp, train=True)
        for name, g in backward(trace, params, hp).items():
            dense = np.zeros(g.shape)  # the data part, scattered densely
            np.add.at(dense, g.ids, g.rows)
            data[name] = data[name] + dense if name in data else dense
            decay[name] = decay.get(name, 0.0) + g.decay
    assert {n for n, d in decay.items() if d} == {"w_word", "w_pos", "w_conv_0", "w_ctype"}
    lr = hp.lr / batch_size
    for name, arr in init.arrays().items():
        scale = 1.0 - lr * decay[name]
        if name == "w_word":
            expected = (arr - (lr / scale) * data[name]) * scale
        else:
            expected = arr * scale - lr * data[name]
        np.testing.assert_array_equal(res.params.arrays()[name], expected, err_msg=name)


@pytest.mark.parametrize("batch_size", [1, 3])
def test_train_loss_running_word_norm_matches_full_sum(monkeypatch, batch_size):
    """The running ||w_word||^2 reproduces the full-table L2 sum over 3 epochs."""
    encs, vocab = _toy_corpus()
    hp = _hp(beta=0.01)
    cfg = TrainConfig(epochs=3, batch_size=batch_size, seed=4)
    running = train(encs, encs, hp, cfg, vocab, ENC).record.train_loss
    full_sum = trainer.loss_from_trace
    monkeypatch.setattr(trainer, "loss_from_trace",
                        lambda trace, params, hp, word_sq: full_sum(trace, params, hp))
    full = train(encs, encs, hp, cfg, vocab, ENC).record.train_loss
    assert len(full) == 3
    np.testing.assert_allclose(running, full, rtol=1e-12, atol=0.0)


def _spy_on_steps(monkeypatch) -> list[tuple[float, bool]]:
    """Record each step's word scale after it, and whether it folded."""
    steps: list[tuple[float, bool]] = []
    original = trainer.apply_sgd

    def apply_sgd(params, grads, lr):
        folded = original(params, grads, lr)
        steps.append((params.word_scale, folded))
        return folded

    monkeypatch.setattr(trainer, "apply_sgd", apply_sgd)
    return steps


def test_train_loss_running_word_norm_across_folds(monkeypatch):
    """Under lr 2 beta = 0.4 ``apply_sgd`` folds the word scale twice in each
    32-step epoch; the running ||W||^2 still reproduces the full-table L2 sum."""
    encs, vocab = _toy_corpus()
    hp = _hp(beta=4.0, lr=0.05)
    cfg = TrainConfig(epochs=2, seed=4)
    steps = _spy_on_steps(monkeypatch)
    running = train(encs, encs, hp, cfg, vocab, ENC).record.train_loss
    assert sum(folded for _, folded in steps) >= 4
    full_sum = trainer.loss_from_trace
    monkeypatch.setattr(trainer, "loss_from_trace",
                        lambda trace, params, hp, word_sq: full_sum(trace, params, hp))
    full = train(encs, encs, hp, cfg, vocab, ENC).record.train_loss
    np.testing.assert_allclose(running, full, rtol=1e-12, atol=0.0)


def test_train_scores_returns_and_checkpoints_a_folded_table(monkeypatch, tmp_path):
    """Steps leave the word scale below 1; each epoch's scoring, the returned
    parameters and their checkpoint hold W itself, with scale 1."""
    encs, vocab = _toy_corpus()
    tr, dev = split_dev(encs, 0.25, seed=0)
    hp = _hp(beta=0.01)
    steps = _spy_on_steps(monkeypatch)
    scored_scales = []
    original_score = trainer._accuracy_and_f1

    def score(instances, params, hp):
        scored_scales.append(params.word_scale)
        return original_score(instances, params, hp)

    monkeypatch.setattr(trainer, "_accuracy_and_f1", score)
    res = train(tr, dev, hp, TrainConfig(epochs=2, seed=0), vocab, ENC)
    assert steps and all(scale < 1.0 for scale, _ in steps)
    assert scored_scales == [1.0] * 4  # train and dev, each epoch
    assert res.params.word_scale == 1.0
    path = tmp_path / "model.npz"
    save_checkpoint(path, res.params, hp, ENC, vocab_sha256="00" * 32)
    ckpt = load_checkpoint(path)
    assert ckpt.params.word_scale == 1.0
    for name, arr in res.params.arrays().items():
        assert ckpt.params.arrays()[name].tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("hp", [HyperParams(), HyperParams(d_c=400, windows=(3, 4, 5))],
                         ids=["defaults", "d_c400-windows345"])
def test_warm_training_step_allocates_no_parameter_sized_array(hp):
    """A warm batch-1 step, in the trainer's call sequence, peaks below the
    total size of the parameters other than w_word: no gradient, decay or
    squared-norm temporary of a convolution filter bank is allocated."""
    enc_cfg = EncoderConfig()
    insts, _ = generate(placement_task_spec(sentences_per_type=2, seed=0))
    vocab = build_vocab(insts, enc_cfg)
    encs = encode_instances(insts, vocab, enc_cfg)
    params = init_params(hp, vocab.n_words, vocab.n_positions, enc_cfg.concept_len,
                         np.random.default_rng(0))
    bound = sum(a.nbytes for name, a in params.arrays().items() if name != "w_word")
    dropout_rng = np.random.default_rng(1)

    def step(enc, workspace):
        trace = forward(enc, params, hp, train=True, dropout_rng=dropout_rng)
        loss_from_trace(trace, params, hp, sq_norm(params.w_word))
        grads = backward(trace, params, hp, out=workspace)
        apply_sgd(params, grads, hp.lr)
        return grads

    tracemalloc.start()
    try:
        workspace = step(encs[1], step(encs[0], None))
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step(encs[2], workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < bound, f"step peaked {peak - before} bytes above its start, bound {bound}"


@pytest.mark.parametrize("batch_size", [1, 3])
def test_warm_steps_of_train_allocate_no_parameter_sized_array(monkeypatch, batch_size):
    """Every warm step of ``train``, timed from the end of the step before, peaks
    below the bound of the batch-1 test above, also when a batch sums several
    samples' gradients."""
    hp, enc_cfg = HyperParams(), EncoderConfig()
    insts, _ = generate(placement_task_spec(sentences_per_type=8, seed=0))
    vocab = build_vocab(insts, enc_cfg)
    encs = encode_instances(insts, vocab, enc_cfg)
    cfg = TrainConfig(epochs=1, batch_size=batch_size, seed=0)
    params = trainer.initial_params(hp, cfg, vocab, enc_cfg)
    bound = sum(a.nbytes for name, a in params.arrays().items() if name != "w_word")
    peaks: list[int] = []
    step_start = 0
    original = trainer.apply_sgd

    def apply_sgd(params, grads, lr):
        nonlocal step_start
        folded = original(params, grads, lr)
        current, peak = tracemalloc.get_traced_memory()
        peaks.append(peak - step_start)
        step_start = current
        tracemalloc.reset_peak()
        return folded

    monkeypatch.setattr(trainer, "apply_sgd", apply_sgd)
    tracemalloc.start()
    try:
        train(encs, encs, hp, cfg, vocab, enc_cfg)
    finally:
        tracemalloc.stop()
    warm = peaks[2:]  # the first steps allocate the reused gradient arrays
    assert len(warm) >= 2 and max(warm) < bound, f"warm step peaks {warm}, bound {bound}"


def test_train_raises_when_a_parameter_goes_non_finite():
    """A NaN no sample looks up never reaches the loss; the epoch-end check names it."""
    encs, vocab = _toy_corpus(n_per_type=2)
    assert all(UNK_ID not in e.token_ids and UNK_ID not in e.content1_ids
               and UNK_ID not in e.content2_ids for e in encs)
    hp = _hp()  # beta=0: the L2 term, which would carry the NaN, is off
    init = init_params(hp, vocab.n_words, vocab.n_positions, ENC.concept_len,
                       np.random.default_rng(0))
    init.w_word[UNK_ID, 0] = np.nan
    with pytest.raises(TrainingDiverged, match="w_word is non-finite after epoch 0"):
        train(encs, encs, hp, TrainConfig(epochs=2, seed=0), vocab, ENC, init=init)


def test_train_empty_training_set_rejected():
    encs, vocab = _toy_corpus(n_per_type=2)
    with pytest.raises(ValueError):
        train([], encs, _hp(), TrainConfig(epochs=1), vocab, ENC)


def test_train_empty_dev_set_rejected_before_training(monkeypatch):
    encs, vocab = _toy_corpus(n_per_type=2)

    def no_step(*args, **kwargs):
        raise AssertionError("trained before rejecting the empty dev set")

    monkeypatch.setattr(trainer, "forward", no_step)
    with pytest.raises(ValueError, match="empty dev set"):
        train(encs, [], _hp(), TrainConfig(epochs=1), vocab, ENC)


@pytest.mark.parametrize("epochs", [0, 4])
def test_train_dev_report_scores_the_returned_params(epochs):
    encs, vocab = _toy_corpus()
    tr, dev = split_dev(encs, 0.25, seed=1)
    hp = _hp(beta=0.0005, lr=0.1, dropout_p=0.5)
    res = train(tr, dev, hp, TrainConfig(epochs=epochs, seed=6), vocab, ENC)
    rescored = evaluate([e.gold for e in dev], [predict(e, res.params, hp)[0] for e in dev])
    assert res.dev_report.to_dict() == rescored.to_dict()
    if epochs:
        best = res.record.best_epoch
        assert res.record.dev_f1[-1] < res.record.dev_f1[best]  # the last epoch is not the best
        assert res.dev_report.micro.f1 == res.record.dev_f1[best]
        assert np.trace(res.dev_report.confusion) / len(dev) == res.record.dev_acc[best]


def test_constrained_loss_decodes_within_the_pair_category():
    """Under the constrained loss a sample is predicted only as a class of its pair's
    category, and its probability row is the softmax over that category; trained on
    three categories at once, the model then scores the held-out set correctly."""
    corpora = [three_category_corpus(n, seed) for n, seed in ((10, 0), (10, 1), (20, 2))]
    vocab = build_vocab(corpora[0], ENC)
    tr, dev, test = (encode_instances(insts, vocab, ENC) for insts in corpora)
    hp = _hp(loss="constrained")
    cfg = TrainConfig(epochs=3, seed=0)
    params = initial_params(hp, cfg, vocab, ENC)
    labels, probs = predict_batch(test, params, hp)
    scores = score_chunk(test, params, hp)
    for enc, label, row, s in zip(test, labels, probs, scores):
        classes = loss_classes(enc.category, hp)
        assert CATEGORY_OF[label] is enc.category
        assert not row[: classes.start].any() and not row[classes.stop :].any()
        np.testing.assert_allclose(row[classes], softmax(s[classes]), rtol=1e-12)
    res = train(tr, dev, hp, cfg, vocab, ENC)
    labels, _ = predict_batch(test, res.params, hp)
    assert all(CATEGORY_OF[label] is enc.category for enc, label in zip(test, labels))
    assert evaluate([enc.gold for enc in test], labels).micro.f1 > 90.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverges_with_absurd_learning_rate():
    encs, vocab = _toy_corpus(n_per_type=4)
    with pytest.raises(TrainingDiverged, match="lr"):
        train(encs, encs, _hp(lr=1e12), TrainConfig(epochs=2, seed=0), vocab, ENC)


def test_record_to_dict_wall_time_toggle():
    encs, vocab = _toy_corpus(n_per_type=2)
    res = train(encs[:3], encs[3:], _hp(), TrainConfig(epochs=1, seed=0), vocab, ENC)
    with_time = res.record.to_dict()
    without = res.record.to_dict(include_wall_time=False)
    assert "wall_time_s" in with_time
    assert "wall_time_s" not in without
    assert without["best_epoch"] == res.record.best_epoch


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


def test_grid_spec_cells_cartesian_order():
    spec = GridSpec(d_p=(2, 3), d_c=(4,), lr=(0.1,), beta=(0.0001,), windows=((4,),))
    cells = spec.cells()
    assert [c["d_p"] for c in cells] == [2, 3]
    assert all(c["windows"] == (4,) for c in cells)


def test_grid_spec_reference_axes_shape():
    cells = GridSpec().cells()
    assert len(cells) == 4 * 4 * 5 * 4
    assert {"d_p": 10, "d_c": 200, "lr": 0.075, "beta": 0.0005, "windows": (4,)} in cells


def test_grid_spec_rejects_empty_axis():
    with pytest.raises(ValueError):
        GridSpec(lr=())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_search_ranks_cells_and_marks_divergence():
    encs, vocab = _toy_corpus(n_per_type=6)
    tr, dev = split_dev(encs, 0.25, seed=0)
    grid = GridSpec(d_p=(2,), d_c=(6,), lr=(0.05, 1e12), beta=(0.0,), windows=((4,),))
    cfg = TrainConfig(epochs=2, seed=0)
    results = grid_search(tr, dev, _hp(), grid, cfg, vocab, ENC)
    assert len(results) == 2
    winner, loser = results
    assert not winner.failed
    assert winner.cell["lr"] == 0.05
    assert loser.failed
    assert loser.dev_f1 == float("-inf")
    assert "lr" in loser.error


def test_grid_search_matches_single_train_run():
    encs, vocab = _toy_corpus(n_per_type=6)
    tr, dev = split_dev(encs, 0.25, seed=0)
    base = _hp()
    grid = GridSpec(d_p=(base.d_p,), d_c=(base.d_c,), lr=(base.lr,),
                    beta=(base.beta,), windows=(base.windows,))
    cfg = TrainConfig(epochs=2, seed=3)
    [cell] = grid_search(tr, dev, base, grid, cfg, vocab, ENC)
    solo = train(tr, dev, base, TrainConfig(epochs=2, seed=3), vocab, ENC)
    assert cell.dev_f1 == pytest.approx(max(solo.record.dev_f1), abs=0)
    assert cell.best_epoch == solo.record.best_epoch


def test_grid_search_tie_preserves_enumeration_order():
    encs, vocab = _toy_corpus(n_per_type=4)
    tr, dev = split_dev(encs, 0.25, seed=0)
    # duplicate axis value produces two identical cells -> exact tie
    grid = GridSpec(d_p=(2, 2), d_c=(6,), lr=(0.05,), beta=(0.0,), windows=((4,),))
    cfg = TrainConfig(epochs=1, seed=0)
    results = grid_search(tr, dev, _hp(), grid, cfg, vocab, ENC)
    assert [r.order for r in results] == [0, 1]
    assert results[0].dev_f1 == results[1].dev_f1


def test_grid_search_at_zero_epochs_scores_each_cells_initialization():
    encs, vocab = _toy_corpus(n_per_type=4)
    tr, dev = split_dev(encs, 0.25, seed=0)
    grid = GridSpec(d_p=(2, 3), d_c=(6,), lr=(0.05,), beta=(0.0,), windows=((3,), (4,)))
    cfg = TrainConfig(epochs=0, seed=2)
    results = grid_search(tr, dev, _hp(), grid, cfg, vocab, ENC)
    assert len(results) == 4
    for res in results:
        solo = train(tr, dev, _hp(**res.cell), cfg, vocab, ENC)
        assert res.dev_f1 == solo.dev_report.micro.f1
        assert res.best_epoch == -1
    assert len({res.dev_f1 for res in results}) > 1  # not one placeholder score


def test_grid_search_rejects_an_invalid_cell_before_training_any(monkeypatch):
    encs, vocab = _toy_corpus(n_per_type=2)
    tr, dev = split_dev(encs, 0.25, seed=0)
    grid = GridSpec(d_p=(2,), d_c=(6,), lr=(0.05,), beta=(0.0,), windows=((4,), ()))
    monkeypatch.setattr(trainer, "train", lambda *a, **k: pytest.fail("a cell was trained"))
    with pytest.raises(ValueError, match="windows"):
        grid_search(tr, dev, _hp(), grid, TrainConfig(epochs=1), vocab, ENC)


# ---------------------------------------------------------------------------
# Pretrained word vectors
# ---------------------------------------------------------------------------


def test_load_word_vectors(tmp_path):
    encs, vocab = _toy_corpus(n_per_type=2)
    hp = _hp()
    params = init_params(hp, vocab.n_words, vocab.n_positions, ENC.concept_len,
                         np.random.default_rng(0))
    words = sorted(vocab.word_ids, key=vocab.word_ids.get)
    w_known1, w_known2 = words[4], words[5]
    path = tmp_path / "vecs.txt"
    path.write_text(
        f"3 {hp.d_w}\n"
        f"{w_known1} " + " ".join(["0.25"] * hp.d_w) + "\n"
        f"{w_known2} " + " ".join(["-1.5"] * hp.d_w) + "\n"
        "zzz-not-in-vocab " + " ".join(["9.9"] * hp.d_w) + "\n"
    )
    before_unk = params.w_word[1].copy()
    n = load_word_vectors(path, vocab, params.w_word)
    assert n == 2
    np.testing.assert_array_equal(params.w_word[vocab.word_ids[w_known1]], 0.25)
    np.testing.assert_array_equal(params.w_word[vocab.word_ids[w_known2]], -1.5)
    np.testing.assert_array_equal(params.w_word[1], before_unk)  # UNK untouched


def test_load_word_vectors_dim_mismatch(tmp_path):
    encs, vocab = _toy_corpus(n_per_type=2)
    params = init_params(_hp(), vocab.n_words, vocab.n_positions, ENC.concept_len,
                         np.random.default_rng(0))
    path = tmp_path / "vecs.txt"
    words = sorted(vocab.word_ids, key=vocab.word_ids.get)
    path.write_text(f"{words[4]} 0.5 0.5\n")
    with pytest.raises(ValueError, match="expected .* values"):
        load_word_vectors(path, vocab, params.w_word)
