"""Tests for the SGD loop, dev-based selection, splitting, and grid search."""

from __future__ import annotations

import numpy as np
import pytest

from relcnn import trainer
from relcnn.encoding import UNK_ID, EncoderConfig, build_vocab, encode_instances
from relcnn.model import HyperParams, backward, forward, init_params, loss_from_trace
from relcnn.relations import CLASS_INDEX
from relcnn.synthgen import generate, placement_task_spec
from relcnn.trainer import (
    GridSpec,
    TrainConfig,
    TrainingDiverged,
    grid_search,
    load_word_vectors,
    split_dev,
    train,
)

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

    @pytest.mark.parametrize("n,frac", [(1, 0.2), (3, 0.9), (4, 0.05)])
    def test_degenerate_split_rejected(self, n, frac):
        # either side would be empty
        with pytest.raises(ValueError):
            split_dev(list(range(n)), frac, seed=0)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


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


def test_train_batch_gradients_are_averaged():
    """One epoch over two instances in a single batch reproduces by hand."""
    encs, vocab = _toy_corpus(n_per_type=1)  # two instances total
    hp = _hp(beta=0.001)
    rng = np.random.default_rng(9)
    init = init_params(hp, vocab.n_words, vocab.n_positions, ENC.concept_len, rng)
    cfg = TrainConfig(epochs=1, batch_size=2, seed=11)
    res = train(encs, encs, hp, cfg, vocab, ENC, init=init)

    # replicate: shuffle stream is the second spawn of the config seed
    _, shuffle_ss, _ = np.random.SeedSequence(cfg.seed).spawn(3)
    order = np.random.default_rng(shuffle_ss).permutation(2)
    params = init.copy()
    summed = {}
    for i in order:
        trace = forward(encs[int(i)], params, hp, train=True)
        grads = backward(trace, CLASS_INDEX[encs[int(i)].gold], params, hp)
        for name, g in grads.items():
            if name == "w_word":
                # the data part, scattered densely; decay is handled below
                g = np.zeros(g.shape)
                np.add.at(g, grads[name].ids, grads[name].rows)
            summed[name] = g if name not in summed else summed[name] + g
    for name, arr in init.arrays().items():
        step = hp.lr * (summed[name] / 2)
        if name == "w_word":
            expected = arr * (1.0 - hp.lr * 2.0 * hp.beta) - step
        else:
            expected = arr - step
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
    cfg = TrainConfig(epochs=2, seed=0, grid=grid)
    results = grid_search(tr, dev, _hp(), cfg, vocab, ENC)
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
    cfg = TrainConfig(epochs=2, seed=3, grid=grid)
    [cell] = grid_search(tr, dev, base, cfg, vocab, ENC)
    solo = train(tr, dev, base, TrainConfig(epochs=2, seed=3), vocab, ENC)
    assert cell.dev_f1 == pytest.approx(max(solo.record.dev_f1), abs=0)
    assert cell.best_epoch == solo.record.best_epoch


def test_grid_search_tie_preserves_enumeration_order():
    encs, vocab = _toy_corpus(n_per_type=4)
    tr, dev = split_dev(encs, 0.25, seed=0)
    # duplicate axis value produces two identical cells -> exact tie
    grid = GridSpec(d_p=(2, 2), d_c=(6,), lr=(0.05,), beta=(0.0,), windows=((4,),))
    cfg = TrainConfig(epochs=1, seed=0, grid=grid)
    results = grid_search(tr, dev, _hp(), cfg, vocab, ENC)
    assert [r.order for r in results] == [0, 1]
    assert results[0].dev_f1 == results[1].dev_f1


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
