"""SGD training loop: shuffling, dev-split model selection, grid search.

Training is deliberately plain: batch size 1 by default, constant
learning rate, no momentum or schedules.  Determinism is a contract:
(seed, data, config) fix every parameter value at every step.  The root
seed spawns independent streams for initialization, per-epoch shuffling
and dropout, so changing the epoch count does not perturb earlier
epochs.

Model selection keeps the parameters from the epoch with the best dev
micro-F1 (earliest epoch wins ties), never simply the last epoch.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, TypeVar

import numpy as np

from .encoding import EncodedInstance, EncoderConfig, Vocab
from .evaluator import evaluate
from .model import (
    HyperParams,
    ModelParams,
    RowGrad,
    apply_sgd,
    backward,
    forward,
    init_params,
    loss_from_trace,
    predict,
)
from .relations import CLASS_INDEX, RelationType

T = TypeVar("T")


class TrainingDiverged(RuntimeError):
    """Loss or a parameter array became non-finite; the learning rate is almost
    certainly too high."""


@dataclass(frozen=True)
class GridSpec:
    """Axes of the hyperparameter sweep.  Defaults are the reference grids."""

    d_p: tuple[int, ...] = (5, 10, 20, 30)
    d_c: tuple[int, ...] = (100, 200, 300, 400)
    lr: tuple[float, ...] = (0.01, 0.025, 0.05, 0.075, 0.1)
    beta: tuple[float, ...] = (0.00005, 0.0001, 0.0005, 0.001)
    windows: tuple[tuple[int, ...], ...] = ((4,),)

    def __post_init__(self) -> None:
        for name in ("d_p", "d_c", "lr", "beta", "windows"):
            if not getattr(self, name):
                raise ValueError(f"grid axis {name} must be nonempty")

    def cells(self) -> list[dict]:
        """Cartesian product in axis order; enumeration order is the tie-break."""
        return [
            {"d_p": p, "d_c": c, "lr": lr, "beta": b, "windows": tuple(w)}
            for p, c, lr, b, w in itertools.product(
                self.d_p, self.d_c, self.lr, self.beta, self.windows
            )
        ]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 1
    seed: int = 0
    dev_fraction: float = 0.2
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0: {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {self.batch_size}")
        if not 0.0 < self.dev_fraction < 1.0:
            raise ValueError(f"dev_fraction must lie in (0, 1): {self.dev_fraction}")


@dataclass
class TrainRecord:
    """Per-epoch curves plus the selected epoch.

    `wall_time_s` is excluded from equality: with a fixed seed every other
    field is bit-identical across runs, and deterministic outputs must not
    embed timings.
    """

    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    dev_acc: list[float] = field(default_factory=list)
    dev_f1: list[float] = field(default_factory=list)
    best_epoch: int = -1
    wall_time_s: float = field(default=0.0, compare=False)

    @property
    def n_epochs(self) -> int:
        return len(self.dev_f1)

    def to_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "train_loss": self.train_loss,
            "train_acc": self.train_acc,
            "dev_acc": self.dev_acc,
            "dev_f1": self.dev_f1,
            "best_epoch": self.best_epoch,
        }
        if include_wall_time:
            out["wall_time_s"] = self.wall_time_s
        return out


@dataclass
class TrainResult:
    params: ModelParams
    record: TrainRecord


def split_dev(
    instances: Sequence[T], fraction: float, seed: int
) -> tuple[list[T], list[T]]:
    """Random (train, dev) partition; dev gets round(fraction * N) items."""
    n = len(instances)
    if n < 2:
        raise ValueError(f"need at least 2 instances to split, got {n}")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"dev fraction must lie in (0, 1): {fraction}")
    n_dev = int(round(fraction * n))
    if n_dev == 0 or n_dev == n:
        raise ValueError(
            f"degenerate split: {n} instances at fraction {fraction} gives dev size {n_dev}"
        )
    order = np.random.default_rng(np.random.SeedSequence(seed)).permutation(n)
    dev_idx = set(int(i) for i in order[:n_dev])
    train = [instances[i] for i in range(n) if i not in dev_idx]
    dev = [instances[i] for i in range(n) if i in dev_idx]
    return train, dev


def _accuracy_and_f1(
    instances: Sequence[EncodedInstance], params: ModelParams, hp: HyperParams
) -> tuple[float, float, list[RelationType]]:
    preds = [predict(enc, params, hp)[0] for enc in instances]
    gold = [enc.gold for enc in instances]
    acc = float(np.mean([p == g for p, g in zip(preds, gold)])) if instances else 0.0
    f1 = evaluate(gold, preds).micro.f1 if instances else 0.0
    return acc, f1, preds


def _sq_norm(rows: np.ndarray) -> float:
    return float(np.vdot(rows, rows))


def train(
    train_insts: Sequence[EncodedInstance],
    dev_insts: Sequence[EncodedInstance],
    hp: HyperParams,
    cfg: TrainConfig,
    vocab: Vocab,
    enc_cfg: EncoderConfig,
    init: ModelParams | None = None,
) -> TrainResult:
    """SGD with per-epoch shuffling; returns the best-dev-epoch parameters.

    Each epoch: shuffle, then one forward/backward/update per batch
    (batch gradients are averaged).  After the epoch the model is scored
    in inference mode on both splits; the parameters with the highest dev
    micro-F1 so far are snapshotted.  epochs=0 returns the initialization
    unchanged.  A non-finite loss, or a parameter array that is not finite
    at the end of an epoch, aborts with TrainingDiverged.

    The reported loss takes ||w_word||^2 from a running value: summed over
    the whole table at the start of each epoch, then updated after every
    step from the rows the step touched, so no step pays for the whole
    vocabulary.
    """
    if not train_insts:
        raise ValueError("empty training set")
    started = time.perf_counter()
    init_ss, shuffle_ss, dropout_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    if init is not None:
        params = init.copy()
    else:
        params = init_params(
            hp,
            n_words=vocab.n_words,
            n_positions=vocab.n_positions,
            concept_len=enc_cfg.concept_len,
            rng=np.random.default_rng(init_ss),
        )
    shuffle_rng = np.random.default_rng(shuffle_ss)
    dropout_rng = np.random.default_rng(dropout_ss)

    record = TrainRecord()
    best = params.copy()
    best_f1 = -1.0
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(train_insts))
        losses: list[float] = []
        word_sq = float(np.sum(params.w_word**2))
        for lo in range(0, len(order), cfg.batch_size):
            batch = [train_insts[int(i)] for i in order[lo : lo + cfg.batch_size]]
            summed: dict[str, np.ndarray | RowGrad] | None = None
            for enc in batch:
                trace = forward(enc, params, hp, train=True, dropout_rng=dropout_rng)
                loss = loss_from_trace(trace, params, hp, word_sq)
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}: lr={hp.lr} is too high "
                        f"for this data/model (loss={loss})"
                    )
                losses.append(loss)
                grads = backward(trace, CLASS_INDEX[enc.gold], params, hp)
                if summed is None:
                    summed = grads
                else:
                    for name in summed:
                        summed[name] += grads[name]
            assert summed is not None
            if len(batch) > 1:
                for name in summed:
                    summed[name] /= len(batch)
            # Untouched rows are only scaled, so their squared norm scales by scale^2.
            word = summed["w_word"]
            touched_sq = _sq_norm(params.w_word[word.ids])
            apply_sgd(params, summed, hp.lr)
            scale = 1.0 - hp.lr * word.decay
            word_sq = scale * scale * (word_sq - touched_sq) + _sq_norm(params.w_word[word.ids])

        for name, arr in params.arrays().items():
            if not np.all(np.isfinite(arr)):
                raise TrainingDiverged(
                    f"parameter {name} is non-finite after epoch {epoch}: lr={hp.lr} "
                    "is too high for this data/model"
                )
        train_acc, _, _ = _accuracy_and_f1(train_insts, params, hp)
        dev_acc, dev_f1, _ = _accuracy_and_f1(dev_insts, params, hp)
        record.train_loss.append(float(np.mean(losses)))
        record.train_acc.append(train_acc)
        record.dev_acc.append(dev_acc)
        record.dev_f1.append(dev_f1)
        if dev_f1 > best_f1:
            best_f1 = dev_f1
            best = params.copy()
            record.best_epoch = epoch

    record.wall_time_s = time.perf_counter() - started
    return TrainResult(params=best, record=record)


@dataclass
class GridCellResult:
    order: int  # enumeration index within the grid
    cell: dict
    dev_f1: float
    best_epoch: int
    failed: bool = False
    error: str = ""


def grid_search(
    train_insts: Sequence[EncodedInstance],
    dev_insts: Sequence[EncodedInstance],
    base_hp: HyperParams,
    cfg: TrainConfig,
    vocab: Vocab,
    enc_cfg: EncoderConfig,
) -> list[GridCellResult]:
    """Train every grid cell with the same seed; rank by dev micro-F1.

    Cells only vary d_p, d_c, lr, beta and windows; everything else comes
    from base_hp.  Diverging cells are marked failed and rank last.
    Ties keep grid enumeration order (stable sort).
    """
    results: list[GridCellResult] = []
    for order, cell in enumerate(cfg.grid.cells()):
        hp = HyperParams(
            **{
                **base_hp.__dict__,
                "d_p": cell["d_p"],
                "d_c": cell["d_c"],
                "lr": cell["lr"],
                "beta": cell["beta"],
                "windows": cell["windows"],
            }
        )
        try:
            result = train(train_insts, dev_insts, hp, cfg, vocab, enc_cfg)
            dev_f1 = result.record.dev_f1[result.record.best_epoch] if result.record.n_epochs else 0.0
            results.append(
                GridCellResult(order, cell, dev_f1, result.record.best_epoch)
            )
        except TrainingDiverged as exc:
            results.append(
                GridCellResult(order, cell, float("-inf"), -1, failed=True, error=str(exc))
            )
    results.sort(key=lambda r: (r.failed, -r.dev_f1))
    return results


def load_word_vectors(path: str | Path, vocab: Vocab, w_word: np.ndarray) -> int:
    """Overwrite embedding rows from a text file of "word v1 ... vd" lines.

    An optional "N d" header line is accepted.  Words missing from the
    vocabulary are skipped; vocabulary words missing from the file keep
    their current (random) rows.  Returns the number of rows replaced.
    """
    d_w = w_word.shape[1]
    loaded = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and all(p.isdigit() for p in parts):
                continue  # header
            word, values = parts[0], parts[1:]
            if len(values) != d_w:
                raise ValueError(
                    f"{path}:{lineno}: expected {d_w} values for {word!r}, got {len(values)}"
                )
            if word not in vocab.word_ids:
                continue
            w_word[vocab.word_ids[word]] = np.array([float(v) for v in values])
            loaded += 1
    return loaded
