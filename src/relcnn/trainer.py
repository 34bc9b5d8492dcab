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
import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence, TypeVar

import numpy as np

from .corpus import not_utf8
from .encoding import EncodedInstance, EncoderConfig, Vocab
from .evaluator import EvalReport, evaluate
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
    sq_norm,
)

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
        for f in fields(self):
            if not getattr(self, f.name):
                raise ValueError(f"grid axis {f.name} must be nonempty")

    def cells(self) -> list[dict]:
        """Cartesian product in axis order; enumeration order is the tie-break."""
        names = [f.name for f in fields(self)]
        return [
            dict(zip(names, values))
            for values in itertools.product(*(getattr(self, name) for name in names))
        ]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 1
    seed: int = 0
    dev_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0: {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0: {self.seed}")
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
    dev_report: EvalReport  # dev scores of `params`


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
) -> tuple[float, float, EvalReport]:
    gold = [enc.gold for enc in instances]
    report = evaluate(gold, [predict(enc, params, hp)[0] for enc in instances])
    return int(np.trace(report.confusion)) / report.n, report.micro.f1, report


def _seed_streams(seed: int) -> list[np.random.SeedSequence]:
    """The root seed's independent streams: initialization, shuffling, dropout."""
    return np.random.SeedSequence(seed).spawn(3)


def initial_params(
    hp: HyperParams, cfg: TrainConfig, vocab: Vocab, enc_cfg: EncoderConfig
) -> ModelParams:
    """The parameters `train` starts from when it is given no `init`."""
    return init_params(
        hp,
        n_words=vocab.n_words,
        n_positions=vocab.n_positions,
        concept_len=enc_cfg.concept_len,
        rng=np.random.default_rng(_seed_streams(cfg.seed)[0]),
    )


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

    Each epoch: shuffle, then per batch one forward/backward per sample and
    one update with the batch's summed gradients at rate lr / batch size,
    which steps along their mean.  After the epoch the model is scored
    in inference mode on both splits; the parameters with the highest dev
    micro-F1 so far are snapshotted with their dev report.  epochs=0
    returns the initialization unchanged, scored on dev once.  A non-finite
    loss, or a parameter array that is not finite at the end of an epoch,
    aborts with TrainingDiverged.

    Within an epoch the word table is W = s U (``ModelParams``): each step
    scales s and writes only the rows it touched.  Each epoch ends by
    folding s into U, so the scoring, the snapshots and the returned
    parameters hold W itself.  The reported loss takes ||W||^2 as s^2 times
    a running ||U||^2: summed over the whole table at the start of each
    epoch, then updated after every step from the rows the step touched,
    and summed afresh only after a step that folded.  So no step pays for
    the whole vocabulary.

    The first sample of each batch writes its gradients into the arrays of
    the gradients the previous step consumed (``backward``'s `out`); every
    later sample writes into a second set, reused across steps, which is
    added in place (``RowGrad.__iadd__``).  So a step of any batch size
    allocates no array the size of a parameter.
    """
    if not train_insts:
        raise ValueError("empty training set")
    if not dev_insts:
        raise ValueError("empty dev set: no split to select the best epoch on")
    started = time.perf_counter()
    _, shuffle_ss, dropout_ss = _seed_streams(cfg.seed)
    params = init.copy() if init is not None else initial_params(hp, cfg, vocab, enc_cfg)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    dropout_rng = np.random.default_rng(dropout_ss)

    record = TrainRecord()
    best = params.copy()
    best_report: EvalReport | None = None
    grads: dict[str, RowGrad] | None = None
    extra: dict[str, RowGrad] | None = None
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(train_insts))
        losses: list[float] = []
        stored_sq = sq_norm(params.w_word)
        for lo in range(0, len(order), cfg.batch_size):
            batch = [train_insts[int(i)] for i in order[lo : lo + cfg.batch_size]]
            for n, enc in enumerate(batch):
                trace = forward(enc, params, hp, train=True, dropout_rng=dropout_rng)
                word_sq = params.word_scale * params.word_scale * stored_sq
                loss = loss_from_trace(trace, params, hp, word_sq)
                if not math.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}: lr={hp.lr} is too high "
                        f"for this data/model (loss={loss})"
                    )
                losses.append(loss)
                if n == 0:
                    grads = backward(trace, params, hp, out=grads)
                else:
                    extra = backward(trace, params, hp, out=extra)
                    for name, g in grads.items():
                        g += extra[name]
            ids = grads["w_word"].ids
            touched_sq = sq_norm(params.w_word.take(ids, axis=0))
            if apply_sgd(params, grads, hp.lr / len(batch)):
                stored_sq = sq_norm(params.w_word)
            else:  # the stored rows the step did not touch are unchanged
                stored_sq += sq_norm(params.w_word.take(ids, axis=0)) - touched_sq

        params.fold()
        for name, arr in params.arrays().items():
            if not np.all(np.isfinite(arr)):
                raise TrainingDiverged(
                    f"parameter {name} is non-finite after epoch {epoch}: lr={hp.lr} "
                    "is too high for this data/model"
                )
        train_acc, _, _ = _accuracy_and_f1(train_insts, params, hp)
        dev_acc, dev_f1, dev_report = _accuracy_and_f1(dev_insts, params, hp)
        record.train_loss.append(float(np.mean(losses)))
        record.train_acc.append(train_acc)
        record.dev_acc.append(dev_acc)
        record.dev_f1.append(dev_f1)
        if best_report is None or dev_f1 > best_report.micro.f1:
            best = params.copy()
            best_report = dev_report
            record.best_epoch = epoch

    if best_report is None:
        best_report = _accuracy_and_f1(dev_insts, best, hp)[2]
    record.wall_time_s = time.perf_counter() - started
    return TrainResult(params=best, record=record, dev_report=best_report)


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
    grid: GridSpec,
    cfg: TrainConfig,
    vocab: Vocab,
    enc_cfg: EncoderConfig,
) -> list[GridCellResult]:
    """Train every grid cell with the same seed; rank by dev micro-F1.

    A cell sets the GridSpec axes; every other hyperparameter comes from
    base_hp.  A cell's score is the dev micro-F1 of the parameters `train`
    returns (the initialization when cfg.epochs is 0).  Diverging cells are
    marked failed and rank last.  Ties keep grid enumeration order (stable
    sort).
    """
    cells = grid.cells()
    hps = [replace(base_hp, **cell) for cell in cells]  # reject a bad cell before any trains
    results: list[GridCellResult] = []
    for order, (cell, hp) in enumerate(zip(cells, hps)):
        try:
            result = train(train_insts, dev_insts, hp, cfg, vocab, enc_cfg)
            results.append(
                GridCellResult(order, cell, result.dev_report.micro.f1, result.record.best_epoch)
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
    A value that is not a finite number is an error naming the file and line.
    """
    d_w = w_word.shape[1]
    loaded = 0
    try:
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
                try:
                    row = np.array([float(v) for v in values])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if not np.isfinite(row).all():
                    raise ValueError(f"{path}:{lineno}: non-finite value for {word!r}")
                w_word[vocab.word_ids[word]] = row
                loaded += 1
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    return loaded
