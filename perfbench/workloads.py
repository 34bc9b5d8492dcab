"""The three benchmark workloads, their output checks and their metrics.

Every workload builds its inputs from the workload seed with ``synthgen``
and hands the program only those inputs.  All runs use default
``HyperParams`` and batch size 1.  A workload is a ``setup`` (corpus
generation, vocabulary, encoding) followed by repeated ``cycle`` calls,
each of which is one complete, deterministic pass a user would make:

* ``train-synth``: the placement preset (V ~ 140 words, 18-26 tokens).
  ``trainer.train`` for a fixed number of epochs, then save and reload the
  checkpoint and score a held-out set.  Convolution GEMMs, pooling and the
  per-epoch scoring dominate; vocabulary-sized work is small.
* ``train-clinical``: the same task with every one of synthgen's 26**3
  filler words in the pool and 30-50-token sentences, which gives a
  clinical-scale vocabulary (~10k words).  The dense whole-vocabulary work
  (L2 sum in the loss, dense gradients, 2*beta*W, full-table SGD)
  dominates each step.
* ``pipeline-cli``: ``relcnn synth -> train -> predict -> eval --bootstrap``
  in-process through ``relcnn.cli.main``, with short training and a large
  held-out file, so scoring, evaluation, corpus I/O, manifests and
  checkpoints carry most of the time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from relcnn import cli, corpus, encoding, evaluator, model, synthgen, trainer
from relcnn.relations import POSITIVE_TYPES, RELATION_TYPES, RelationType

import spans as spanlib


HELDOUT_SEED_OFFSET = 1_000_003  # held-out corpus seed = workload seed + offset
N_SCORE_PROBES = 200  # held-out instances for the score and loss probes
SETUP_PROBES = 8  # set-up probes an untraced run makes, spread evenly over it
BOOTSTRAP_RESAMPLES = 1000  # pipeline-cli's eval --bootstrap
TRAIN_CHUNK = 32  # training steps per timed chunk
PREDICT_CHUNK = 50  # model.predict calls per timed chunk
SCORE_EVERY_S = 0.2  # train-* untraced runs score a chunk this often during training
# Timed metrics come from the fast end of the run: the 99th percentile of
# the unit rates, and the shortest cycle.  The shared host runs each vCPU at
# two speeds about 1.5x apart and switches between them every few seconds to
# minutes, so a run-wide mean or median depends on the mix of speeds in that
# run, and the slow speed itself wanders by 10-20%.  The fast speed is
# steady to a few percent, nothing runs faster than it, and nearly every run
# spends part of its time there, so the fast end is a steady figure.
FAST_PERCENTILE = 99

# (name, unit, better) for the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("train_inst_per_s", "1/s", "higher"),
    ("predict_inst_per_s", "1/s", "higher"),
    ("pipeline_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("dev_micro_f1", "%", "higher"),
    ("final_train_loss", "nats", "lower"),
)

# (name, unit) for the per-layer metrics every workload's traced run gives.
PER_LAYER = (
    ("model.embed_us", "us"),
    ("model.convolve_us", "us"),
    ("model.pool_us", "us"),
    ("model.concept_features_us", "us"),
    ("model.score_us", "us"),
    ("model.forward_us", "us"),
    ("model.loss_us", "us"),
    ("model.backward_us", "us"),
    ("model.apply_sgd_us", "us"),
    ("model.predict_us", "us"),
    ("model.grad_bytes_per_step", "bytes"),
    ("model.word_rows_touched_share", "ratio"),
    ("model.save_checkpoint_s", "s"),
    ("model.load_checkpoint_s", "s"),
    ("trainer.step_ms_p50", "ms"),
    ("trainer.step_ms_p99", "ms"),
    ("trainer.step_samples", "count"),
    ("trainer.eval_share", "ratio"),
    ("trainer.self_share", "ratio"),
    ("evaluator.evaluate_ms", "ms"),
    ("evaluator.evaluate_n", "count"),
    ("encoding.build_vocab_s", "s"),
    ("encoding.encode_us", "us"),
    ("synthgen.generate_s", "s"),
    ("synthgen.self_check_s", "s"),
)

# Per-layer metrics of layers only pipeline-cli calls.  They are printed
# and written to the result file, not put in the final JSON line, because
# the other workloads have no value for them.
PIPELINE_LAYER = (
    ("evaluator.bootstrap_s", "s"),
    ("evaluator.bootstrap_n", "count"),
    ("corpus.read_instances_s", "s"),
    ("corpus.write_instances_s", "s"),
    ("cli.synth_s", "s"),
    ("cli.train_s", "s"),
    ("cli.predict_s", "s"),
    ("cli.eval_s", "s"),
    ("cli.manifest_s", "s"),
)


@dataclass(frozen=True)
class Sizes:
    train_per_type: int  # sentences per label in the training corpus
    heldout_per_type: int  # sentences per label in the held-out corpus
    epochs: int
    filler_pool: int = 120  # SynthSpec.vocab_size
    len_lo: int = 18
    len_hi: int = 26


SIZES = {
    "train-synth": Sizes(train_per_type=300, heldout_per_type=1000, epochs=2),
    "train-clinical": Sizes(
        train_per_type=250,
        heldout_per_type=500,
        epochs=2,
        filler_pool=26**3,  # synthgen names filler words with three letters
        len_lo=30,
        len_hi=50,
    ),
    "pipeline-cli": Sizes(train_per_type=100, heldout_per_type=400, epochs=2),
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


@dataclass
class Checks:
    """Operations attempted and failed; every check is one operation."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def micro_f1(gold: list[RelationType], pred: list[RelationType]) -> float:
    """Micro-F1 in percent over the positive types, recomputed independently."""
    positive = set(POSITIVE_TYPES)
    tp = sum(1 for g, p in zip(gold, pred) if g == p and p in positive)
    fp = sum(1 for g, p in zip(gold, pred) if g != p and p in positive)
    fn = sum(1 for g, p in zip(gold, pred) if g != p and g in positive)
    prec = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    rec = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    return 2.0 * prec * rec / (prec + rec) if prec + rec else 0.0


def check_losses(checks: Checks, losses: list[float]) -> None:
    for epoch, loss in enumerate(losses):
        checks.check(math.isfinite(loss), f"epoch {epoch} mean training loss is {loss}")


def check_prediction(checks: Checks, label, probs) -> None:
    probs = np.asarray(probs, dtype=np.float64)
    ok = (
        isinstance(label, RelationType)
        and probs.shape == (len(RELATION_TYPES),)
        and bool(np.all(np.isfinite(probs)))
        and bool(np.all(probs >= 0.0))
        and abs(float(probs.sum()) - 1.0) <= 1e-9
    )
    checks.check(ok, f"invalid prediction {label!r} with probabilities {probs}")


def check_f1(checks: Checks, reported: float, gold, pred) -> None:
    expected = micro_f1(list(gold), list(pred))
    checks.check(
        abs(reported - expected) <= 1e-9,
        f"reported micro-F1 {reported} differs from recomputed {expected}",
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def weights_sum_of_squares(params) -> float:
    """Sum of squares of the parameter arrays named ``w_*``; biases are not regularized."""
    return sum(float(np.sum(a * a)) for n, a in params.arrays().items() if n.startswith("w_"))


def check_loss_recomputed(checks: Checks, trace, params, hp, l2: float) -> None:
    """loss_from_trace equals cross-entropy plus beta * l2, for the softmax loss
    that default HyperParams select."""
    s = np.asarray(trace.scores, dtype=np.float64)
    top = float(np.max(s))
    nll = top + math.log(float(np.sum(np.exp(s - top)))) - float(s[_CLASS[trace.enc.gold]])
    expected = nll + hp.beta * l2
    got = model.loss_from_trace(trace, params, hp)
    checks.check(abs(got - expected) <= 1e-9 * max(1.0, abs(expected)),
                 f"loss_from_trace {got} differs from recomputed {expected}")


def fast_rate(rates: list[float]) -> float:
    """The rate that FAST_PERCENTILE percent of the units stay within."""
    return float(np.percentile(rates, FAST_PERCENTILE))


@dataclass
class CycleResult:
    pipeline_s: float
    final_train_loss: float
    dev_micro_f1: float
    train_rates: list[float]  # instances per second of each TRAIN_CHUNK-step chunk
    predict_rates: list[float]  # instances per second of each scoring unit


class StepClock:
    """Timestamps the end of every training step.

    ``trainer.train`` looks ``apply_sgd`` up as a ``relcnn.trainer`` global
    at call time; at batch size 1 it is called once per instance.  The
    wrapper adds one clock read per step (well under 1 us against steps of
    1 ms or more).

    If `side_task` is given, the wrapper calls it with the parameters being
    trained once every SCORE_EVERY_S seconds, right after a step.  The
    clock stops while it runs, so the stamps, and `paused_ns`, leave its
    time out.
    """

    def __init__(self, side_task: Callable[[model.ModelParams], object] | None = None):
        self.stamps_ns: list[int] = []
        self.side_task = side_task
        self.paused_ns = 0

    def __enter__(self) -> "StepClock":
        self.original = trainer.apply_sgd
        stamps, original, clock = self.stamps_ns, self.original, time.perf_counter_ns
        every_ns = int(SCORE_EVERY_S * 1e9)
        last_ns = clock()

        def apply_sgd(*args, **kwargs):
            nonlocal last_ns
            out = original(*args, **kwargs)
            now = clock()
            stamps.append(now - self.paused_ns)
            if self.side_task is not None and now - last_ns >= every_ns:
                self.side_task(args[0])
                last_ns = clock()
                self.paused_ns += last_ns - now
            return out

        trainer.apply_sgd = apply_sgd
        return self

    def __exit__(self, *exc) -> None:
        trainer.apply_sgd = self.original

    def chunk_rates(self, checks: Checks, epochs: int, steps_per_epoch: int) -> list[float]:
        """Rates of TRAIN_CHUNK consecutive steps within one epoch.

        A chunk runs from the end of one step to the end of the step
        TRAIN_CHUNK later, so the per-epoch scoring between epochs is in no
        chunk; predict_inst_per_s measures that code.
        """
        checks.check(len(self.stamps_ns) == epochs * steps_per_epoch,
                     f"{len(self.stamps_ns)} training steps, expected {epochs} x {steps_per_epoch}")
        k = min(TRAIN_CHUNK, steps_per_epoch - 1)  # smaller only in tiny test runs
        rates = []
        for lo in range(0, len(self.stamps_ns), steps_per_epoch):
            epoch = self.stamps_ns[lo : lo + steps_per_epoch]
            for i in range(0, len(epoch) - k, k):
                rates.append(k * 1e9 / (epoch[i + k] - epoch[i]))
        return rates


def _spec(sizes: Sizes, per_type: int, seed: int) -> synthgen.SynthSpec:
    return synthgen.placement_task_spec(
        sentences_per_type=per_type,
        seed=seed,
        vocab_size=sizes.filler_pool,
        len_lo=sizes.len_lo,
        len_hi=sizes.len_hi,
    )


def _generate(spec: synthgen.SynthSpec):
    instances, ledger = synthgen.generate(spec)
    synthgen.self_check(instances, ledger)
    return instances


def _shape(vocab: encoding.Vocab, lengths: list[int], n_train: int, n_heldout: int) -> dict:
    """Workload shape: vocabulary size, training sentence lengths, set sizes."""
    return {
        "n_words": vocab.n_words,
        "sentence_len_median": statistics.median(lengths),
        "sentence_len_max": max(lengths),
        "n_train": n_train,
        "n_heldout": n_heldout,
    }


@dataclass
class TrainData:
    vocab: encoding.Vocab
    vocab_sha256: str
    enc_cfg: encoding.EncoderConfig
    train: list
    dev: list
    heldout: list


class TrainWorkload:
    """train-synth and train-clinical: library calls, no files but the checkpoint.

    With `score_during_training` (untraced runs), a chunk of held-out
    instances is scored with the current parameters every SCORE_EVERY_S
    seconds of training, so that scoring units are spread over the whole
    run and not bunched after each training pass.  Scoring reads the
    parameters and draws no random numbers, so training is unchanged.
    """

    score_during_training = False

    def __init__(self, sizes: Sizes, seed: int, work_dir: Path):
        self.sizes = sizes
        self.seed = seed
        self.work_dir = work_dir
        self.hp = model.HyperParams()
        self.cfg = trainer.TrainConfig(epochs=sizes.epochs, seed=seed)
        self.last_params: model.ModelParams | None = None
        self.next_heldout = 0  # where the next scoring chunk during training starts

    def _score_chunk(self, encs: list, params, checks: Checks, rates: list[float]) -> list:
        """model.predict on `encs`; appends the chunk's rate and checks every prediction."""
        t0 = time.perf_counter()
        chunk = [model.predict(enc, params, self.hp) for enc in encs]
        rates.append(len(chunk) / (time.perf_counter() - t0))
        for label, probs in chunk:
            check_prediction(checks, label, probs)
        return chunk

    def setup(self) -> TrainData:
        train_raw = _generate(_spec(self.sizes, self.sizes.train_per_type, self.seed))
        heldout_raw = _generate(
            _spec(self.sizes, self.sizes.heldout_per_type, self.seed + HELDOUT_SEED_OFFSET)
        )
        enc_cfg = encoding.EncoderConfig()
        vocab = encoding.build_vocab(train_raw, enc_cfg)
        train_enc = encoding.encode_instances(train_raw, vocab, enc_cfg)
        heldout = encoding.encode_instances(heldout_raw, vocab, enc_cfg)
        train, dev = trainer.split_dev(train_enc, self.cfg.dev_fraction, self.seed)
        words = "\n".join(sorted(vocab.word_ids)).encode("utf-8")
        return TrainData(
            vocab=vocab,
            vocab_sha256=hashlib.sha256(words).hexdigest(),
            enc_cfg=enc_cfg,
            train=train,
            dev=dev,
            heldout=heldout,
        )

    @staticmethod
    def shape(data: TrainData) -> dict:
        lengths = [enc.n_tokens for enc in data.train + data.dev]
        return _shape(data.vocab, lengths, len(data.train), len(data.heldout))

    @staticmethod
    def fingerprint(data: TrainData) -> str:
        digest = hashlib.sha256(data.vocab_sha256.encode())
        for enc in data.train + data.dev + data.heldout:
            digest.update(enc.token_ids.tobytes())
            digest.update(enc.pos1_ids.tobytes())
        return digest.hexdigest()

    def cycle(self, data: TrainData, checks: Checks) -> CycleResult:
        predict_rates: list[float] = []

        def score_next_chunk(params) -> None:
            lo = self.next_heldout
            self._score_chunk(data.heldout[lo : lo + PREDICT_CHUNK], params, checks, predict_rates)
            self.next_heldout = 0 if lo + 2 * PREDICT_CHUNK > len(data.heldout) else lo + PREDICT_CHUNK

        t0 = time.perf_counter()
        with StepClock(score_next_chunk if self.score_during_training else None) as clock:
            result = trainer.train(data.train, data.dev, self.hp, self.cfg, data.vocab,
                                   data.enc_cfg)
        ckpt_path = self.work_dir / "model.npz"
        model.save_checkpoint(ckpt_path, result.params, self.hp, data.enc_cfg, data.vocab_sha256)
        ckpt = model.load_checkpoint(ckpt_path)
        predictions = []
        for lo in range(0, len(data.heldout), PREDICT_CHUNK):
            predictions.extend(self._score_chunk(data.heldout[lo : lo + PREDICT_CHUNK],
                                                 ckpt.params, checks, predict_rates))
        gold = [enc.gold for enc in data.heldout]
        pred = [label for label, _ in predictions]
        report = evaluator.evaluate(gold, pred)
        t4 = time.perf_counter()

        check_losses(checks, result.record.train_loss)
        for name, arr in result.params.arrays().items():
            checks.check(
                np.array_equal(arr, ckpt.params.arrays()[name]),
                f"checkpoint round trip changed {name}",
            )
        check_f1(checks, report.micro.f1, gold, pred)
        self.last_params = ckpt.params
        return CycleResult(
            pipeline_s=t4 - t0 - clock.paused_ns / 1e9,
            final_train_loss=result.record.train_loss[-1],
            dev_micro_f1=report.micro.f1,
            train_rates=clock.chunk_rates(checks, self.sizes.epochs, len(data.train)),
            predict_rates=predict_rates,
        )

    def probes(self, data: TrainData):
        """(params, hp, encoded held-out instances) of the last cycle's model."""
        return self.last_params, self.hp, data.heldout[:N_SCORE_PROBES]


@dataclass
class PipelineData:
    train_raw: list
    heldout_raw: list
    vocab: encoding.Vocab


class PipelineWorkload:
    """pipeline-cli: synth, train, predict and eval, in-process through relcnn.cli.main."""

    def __init__(self, sizes: Sizes, seed: int, work_dir: Path):
        self.sizes = sizes
        self.seed = seed
        self.work_dir = work_dir
        self.paths = {
            name: work_dir / name
            for name in ("train.jsonl", "vocab.txt", "heldout.jsonl", "model.npz",
                         "record.json", "pred.jsonl", "report.json")
        }

    def setup(self) -> PipelineData:
        """Reference corpora and vocabulary the CLI's outputs are checked against."""
        sizes = self.sizes
        train_raw = _generate(synthgen.placement_task_spec(sizes.train_per_type, self.seed))
        heldout_raw = _generate(
            synthgen.placement_task_spec(sizes.heldout_per_type, self.seed + HELDOUT_SEED_OFFSET)
        )
        vocab = encoding.build_vocab(train_raw, encoding.EncoderConfig())
        return PipelineData(train_raw, heldout_raw, vocab)

    def n_train(self, data: PipelineData) -> int:
        """Training instances left after cmd_train splits off its dev set."""
        train, _ = trainer.split_dev(data.train_raw, trainer.TrainConfig().dev_fraction, self.seed)
        return len(train)

    def shape(self, data: PipelineData) -> dict:
        lengths = [len(corpus.replace_concepts(inst).tokens) for inst in data.train_raw]
        return _shape(data.vocab, lengths, self.n_train(data), len(data.heldout_raw))

    @staticmethod
    def fingerprint(data: PipelineData) -> str:
        payload = [corpus.instance_to_dict(i) for i in data.train_raw + data.heldout_raw]
        payload.append(sorted(data.vocab.word_ids.items()))
        return hashlib.sha256(json.dumps(payload).encode()).hexdigest()

    def _commands(self) -> list[tuple[str, list[str]]]:
        p = {k: str(v) for k, v in self.paths.items()}
        s = self.sizes
        return [
            ("synth", ["synth", "--preset", "placement", "--sentences-per-type",
                       str(s.train_per_type), "--seed", str(self.seed),
                       "--out", p["train.jsonl"], "--vocab", p["vocab.txt"]]),
            ("synth", ["synth", "--preset", "placement", "--sentences-per-type",
                       str(s.heldout_per_type), "--seed", str(self.seed + HELDOUT_SEED_OFFSET),
                       "--out", p["heldout.jsonl"]]),
            ("train", ["train", "--train", p["train.jsonl"], "--vocab", p["vocab.txt"],
                       "--checkpoint", p["model.npz"], "--record", p["record.json"],
                       "--epochs", str(s.epochs), "--seed", str(self.seed)]),
            ("predict", ["predict", "--checkpoint", p["model.npz"], "--vocab", p["vocab.txt"],
                         "--input", p["heldout.jsonl"], "--out", p["pred.jsonl"]]),
            ("eval", ["eval", "--gold", p["heldout.jsonl"], "--pred", p["pred.jsonl"],
                      "--out", p["report.json"], "--bootstrap", str(BOOTSTRAP_RESAMPLES),
                      "--seed", str(self.seed)]),
        ]

    def cycle(self, data: PipelineData, checks: Checks) -> CycleResult:
        elapsed: dict[str, float] = {}
        started = time.perf_counter()
        clock = StepClock()
        for command, argv in self._commands():
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), \
                    clock if command == "train" else contextlib.nullcontext():
                code = cli.main(argv)
            elapsed[command] = elapsed.get(command, 0.0) + time.perf_counter() - t0
            if not checks.check(code == 0, f"relcnn {command} exited {code}"):
                raise RuntimeError(f"relcnn {' '.join(argv)} exited {code}")
        pipeline_s = time.perf_counter() - started

        p = self.paths
        checks.check(_read_jsonl_instances(p["train.jsonl"]) == data.train_raw,
                     "synth training corpus differs from the library's")
        checks.check(_read_jsonl_instances(p["heldout.jsonl"]) == data.heldout_raw,
                     "synth held-out corpus differs from the library's")
        checks.check(encoding.load_vocab(p["vocab.txt"]).word_ids == data.vocab.word_ids,
                     "synth vocabulary differs from the library's")
        record = json.loads(p["record.json"].read_text(encoding="utf-8"))
        check_losses(checks, record["train_loss"])
        gold, pred = [], []
        with open(p["pred.jsonl"], "r", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        checks.check(len(records) == len(data.heldout_raw), "prediction count")
        for rec, inst in zip(records, data.heldout_raw):
            label = RelationType(rec["pred"]) if rec["pred"] in _TYPE_VALUES else rec["pred"]
            probs = [rec["probs"].get(t.value, math.nan) for t in RELATION_TYPES]
            check_prediction(checks, label, probs)
            checks.check(rec["gold"] == inst.gold.value, f"prediction gold for {rec['key']}")
            gold.append(inst.gold)
            pred.append(label)
        report = json.loads(p["report.json"].read_text(encoding="utf-8"))
        check_f1(checks, report["micro"]["f1"], gold, pred)

        return CycleResult(
            pipeline_s=pipeline_s,
            final_train_loss=record["train_loss"][-1],
            dev_micro_f1=report["micro"]["f1"],
            train_rates=clock.chunk_rates(checks, self.sizes.epochs, self.n_train(data)),
            predict_rates=[len(records) / elapsed["predict"]],
        )

    def probes(self, data: PipelineData):
        """(params, hp, encoded held-out instances) of the checkpoint `train` wrote."""
        ckpt = model.load_checkpoint(self.paths["model.npz"])
        heldout = encoding.encode_instances(
            data.heldout_raw[:N_SCORE_PROBES], data.vocab, ckpt.encoder
        )
        return ckpt.params, ckpt.hp, heldout


_TYPE_VALUES = {t.value for t in RelationType}
_CLASS = {t: i for i, t in enumerate(RELATION_TYPES)}


def _read_jsonl_instances(path: Path) -> list:
    """Instances of a JSON-lines file, read without the (traced) corpus reader."""
    with open(path, "r", encoding="utf-8") as fh:
        return [corpus.instance_from_dict(json.loads(line)) for line in fh if line.strip()]


WORKLOADS: dict[str, Callable] = {
    "train-synth": TrainWorkload,
    "train-clinical": TrainWorkload,
    "pipeline-cli": PipelineWorkload,
}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    checks: Checks
    metrics: dict[str, tuple[float, str]]  # what the final JSON line reports
    detail: dict  # environment, workload shape and everything else printed


def _run_cycles(wl, data, checks: Checks, seconds: float, wrap=contextlib.nullcontext,
                between: Callable[[float], object] | None = None):
    """Cycles until the next one would end after `seconds`; at least one.

    `between`, if given, is called with the elapsed time before every cycle
    but the first, and its time counts towards that cycle's share.

    Each cycle runs pinned to the next of the CPUs this process may use, in
    turn.  On a shared host each vCPU switches between a fast and a slow
    speed on its own, every few seconds to minutes; a run that stays on one
    vCPU can spend all of its time in the slow state, while a run that
    takes turns sees the fast state whenever any of its vCPUs has it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    results: list[CycleResult] = []
    started = time.perf_counter()
    try:
        for n in itertools.count():
            os.sched_setaffinity(0, {cpus[n % len(cpus)]})
            t0 = time.perf_counter()
            if between is not None and n > 0:
                between(t0 - started)
            try:
                with wrap():
                    results.append(wl.cycle(data, checks))
            except Exception:  # a failed cycle is a failed operation; keep measuring
                checks.check(False, "cycle raised: " + traceback.format_exc(limit=3))
                print(traceback.format_exc(), file=sys.stderr)
            now = time.perf_counter()
            if now - started + (now - t0) > seconds:
                return results
    finally:
        os.sched_setaffinity(0, cpus)


def _end_to_end(results: list[CycleResult]) -> dict[str, float]:
    """Timed metrics from the fast end of all units; quality metrics of the first cycle.

    The units are TRAIN_CHUNK-step training chunks, scoring units (see
    CycleResult.predict_rates) and whole cycles.
    """
    return {
        "train_inst_per_s": fast_rate([x for r in results for x in r.train_rates]),
        "predict_inst_per_s": fast_rate([x for r in results for x in r.predict_rates]),
        "pipeline_s": min(r.pipeline_s for r in results),
        "dev_micro_f1": results[0].dev_micro_f1,
        "final_train_loss": results[0].final_train_loss,
    }


def _check_reproduced(checks: Checks, reference: CycleResult, results: list[CycleResult], what: str):
    for r in results:
        checks.check(r.final_train_loss == reference.final_train_loss,
                     f"{what}: final_train_loss {r.final_train_loss} != {reference.final_train_loss}")
        checks.check(r.dev_micro_f1 == reference.dev_micro_f1,
                     f"{what}: dev_micro_f1 {r.dev_micro_f1} != {reference.dev_micro_f1}")


def _check_probes(checks: Checks, wl, data) -> None:
    """Direct model.score calls reproduce forward's scores; the loss is recomputed."""
    params, hp, encs = wl.probes(data)
    l2 = weights_sum_of_squares(params)
    for enc in encs:
        t = model.forward(enc, params, hp)
        checks.check(np.array_equal(model.score(t.r_x, t.cf_x, params), t.scores),
                     "model.score differs from forward's scores")
        check_loss_recomputed(checks, t, params, hp, l2)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# Run in a new interpreter: imports numpy and relcnn, then one workload set-up.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import numpy
from relcnn import cli, corpus, encoding, evaluator, model, synthgen, trainer
import_s = time.perf_counter() - t0
import workloads
print(workloads.probe_setup(sys.argv[1], int(sys.argv[2]), sys.argv[3], import_s))
"""


def probe_setup(name: str, seed: int, sizes_json: str, import_s: float) -> str:
    """JSON of the import time, the set-up time and the set-up's fingerprint."""
    wl = WORKLOADS[name](Sizes(**json.loads(sizes_json)), seed, Path("."))
    t0 = time.perf_counter()
    data = wl.setup()
    setup_s = time.perf_counter() - t0
    return json.dumps({"import_s": import_s, "setup_s": setup_s, "fingerprint": wl.fingerprint(data)})


def run_setup_probe(name: str, seed: int, sizes: Sizes) -> dict:
    """A set-up as a user pays it: a new interpreter's imports plus the workload set-up."""
    path = [str(Path(model.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    argv = [sys.executable, "-c", SETUP_PROBE, name, str(seed), json.dumps(asdict(sizes))]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    sizes: Sizes | None = None,
) -> RunResult:
    """One benchmark run of workload `name`; `sizes` defaults to SIZES[name]."""
    sizes = sizes or SIZES[name]
    work_dir = out_dir / f"work-{name}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[name](sizes, seed, work_dir)
        if trace:
            return _traced_run(wl, name, seed, seconds, out_dir)
        return _timed_run(wl, seconds, lambda: run_setup_probe(name, seed, sizes))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _timed_run(wl, seconds: float, setup_probe: Callable[[], dict]) -> RunResult:
    """Cycles for `seconds`, with SETUP_PROBES set-up probes spread over them.

    A probe is a new interpreter that imports numpy and relcnn and makes the
    workload's set-up.  Probing at even intervals between the cycles, rather
    than all at the start, exposes the set-ups to the same machine-speed
    states as the cycles, and keeps their memory out of this process's peak.
    """
    checks = Checks()
    data = wl.setup()
    if isinstance(wl, TrainWorkload):
        wl.score_during_training = True
    probes: list[dict] = []
    due = [seconds * i / SETUP_PROBES for i in range(SETUP_PROBES)]

    def probe_when_due(elapsed: float) -> None:
        if due and elapsed >= due[0]:
            due.pop(0)
            probes.append(setup_probe())

    results = _run_cycles(wl, data, checks, seconds, between=probe_when_due)
    if not results:
        raise RuntimeError("every cycle failed: " + "; ".join(checks.failures))
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe())
    fingerprint = wl.fingerprint(data)
    for probe in probes:
        checks.check(probe["fingerprint"] == fingerprint, "setup is not deterministic in the seed")
    _check_reproduced(checks, results[0], results[1:], "repeated cycle")
    _check_probes(checks, wl, data)

    values = _end_to_end(results)
    values["setup_s"] = statistics.median(p["import_s"] + p["setup_s"] for p in probes)
    values["peak_rss_mb"] = peak_rss_mb()
    units = {n: u for n, u, _ in END_TO_END}
    detail = {
        "shape": wl.shape(data),
        "cycles": len(results),
        "units": {"train": sum(len(r.train_rates) for r in results),
                  "predict": sum(len(r.predict_rates) for r in results)},
        "import_s": [p["import_s"] for p in probes],
        "setup_s": [p["setup_s"] for p in probes],
        "error_rate": checks.failed / checks.attempted,
    }
    return RunResult(checks, {n: (values[n], units[n]) for n, _, _ in END_TO_END}, detail)


def _traced_run(wl, name: str, seed: int, seconds: float, out_dir: Path) -> RunResult:
    """An untraced cycle, then traced setup and cycles; per-layer metrics from spans."""
    checks = Checks()
    data = wl.setup()
    reference = _run_cycles(wl, data, checks, 0.0)
    if not reference:
        raise RuntimeError("untraced cycle failed: " + "; ".join(checks.failures))

    tracer = spanlib.Tracer(run_id=f"{name}-{seed}-{os.getpid()}-{time.time_ns()}")
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            data = wl.setup()
        traced = _run_cycles(wl, data, checks, seconds, lambda: tracer.span("bench.cycle"))
        if not traced:
            raise RuntimeError("every traced cycle failed: " + "; ".join(checks.failures))
        with tracer.paused():
            params, hp, encs = wl.probes(data)
            probes = [model.forward(enc, params, hp) for enc in encs]
        with tracer.span("bench.score_probe"):
            for t in probes:
                checks.check(np.array_equal(model.score(t.r_x, t.cf_x, params), t.scores),
                             "model.score differs from forward's scores")
    finally:
        tracer.uninstall()
    _check_reproduced(checks, reference[0], traced, "traced run")
    tracer.write_jsonl(out_dir / f"spans-{name}-seed{seed}.jsonl")

    values = layer_metrics(spanlib.by_name(tracer.spans), tracer)
    untraced, with_tracing = _end_to_end(reference), _end_to_end(traced)
    layer_self = spanlib.layer_self_ns(tracer.spans)
    roots_ns = sum(s.duration_ns for s in tracer.spans if s.parent < 0)
    detail = {
        "shape": wl.shape(data),
        "traced_cycles": len(traced),
        "error_rate": checks.failed / checks.attempted,
        "tracing_overhead": {
            k: {"traced": with_tracing[k], "untraced": untraced[k],
                "traced_minus_untraced": with_tracing[k] - untraced[k]}
            for k in ("train_inst_per_s", "predict_inst_per_s", "pipeline_s")
        },
        "layer_self_s": {k: v / 1e9 for k, v in sorted(layer_self.items())},
        "layer_self_share": {k: v / roots_ns for k, v in sorted(layer_self.items())},
        "span_count": len(tracer.spans),
        "pipeline_layers": {
            n: {"value": values[n], "unit": u} for n, u in PIPELINE_LAYER if n in values
        },
        "unmeasured": [n for n, _ in PER_LAYER if n not in values],
    }
    metrics = {n: (values[n], u) for n, u in PER_LAYER if n in values}
    return RunResult(checks, metrics, detail)


# Span-based layer metrics: metric -> (span name, statistic, divisor).  The
# statistic is the mean self or total time per call in ns over the divisor,
# or "n", the mean number of instances per call.  Leaf spans' self and
# total times agree; model.forward and model.predict report self time, the
# part outside the stage spans below them, and commands their total time.
SPAN_METRICS: dict[str, tuple[str, str, float]] = {
    "model.embed_us": ("model.embed", "self", 1e3),
    "model.convolve_us": ("model.convolve", "self", 1e3),
    "model.pool_us": ("model.pool", "self", 1e3),
    "model.concept_features_us": ("model.concept_features", "self", 1e3),
    "model.score_us": ("model.score", "self", 1e3),
    "model.forward_us": ("model.forward", "self", 1e3),
    "model.loss_us": ("model.loss", "self", 1e3),
    "model.backward_us": ("model.backward", "self", 1e3),
    "model.apply_sgd_us": ("model.apply_sgd", "self", 1e3),
    "model.predict_us": ("model.predict", "self", 1e3),
    "model.save_checkpoint_s": ("model.save_checkpoint", "self", 1e9),
    "model.load_checkpoint_s": ("model.load_checkpoint", "self", 1e9),
    "evaluator.evaluate_ms": ("evaluator.evaluate", "self", 1e6),
    "evaluator.evaluate_n": ("evaluator.evaluate", "n", 1.0),
    "encoding.build_vocab_s": ("encoding.build_vocab", "self", 1e9),
    "encoding.encode_us": ("encoding.encode", "self", 1e3),
    "synthgen.generate_s": ("synthgen.generate", "self", 1e9),
    "synthgen.self_check_s": ("synthgen.self_check", "self", 1e9),
    "evaluator.bootstrap_s": ("evaluator.bootstrap", "total", 1e9),
    "evaluator.bootstrap_n": ("evaluator.bootstrap", "n", 1.0),
    "corpus.read_instances_s": ("corpus.read_instances", "self", 1e9),
    "corpus.write_instances_s": ("corpus.write_instances", "self", 1e9),
    "cli.synth_s": ("cli.synth", "total", 1e9),
    "cli.train_s": ("cli.train", "total", 1e9),
    "cli.predict_s": ("cli.predict", "total", 1e9),
    "cli.eval_s": ("cli.eval", "total", 1e9),
    "cli.manifest_s": ("cli.manifest", "total", 1e9),
}


def layer_metrics(stats: dict[str, spanlib.NameStats], tracer: spanlib.Tracer) -> dict[str, float]:
    """Every layer metric the spans support; a metric whose spans never occurred is absent."""
    values: dict[str, float] = {}
    for metric, (span, stat, divisor) in SPAN_METRICS.items():
        st = stats.get(span)
        if st is not None:
            total = {"self": st.self_ns, "total": st.total_ns, "n": st.n_sum}[stat]
            values[metric] = total / st.calls / divisor
    if "trainer.step" in stats:
        steps_ms = np.asarray(stats["trainer.step"].durations_ns) / 1e6
        values["trainer.step_ms_p50"] = float(np.percentile(steps_ms, 50))
        values["trainer.step_ms_p99"] = float(np.percentile(steps_ms, 99))
        values["trainer.step_samples"] = float(steps_ms.shape[0])
    if "trainer.train" in stats:
        train_ns = stats["trainer.train"].total_ns
        trainer_self_ns = sum(
            stats[s].self_ns for s in ("trainer.train", "trainer.step", "trainer.epoch_eval")
            if s in stats
        )
        values["trainer.self_share"] = trainer_self_ns / train_ns
        if "trainer.epoch_eval" in stats:
            values["trainer.eval_share"] = stats["trainer.epoch_eval"].total_ns / train_ns
    if tracer.step_rows:
        values["model.grad_bytes_per_step"] = float(tracer.grad_bytes_per_step)
        values["model.word_rows_touched_share"] = spanlib.word_rows_touched_share(tracer.step_rows)
    return values
