"""Spans recorded around calls into relcnn, from outside the program.

relcnn's callers look their callees up at call time: ``model.forward``
resolves ``embed_sentence`` and friends as ``relcnn.model`` globals,
``trainer.train`` resolves ``forward``, ``backward`` and the rest as
``relcnn.trainer`` names, and ``cli`` resolves its callees as
``relcnn.cli`` names.  Replacing those module attributes with timing
wrappers therefore records a span at every layer boundary without editing
the program.  ``install`` replaces every attribute, in every relcnn
module, that holds one of the traced functions, and ``uninstall`` puts the
originals back.

Spans live in memory (name, start, end, parent, count) under one run id
and are written once, by ``write_jsonl``, when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

from relcnn import cli, corpus, encoding, evaluator, model, synthgen, trainer

MODULES: tuple[ModuleType, ...] = (model, trainer, evaluator, encoding, synthgen, corpus, cli)

# (defining module, function name, span name).  The span name's first
# component is the layer the function belongs to.  A function the program
# no longer has is skipped, and the metrics built on it go unmeasured.
TRACED: tuple[tuple[ModuleType, str, str], ...] = (
    (model, "embed_sentence", "model.embed"),
    (model, "convolve", "model.convolve"),
    (model, "pool", "model.pool"),
    (model, "concept_features", "model.concept_features"),
    (model, "score", "model.score"),
    (model, "forward", "model.forward"),
    (model, "loss_from_trace", "model.loss"),
    (model, "backward", "model.backward"),
    (model, "apply_sgd", "model.apply_sgd"),
    (model, "predict", "model.predict"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (trainer, "train", "trainer.train"),
    (trainer, "_accuracy_and_f1", "trainer.epoch_eval"),
    (evaluator, "evaluate", "evaluator.evaluate"),
    (evaluator, "bootstrap_ci", "evaluator.bootstrap"),
    (encoding, "build_vocab", "encoding.build_vocab"),
    (encoding, "encode", "encoding.encode"),
    (synthgen, "generate", "synthgen.generate"),
    (synthgen, "self_check", "synthgen.self_check"),
    (corpus, "read_instances", "corpus.read_instances"),
    (corpus, "write_instances", "corpus.write_instances"),
    (cli, "cmd_synth", "cli.synth"),
    (cli, "cmd_train", "cli.train"),
    (cli, "cmd_predict", "cli.predict"),
    (cli, "cmd_eval", "cli.eval"),
    (cli, "write_manifest", "cli.manifest"),
)

# Spans whose count field records the number of instances handled.
_COUNTED = {"evaluator.evaluate", "evaluator.bootstrap"}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a root
    n: int | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class StepRows:
    """Embedding rows one training step looks up, against rows its update writes."""

    looked_up: list[np.ndarray]
    written: int


@dataclass
class Tracer:
    run_id: str
    spans: list[Span] = field(default_factory=list)
    step_rows: list[StepRows] = field(default_factory=list)
    grad_bytes_per_step: int = 0
    active: bool = True
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[ModuleType, str, Callable]] = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def open(self, name: str, n: int | None = None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), -1, parent, n))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        """End span `sid`, and any span still open inside it (after an exception)."""
        now = time.perf_counter_ns()
        while self._stack:
            top = self._stack.pop()
            self.spans[top].end_ns = now
            if top == sid:
                return
        raise RuntimeError(f"span {sid} ({self.spans[sid].name}) is not open")

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    @contextmanager
    def paused(self):
        """Run untraced: wrappers call straight through while paused."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counted = name in _COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.open(name, len(args[0]) if counted else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def _wrap_step_start(self, forward: Callable) -> Callable:
        """trainer's forward call starts one training step (batch size 1)."""

        @functools.wraps(forward)
        def traced(*args, **kwargs):
            if not self.active:
                return forward(*args, **kwargs)
            self.open("trainer.step")
            sid = self.open("model.forward")
            try:
                return forward(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def _wrap_step_end(self, apply_sgd: Callable) -> Callable:
        """trainer's apply_sgd call ends the step its forward call opened."""

        @functools.wraps(apply_sgd)
        def traced(*args, **kwargs):
            if not self.active:
                return apply_sgd(*args, **kwargs)
            sid = self.open("model.apply_sgd")
            try:
                return apply_sgd(*args, **kwargs)
            finally:
                self.close(sid)
                step = self.spans[sid].parent
                if step >= 0 and self.spans[step].name == "trainer.step":
                    self.close(step)

        return traced

    def _wrap_backward(self, backward: Callable) -> Callable:
        """Also records grad sizes and the word rows the step looked up."""

        @functools.wraps(backward)
        def traced(trace, *args, **kwargs):
            if not self.active:
                return backward(trace, *args, **kwargs)
            sid = self.open("model.backward")
            try:
                grads = backward(trace, *args, **kwargs)
            finally:
                self.close(sid)
            if not self.grad_bytes_per_step:
                self.grad_bytes_per_step = sum(g.nbytes for g in grads.values())
            enc = trace.enc
            looked_up = [wt.token_ids for wt in trace.windows]
            looked_up += [enc.content1_ids, enc.content2_ids]
            self.step_rows.append(StepRows(looked_up, grads["w_word"].shape[0]))
            return grads

        return traced

    def install(self) -> None:
        """Wrap every attribute, in every relcnn module, that holds a traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        # Keyed by id(): module attributes include unhashable values.
        span_of: dict[int, tuple[Callable, str]] = {}
        for home, fn_name, span_name in TRACED:
            fn = getattr(home, fn_name, None)
            if fn is not None:
                span_of[id(fn)] = (fn, span_name)
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                fn, name = span_of.get(id(value), (None, ""))
                if fn is not value:
                    continue
                if mod is trainer and attr == "forward":
                    wrapper = self._wrap_step_start(value)
                elif mod is trainer and attr == "apply_sgd":
                    wrapper = self._wrap_step_end(value)
                elif name == "model.backward":
                    wrapper = self._wrap_backward(value)
                else:
                    wrapper = self._wrap(name, value)
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "run": self.run_id,
                    "id": i,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                }
                if s.n is not None:
                    rec["n"] = s.n
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans are recorded by one thread in call order, so children of a span
    never overlap and the self times of a tree add up to its root's
    duration exactly (integer nanoseconds).
    """
    out = [s.duration_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration_ns
    return out


@dataclass
class NameStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    n_sum: int = 0
    durations_ns: list[int] = field(default_factory=list)


def by_name(spans: list[Span]) -> dict[str, NameStats]:
    selfs = self_times_ns(spans)
    out: dict[str, NameStats] = defaultdict(NameStats)
    for s, own in zip(spans, selfs):
        st = out[s.name]
        st.calls += 1
        st.total_ns += s.duration_ns
        st.self_ns += own
        st.n_sum += s.n or 0
        st.durations_ns.append(s.duration_ns)
    return dict(out)


def layer_self_ns(spans: list[Span]) -> dict[str, int]:
    """Self time summed per layer: the first component of each span name."""
    out: dict[str, int] = defaultdict(int)
    for s, own in zip(spans, self_times_ns(spans)):
        out[s.name.split(".", 1)[0]] += own
    return dict(out)


def word_rows_touched_share(step_rows: list[StepRows]) -> float:
    """Mean over steps of distinct w_word rows looked up / rows the update writes."""
    shares = [
        np.unique(np.concatenate(r.looked_up)).shape[0] / r.written for r in step_rows
    ]
    return float(np.mean(shares))
