"""The benchmark's own tests: minimal-size runs of every workload, the span
self-time law, and the command-line contract.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SMOKE = {
    "train-synth": workloads.Sizes(train_per_type=10, heldout_per_type=5, epochs=1),
    "train-clinical": workloads.Sizes(
        train_per_type=10, heldout_per_type=5, epochs=1, filler_pool=26**3, len_lo=30, len_hi=50
    ),
    "pipeline-cli": workloads.Sizes(train_per_type=10, heldout_per_type=20, epochs=1),
}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_untraced(name, tmp_path):
    result = workloads.run(name, 3, 0.01, False, tmp_path, SMOKE[name])
    assert result.checks.failures == []
    assert result.checks.failed == 0 and result.checks.attempted > 0
    assert [n for n in result.metrics] == [n for n, _, _ in workloads.END_TO_END]
    for metric, (value, _unit) in result.metrics.items():
        assert value > 0, metric


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_traced(name, tmp_path):
    result = workloads.run(name, 3, 0.01, True, tmp_path, SMOKE[name])
    assert result.checks.failures == []
    assert [n for n in result.metrics] == [n for n, _ in workloads.PER_LAYER]
    for metric, (value, _unit) in result.metrics.items():
        assert value > 0, metric
    if name == "pipeline-cli":
        extra = result.detail["pipeline_layers"]
        assert set(extra) == {n for n, _ in workloads.PIPELINE_LAYER}
        assert all(entry["value"] > 0 for entry in extra.values())
    check_span_file(tmp_path / f"spans-{name}-seed3.jsonl")


def check_span_file(path: Path) -> None:
    """Self times are non-negative and each root's subtree adds up to the root."""
    spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert spans and len({s["run"] for s in spans}) == 1
    own = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    assert min(own.values()) >= 0
    root_of = {}
    for s in spans:  # parents are recorded before their children
        root_of[s["id"]] = root_of[s["parent"]] if s["parent"] >= 0 else s["id"]
    subtree_self = defaultdict(int)
    for sid, value in own.items():
        subtree_self[root_of[sid]] += value
    for s in spans:
        if s["parent"] < 0:
            assert subtree_self[s["id"]] == s["end_ns"] - s["start_ns"]


def test_tracer_restores_the_program(tmp_path):
    from relcnn import cli, model, trainer

    before = (model.forward, trainer.forward, trainer.apply_sgd, cli.cmd_predict)
    workloads.run("train-synth", 4, 0.01, True, tmp_path, SMOKE["train-synth"])
    assert (model.forward, trainer.forward, trainer.apply_sgd, cli.cmd_predict) == before


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SIZES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        workloads.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)


def test_command_prints_result_json_last(tmp_path):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-synth", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    final = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert set(final["metrics"]) == {n for n, _, _ in workloads.END_TO_END}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-synth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_scoring_during_training_leaves_training_unchanged(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SCORE_EVERY_S", 0.0)  # score after every step
    wl = workloads.TrainWorkload(SMOKE["train-synth"], 6, tmp_path)
    data = wl.setup()
    checks = workloads.Checks()
    plain = wl.cycle(data, checks)
    wl.score_during_training = True
    scored = wl.cycle(data, checks)
    assert checks.failures == []
    assert scored.final_train_loss == plain.final_train_loss
    assert scored.dev_micro_f1 == plain.dev_micro_f1
    assert len(scored.predict_rates) > len(plain.predict_rates)
