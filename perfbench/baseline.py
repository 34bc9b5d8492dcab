"""Run every workload over seeds 1-10 and write perfbench/baseline.json.

    python3 perfbench/baseline.py

The workloads and the run length come from BENCHMARK.json.  Each run is a
separate ``run.py`` process, one after another: every seed untraced, then
one traced run on the first seed.  For every workload and end-to-end
metric the summary gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the spread: the
distance between the quartiles as a share of the median.  The traced run's
per-layer metrics and detail are kept as they are.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = list(range(1, 11))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def run_once(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The final JSON line and the detail record of one run.py process."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{name} seed {seed} trace {trace}: incorrect output\n{out.stdout}")
    detail = next(line for line in out.stdout.splitlines() if line.startswith("detail "))
    print(f"{name} seed {seed} trace {trace} done", file=sys.stderr)
    return result, json.loads(detail[len("detail "):])


def run_workload(name: str, seconds: int) -> tuple[dict, dict]:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in SEEDS:
        result, _ = run_once(name, seed, seconds, 0)
        for metric, entry in result["metrics"].items():
            values.setdefault(metric, []).append(entry["value"])
            units[metric] = entry["unit"]
    traced, detail = run_once(name, SEEDS[0], seconds, 1)
    environment = detail.pop("environment")
    summary = {
        "end_to_end": {m: {"unit": units[m], **summarize(v)} for m, v in values.items()},
        "per_layer": traced["metrics"],
        "traced_detail": detail,
    }
    return summary, environment


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    report = {"seeds": SEEDS, "seconds": seconds, "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        summary, environment = run_workload(name, seconds)
        report["environment"] = environment
        report["workloads"][name] = summary
        for metric, s in summary["end_to_end"].items():
            print(f"{name:<16} {metric:<30} median {s['median']:<12.6g} {s['unit']:<6} "
                  f"spread {s['spread']:.4f}")
    (HERE / "baseline.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
