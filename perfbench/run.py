"""relcnn benchmark: one workload per run, or all three with ``--workload all``.

Run from the root of a relcnn checkout::

    python3 perfbench/run.py --workload train-synth --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs one untraced cycle, then traced cycles, and reports per-layer metrics
from spans recorded around the calls into each relcnn module.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with the environment record, goes to ``perfbench/_out/``.
"""

import os
import sys

# The BLAS thread count is fixed before numpy loads: one thread, because a
# batch-1 step is a handful of small GEMMs that a second thread slows down
# and makes noisier on a shared two-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
WORKLOADS = ("train-synth", "train-clinical", "pipeline-cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def blas_record() -> dict:
    """BLAS library, version and the thread count it actually runs with."""
    import ctypes

    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    blas = deps.get("blas", {})
    record = {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads_requested": int(BLAS_THREADS),
        "threads": None,
    }
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                return record
    return record


def _proc_field(path: str, key: str) -> str | None:
    """The value of the first `key: value` line of a /proc file, if any."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    mem_kb = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total_mb": int(mem_kb.split()[0]) // 1024 if mem_kb else None,
        "machine": platform.machine(),
    }


def print_result(name, result, trace, env) -> None:
    ok = result.checks.failed == 0
    print(f"workload {name}  trace {trace}  correct {ok}  "
          f"attempted {result.checks.attempted}  failed {result.checks.failed}")
    for metric, (value, unit) in result.metrics.items():
        print(f"  {metric:<32} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<32} {result.detail['error_rate']:>16.6g} ratio")
    for metric, entry in result.detail.get("pipeline_layers", {}).items():
        print(f"  {metric:<32} {entry['value']:>16.6g} {entry['unit']}")
    for metric in result.detail.get("unmeasured", []):
        print(f"  {metric:<32} {'unmeasured':>16}")
    for failure in result.checks.failures:
        print(f"  FAILED: {failure}")
    print("detail " + json.dumps({"environment": env, **result.detail}, sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "relcnn" / "__init__.py").is_file():
        print(f"error: no relcnn sources at {SRC}; run from the root of a relcnn checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and relcnn
    import relcnn

    if Path(relcnn.__file__).resolve().parent != SRC / "relcnn":
        print(f"error: imported relcnn from {relcnn.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    env = environment()
    print_result(args.workload, result, args.trace, env)
    final = {
        "correct": result.checks.failed == 0,
        "attempted": result.checks.attempted,
        "failed": result.checks.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result.metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({**final, "environment": env, "detail": result.detail}, indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
