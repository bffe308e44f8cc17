"""zenoforge benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {table1-n5,sweep-amp,atom-n20,all}
        [--seed N] [--seconds S] [--trace 0|1] [--sweep-seed N]

Run it from anywhere inside a checkout; it imports zenoforge from that
checkout's ``src/``. Every workload runs in its own worker process
(``worker.py``) with the default environment.

--trace 0  end-to-end metrics, tracing off: median wall and CPU seconds per
           op, peak RSS of the worker, and set-up seconds (median over
           SETUP_REPEATS fresh processes plus the measuring worker).
--trace 1  per-layer metrics: a quarter of S untraced (the base), then a
           quarter traced (spans from ``tracing.Tracer``); also the tracing
           overhead. Per-layer metrics have no bound, so this run is short.

Outputs are checked outside the timed region. Before the result, one JSON
line gives the machine block, the raw samples and ``fail_ratio``; the last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``. A run
whose checks fail exits 1; a checkout without ``src/zenoforge`` exits 2
without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics, metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("table1-n5", "sweep-amp", "atom-n20")
SETUP_REPEATS = 4
BUDGET_S = 170.0  # one run, all of its worker processes together


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before the next worker could start")
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran past the {BUDGET_S:.0f} s budget") from exc
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {done.returncode}")
    return json.loads(lines[-1])


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git directly, or None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ZENOFORGE_THREADS")},
        "commit": _git_commit(),
    }


def end_to_end(common: list[str], seconds: float, deadline: float):
    setups = [_worker([*common, "--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    run = _worker([*common, "--seconds", str(seconds)], deadline)
    setups.append(run["setup_s"])
    metrics = {
        "wall_s": (statistics.median(run["wall_s"]), "s"),
        "cpu_s": (statistics.median(run["cpu_s"]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    samples = {"wall_s": run["wall_s"], "cpu_s": run["cpu_s"], "setup_s": setups}
    return metrics, [run], samples


def per_layer(common: list[str], seconds: float, deadline: float):
    base = _worker([*common, "--seconds", str(seconds / 4)], deadline)
    traced = _worker([*common, "--seconds", str(seconds / 4), "--trace"], deadline)
    units = metric_names()
    metrics = {name: (value, units[name])
               for name, value in layer_metrics(traced.pop("spans")).items()}
    base_wall = statistics.median(base["wall_s"])
    metrics["trace.base_wall_s"] = (base_wall, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced["wall_s"]) - base_wall, "s")
    samples = {"base_wall_s": base["wall_s"], "traced_wall_s": traced["wall_s"]}
    return metrics, [base, traced], samples


def measure(workload: str, args, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(args.seed),
              "--sweep-seed", str(args.sweep_seed)]
    mode = per_layer if args.trace else end_to_end
    metrics, runs, samples = mode(common, args.seconds, deadline)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "workload": workload,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "problems": [p for r in runs for p in r["problems"]],
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep-seed", type=int, default=7,
                        help="restart seed of the sweep's GRAPE runs (7: the acceptance seed)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zenoforge" / "__init__.py").is_file():
        print(f"no zenoforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S * len(names)
    try:
        results = [measure(name, args, deadline) for name in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    for res in results:
        for name, (value, unit) in res["metrics"].items():
            print(f"{res['workload']:10} {name:44} {value:.6g} {unit}")
        print(f"{res['workload']:10} {'fail_ratio':44} {res['fail_ratio']:.6g} ratio "
              f"({res['failed']}/{res['attempted']} ops)")
        for problem in res["problems"]:
            print(f"{res['workload']:10} FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps({"machine": machine(), "seed": args.seed, "sweep_seed": args.sweep_seed,
                      "trace": args.trace, "seconds": args.seconds,
                      "results": [{k: v for k, v in r.items() if k != "metrics"}
                                  for r in results]}))

    prefix = len(names) > 1
    metrics = {(f"{r['workload']}.{n}" if prefix else n): {"value": v, "unit": u}
               for r in results for n, (v, u) in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
