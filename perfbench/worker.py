"""Run one workload in this process: set-up, timed operations, output checks.

    python3 perfbench/worker.py --workload NAME --seed N [--seconds S]
        [--sweep-seed N] [--setup-only] [--trace]

Imports zenoforge from ``src/`` of the checkout this file sits in, never from
an installed copy. Prints one JSON object as its last line of stdout. With
``--trace`` the library is wrapped by ``tracing.Tracer`` and that object
also carries the spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def tally(workload, inputs, outputs, errors) -> dict:
    """Check every op's output; an op fails when its check finds a problem
    or when it raised (``errors`` holds those tracebacks)."""
    checks = [workload.check(inputs, output) for output in outputs]
    return {
        "attempted": len(outputs) + len(errors),
        "failed": sum(1 for found in checks if found) + len(errors),
        "problems": [p for found in checks for p in found] + errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--sweep-seed", type=int, default=7)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    # Set-up: the heavy imports plus building the workload's inputs.
    start = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import zenoforge

    if Path(zenoforge.__file__).resolve().parent != src / "zenoforge":
        print(f"zenoforge was imported from {zenoforge.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, SweepAmp

    if args.workload == "sweep-amp":
        workload = SweepAmp(args.sweep_seed)
    else:
        workload = WORKLOADS[args.workload]()
    inputs = workload.inputs(args.seed)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    walls, cpus, outputs = [], [], []
    errors = []
    begin = time.perf_counter()
    while True:
        if tracer:
            tracer.op = len(walls)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            output = workload.run(inputs)
        except Exception:
            errors.append(traceback.format_exc())
            break
        finally:
            wall1, cpu1 = time.perf_counter(), time.process_time()
            if tracer:
                tracer.op = None
        walls.append(wall1 - wall0)
        cpus.append(cpu1 - cpu0)
        outputs.append(output)
        if wall1 - begin >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": peak_rss_mb,
        **tally(workload, inputs, outputs, errors),
        **({"spans": tracer.spans} if tracer else {}),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
