"""Span tracing of zenoforge from the outside, plus the per-layer metrics.

``Tracer.install`` wraps every public function of the layer modules and
rebinds each name in every ``zenoforge`` module that holds it, so calls
made inside the library (``lie`` calling ``lindblad.steady_superprojector``)
are seen as well as calls made by the benchmark. Nothing under ``src/`` is
edited. Spans live in memory until the worker prints them with its result.

A span is ``[name, start, end, parent, op, extras]``: ``parent`` is the index
of the enclosing span (None at the top), ``op`` the id of the benchmark
operation that was running (None outside one), and ``extras`` a dict of
sizes read off the result, or ``{"error": <type>}`` when the call raised.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

# ``ops`` holds the elementary operator helpers (kron, Pauli matrices) that
# the inner loops call thousands of times; wrapping them would make the
# trace cost dominate what it measures, so their time counts to the caller.
LAYERS = ("lindblad", "zeno", "lie", "chain", "channels", "grape", "models", "cli")


def _extras(name: str, result) -> dict:
    if name == "lie.lie_closure":
        return {"dim": int(result.dim)}
    if name == "grape.optimize":
        return {"nit": int(result.iterations), "converged": int(bool(result.converged))}
    matrix = getattr(result, "matrix", None)
    if hasattr(matrix, "nbytes"):
        return {"bytes": int(matrix.nbytes)}
    return {}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, self.op, {}]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            else:
                span[5] = _extras(name, result)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions and rebind them everywhere."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "zenoforge" or n.startswith("zenoforge."))]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"zenoforge.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    setattr(module, attr, wrapped)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children of one span run one after another (the program is single
    threaded), so the covered part is the sum of their durations.
    """
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


# Functions whose calls, self seconds and errors are reported per op; the
# README maps each to the end-to-end metric and workload it should move.
NAMED = {
    "lindblad.steady_superprojector": ("calls", "s", "bytes", "errors"),
    "lindblad.detect_dfs": ("calls", "s", "errors"),
    "lindblad.dissipator_matrix": ("calls", "s", "bytes", "errors"),
    "zeno.superproject_hamiltonian": ("calls", "s", "errors"),
    "lie.lie_closure": ("calls", "s", "max_dim", "errors"),
    "lie.controllability_verdict": ("calls", "s", "errors"),
    "lie.dfs_lie_dimension": ("s", "errors"),
    "grape.objective_and_gradient": ("calls", "s", "ms_per_call", "errors"),
    "grape.optimize": ("s", "nit", "converged_ratio", "errors"),
    "grape.propagate_schedule": ("s", "errors"),
    "channels.reduced_channel": ("s", "errors"),
    "models.build_model": ("s", "errors"),
}

UNITS = {"calls": "count", "s": "s", "bytes": "B", "errors": "count", "max_dim": "count",
         "ms_per_call": "ms", "nit": "count", "converged_ratio": "ratio"}

# Metrics that are not per function: command time outside every wrapped
# layer, every exception any wrapped function raised, and trace volume.
OTHER_UNITS = {"cli.self_s": "s", "errors": "count", "trace.spans": "count"}


def metric_names() -> dict[str, str]:
    """Every per-layer metric computed from spans, with its unit."""
    names = {f"{fn}.{field}": UNITS[field] for fn, fields in NAMED.items() for field in fields}
    names.update(OTHER_UNITS)
    return names


def _empty_row() -> dict:
    return {"calls": 0, "s": 0.0, "incl": 0.0, "errors": 0,
            "bytes": 0, "dim": 0, "nit": 0, "converged": 0}


def _op_metrics(spans, own) -> dict[str, float]:
    total = {}
    for span, self_s in zip(spans, own):
        name, start, end, _, _, extras = span
        row = total.setdefault(name, _empty_row())
        row["calls"] += 1
        row["s"] += self_s
        row["incl"] += end - start
        row["errors"] += "error" in extras
        row["bytes"] = max(row["bytes"], extras.get("bytes", 0))
        row["dim"] = max(row["dim"], extras.get("dim", 0))
        row["nit"] += extras.get("nit", 0)
        row["converged"] += extras.get("converged", 0)
    out = {}
    for fn, fields in NAMED.items():
        row = total.get(fn) or _empty_row()
        calls = row["calls"]
        values = {
            "calls": calls, "s": row["s"], "bytes": row["bytes"], "errors": row["errors"],
            "max_dim": row["dim"], "nit": row["nit"],
            "ms_per_call": 1e3 * row["incl"] / calls if calls else 0.0,
            "converged_ratio": row["converged"] / calls if calls else 0.0,
        }
        for field in fields:
            out[f"{fn}.{field}"] = values[field]
    out["cli.self_s"] = sum(r["s"] for n, r in total.items() if n.startswith("cli."))
    out["errors"] = sum(r["errors"] for r in total.values())
    out["trace.spans"] = len(spans)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics per op: the median over the ops found in ``spans``.

    Spans recorded outside an op (set-up, output checks) are left out.
    ``.s`` is self time; ``ms_per_call`` is inclusive time per call;
    ``bytes`` is the largest returned matrix; ``converged_ratio`` is
    optimize calls whose result converged over optimize calls.
    """
    own = self_times(spans)
    by_op: dict[int, tuple[list, list]] = {}
    for span, self_s in zip(spans, own):
        if span[4] is not None:
            group = by_op.setdefault(span[4], ([], []))
            group[0].append(span)
            group[1].append(self_s)
    if not by_op:
        raise ValueError("no spans were recorded inside an op")
    per_op = [_op_metrics(s, o) for s, o in by_op.values()]
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
