"""The benchmark's workloads: inputs, one operation, and its output check.

Each workload is a class with ``inputs(seed)`` (part of set-up), ``run(inputs)``
(one timed operation; returns its output) and ``check(inputs, output)``
(outside the timed region; returns a list of problems, empty when correct).
Library calls go through module attributes (``grape.optimize``), so the
traced run sees them through the rebound names.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math

import numpy as np

from zenoforge import channels, cli, grape, models

# Acceptance criterion 1 rows, truncated to N <= 5.
TABLE1_N5 = [
    ["quantity", "N=1", "N=2", "N=3", "N=4", "N=5"],
    ["J=0", "", "1", "", "2", ""],
    ["J=1/2", "1", "", "2", "", "5"],
    ["J=1", "", "1", "", "3", ""],
    ["J=3/2", "", "", "1", "", "4"],
    ["J=2", "", "", "", "1", ""],
    ["J=5/2", "", "", "", "", "1"],
    ["dim_L_DFS", "0", "1", "4", "12", "40"],
    ["sum_dim_su", "0", "0", "3", "11", "39"],
    ["sum_dim_u", "1", "2", "5", "14", "42"],
]

ATOM_N20 = {"dim_nonoise": 2, "dim_dfs": 400, "block_dims": [400]}


def _cli(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"zenoforge {' '.join(argv)} exited with {code}")
    return buffer.getvalue()


class Table1N5:
    """Table I up to N=5: dense unital Lindbladian, superprojector, closure."""

    def inputs(self, seed: int):
        return ["reproduce-table1", "--nmax", "5"]

    def run(self, argv):
        return _cli(argv)

    def check(self, argv, text) -> list[str]:
        rows = list(csv.reader(io.StringIO(text)))
        if rows != TABLE1_N5:
            return [f"table differs from criterion 1 (N<=5): {rows}"]
        return []


class AtomN20:
    """u(20) closure over the 20-level atom's DFS (non-unital, SVD branch)."""

    def inputs(self, seed: int):
        return ["lie-dim", "--model", "n-level-atom", "--n", "20"]

    def run(self, argv):
        return _cli(argv)

    def check(self, argv, text) -> list[str]:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        if doc != ATOM_N20:
            return [f"expected {ATOM_N20}, got {doc}"]
        return []


class SweepAmp:
    """cmd_sweep's pipeline on two-qubit-amp, eps2, Hadamard, 20 slices,
    one restart, at gamma 1 (runs to the 500-iteration cap) and 100
    (converges), called through the library so the best schedule can be
    checked."""

    GAMMAS = (1.0, 100.0)
    SLICES = 20

    def __init__(self, restart_seed: int = 7):
        # The restart seed fixes the L-BFGS trajectory. Across seeds 0..9 the
        # gamma=100 restart takes 12 to 371 iterations, so drawing it from the
        # run's seed would make wall time measure the seed, not the code.
        self.restart_seed = restart_seed

    def inputs(self, seed: int):
        return {"gammas": self.GAMMAS, "goal": models.HADAMARD, "seed": self.restart_seed}

    def run(self, spec):
        rows = []
        for gamma in spec["gammas"]:
            desc = models.build_model("two-qubit-amp", gamma=gamma)
            system = grape.ControlSystem(desc.controls, desc.spec, 1.0)
            target = grape.Eps2Target(spec["goal"])
            result = grape.optimize(
                system, target, restarts=1, seed=spec["seed"], n_slices=self.SLICES
            )
            e_total = grape.propagate_schedule(system, result.best_schedule)
            reduced = channels.reduced_channel(e_total, np.eye(2) / 2)
            reduced_error = float(
                np.linalg.norm(reduced.matrix - channels.unitary_superop(spec["goal"])) ** 2
            )
            rows.append({"gamma": gamma, "system": system, "result": result,
                         "reduced_error": reduced_error})
        return rows

    def check(self, spec, rows) -> list[str]:
        problems = []
        if [row["gamma"] for row in rows] != list(spec["gammas"]):
            problems.append(f"gammas {[row['gamma'] for row in rows]} != {spec['gammas']}")
        for row in rows:
            gamma, system, result = row["gamma"], row["system"], row["result"]
            best = result.best_value
            replay = channels.epsilon2(
                grape.propagate_schedule(system, result.best_schedule), spec["goal"]
            )
            if not abs(best - replay) <= 1e-9:
                problems.append(f"gamma={gamma}: reported eps2 {best!r} != replayed {replay!r}")
            rng = np.random.default_rng([spec["seed"], 0])
            start = grape.random_schedule(system, self.SLICES, rng)
            initial = channels.epsilon2(grape.propagate_schedule(system, start), spec["goal"])
            if not best < initial:
                problems.append(f"gamma={gamma}: eps2 {best!r} not below initial {initial!r}")
            if not math.isfinite(row["reduced_error"]):
                problems.append(f"gamma={gamma}: reduced error {row['reduced_error']!r}")
        return problems


WORKLOADS = {"table1-n5": Table1N5, "sweep-amp": SweepAmp, "atom-n20": AtomN20}
