"""Tests of the benchmark itself: output checks, self time, worker tracing.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import tally  # noqa: E402
from zenoforge import grape, models  # noqa: E402


def _csv(rows):
    return "".join(",".join(row) + "\r\n" for row in rows)


def test_table1_check_counts_wrong_lie_dimension_as_failed():
    wl = workloads.Table1N5()
    argv = wl.inputs(0)
    good = _csv(workloads.TABLE1_N5)
    bad_rows = [list(row) for row in workloads.TABLE1_N5]
    bad_rows[7][5] = "39"  # dim_L_DFS at N=5: 40 -> 39
    assert bad_rows[7][0] == "dim_L_DFS"
    result = tally(wl, argv, [good, _csv(bad_rows), good], [])
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert "criterion 1" in result["problems"][0]


def test_atom_check_counts_wrong_closure_as_failed():
    wl = workloads.AtomN20()
    good = json.dumps(workloads.ATOM_N20)
    bad = json.dumps({"dim_nonoise": 2, "dim_dfs": 399, "block_dims": [399]})
    result = tally(wl, wl.inputs(0), [good, bad, "not json"], ["Traceback: boom"])
    assert (result["attempted"], result["failed"]) == (4, 3)


@pytest.fixture(scope="module")
def short_sweep():
    """One real sweep row, cut to a few iterations so the test stays fast."""
    wl = workloads.SweepAmp()
    spec = dict(wl.inputs(0), gammas=(100.0,))
    desc = models.build_model("two-qubit-amp", gamma=100.0)
    system = grape.ControlSystem(desc.controls, desc.spec, 1.0)
    result = grape.optimize(system, grape.Eps2Target(spec["goal"]), restarts=1,
                            seed=spec["seed"], n_slices=wl.SLICES, max_iterations=5)
    row = {"gamma": 100.0, "system": system, "result": result, "reduced_error": 0.5}
    return wl, spec, row


def test_sweep_check_passes_a_true_row(short_sweep):
    wl, spec, row = short_sweep
    assert wl.check(spec, [row]) == []


@pytest.mark.parametrize("perturb", [lambda v: v * (1 + 1e-6), lambda v: 10.0])
def test_sweep_check_counts_perturbed_eps2_as_failed(short_sweep, perturb):
    wl, spec, row = short_sweep
    result = row["result"]
    bad = dict(row, result=dataclasses.replace(result, best_value=perturb(result.best_value)))
    result = tally(wl, spec, [[row], [bad]], [])
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_sweep_check_rejects_nonfinite_reduced_error(short_sweep):
    wl, spec, row = short_sweep
    assert wl.check(spec, [dict(row, reduced_error=float("nan"))])


def test_self_time_on_hand_built_tree():
    #   a [0, 10]
    #   |-- b [1, 4]
    #   |   `-- c [2, 3]
    #   `-- d [5, 9]
    spans = [
        ["cli.main", 0.0, 10.0, None, 0, {}],
        ["lie.lie_closure", 1.0, 4.0, 0, 0, {"dim": 7}],
        ["lindblad.detect_dfs", 2.0, 3.0, 1, 0, {}],
        ["lindblad.detect_dfs", 5.0, 9.0, 0, 0, {"error": "ValueError"}],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_are_medians_over_ops():
    def op(op_id, scale, root):
        return [
            ["cli.main", 0.0, 10.0 * scale, None, op_id, {}],
            ["lindblad.dissipator_matrix", 1.0, 1.0 + scale, root, op_id, {"bytes": 64}],
            ["chain.dfs_dimension", 5.0, 5.0, root, op_id, {"error": "ValueError"}],
        ]
    outside = [["lindblad.dissipator_matrix", 0.0, 100.0, None, None, {"bytes": 1 << 20}]]
    spans = op(0, 1.0, 0) + op(1, 2.0, 3) + op(2, 3.0, 6) + outside
    metrics = tracing.layer_metrics(spans)
    assert metrics["lindblad.dissipator_matrix.calls"] == 1
    assert metrics["lindblad.dissipator_matrix.s"] == 2.0
    assert metrics["lindblad.dissipator_matrix.bytes"] == 64
    assert metrics["cli.self_s"] == 18.0
    assert metrics["errors"] == 1
    assert metrics["lindblad.steady_superprojector.calls"] == 0
    assert set(metrics) == set(tracing.metric_names())


def test_traced_worker_sees_library_internal_calls():
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "table1-n5", "--seed", "0",
         "--seconds", "0", "--trace"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["attempted"], result["failed"]) == (1, 0)
    spans = result["spans"]
    names = [s[0] for s in spans]
    # lie.dfs_lie_dimension calls steady_superprojector through the name
    # bound in lie, not in lindblad
    sp = [s for s in spans if s[0] == "lindblad.steady_superprojector"]
    assert sp and all(names[s[3]] == "lie.dfs_lie_dimension" for s in sp)
    assert names[0] == "cli.main" and spans[0][3] is None
    metrics = tracing.layer_metrics(spans)
    assert metrics["lie.lie_closure.max_dim"] == 40
    assert metrics["lindblad.steady_superprojector.bytes"] == 1024 * 1024 * 16
    assert metrics["errors"] > 0  # chain.dfs_dimension rejects empty Table I cells
