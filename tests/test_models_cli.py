import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenoforge
import zenoforge.chain
import zenoforge.exact
import zenoforge.lindblad as lindblad
from zenoforge.cli import _fmt, build_parser, main
from zenoforge.models import HADAMARD, build_model, qubit2_reset_superop
from zenoforge.lindblad import LindbladSpec, hamiltonian_superop, steady_superprojector, vec
from zenoforge.ops import expm
from zenoforge.zeno import strong_damping_error, zeno_product

from conftest import CHAIN_DFS_LIE_DIMS

_DELETE = object()  # marks a job entry to delete in the fidelity job tests


class TestRegistry:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            build_model("bogus")

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            build_model("n-level-atom", n_levels=1)
        with pytest.raises(ValueError):
            build_model("ising-chain", n_qubits=2)
        with pytest.raises(ValueError):
            build_model("two-qubit-amp", typo=1)

    def test_amp_reset_superoperator(self):
        etilde = qubit2_reset_superop(build_model("two-qubit-amp").spec)
        expected = np.outer(vec(np.diag([1.0, 0.0])), vec(np.eye(2)))
        assert np.max(np.abs(etilde - expected)) < 1e-10

    @pytest.mark.parametrize("gamma", [1e-9, 1e-10, 1e-300])
    @pytest.mark.parametrize("name", ["two-qubit-amp", "two-qubit-dephasing"])
    def test_reset_superoperator_does_not_depend_on_the_rate(self, name, gamma):
        etilde = qubit2_reset_superop(build_model(name, gamma=gamma).spec)
        assert np.max(np.abs(etilde - qubit2_reset_superop(build_model(name).spec))) < 1e-12

    def test_hadamard_is_unitary(self):
        assert np.allclose(HADAMARD @ HADAMARD.conj().T, np.eye(2))


def _array_holders():
    """A builder for each frozen dataclass with an array field; each call
    makes a new, equal value."""
    from zenoforge.grape import ControlSystem, Eps1Target, Eps2Target, OptimizationResult

    def system():
        desc = build_model("two-qubit-amp")
        return ControlSystem(desc.controls, desc.spec, 1.0)

    return {
        "LindbladTerm": lambda: lindblad.LindbladTerm(1.0, np.eye(2)),
        "LindbladSpec": lambda: build_model("two-qubit-amp").spec,
        "Superoperator": lambda: lindblad.Superoperator(np.eye(4)),
        "ControlSystem": system,
        "Eps1Target": lambda: Eps1Target(np.eye(16), HADAMARD),
        "Eps2Target": lambda: Eps2Target(HADAMARD),
        "OptimizationResult": lambda: OptimizationResult(np.zeros((2, 3)), 0.5, 4, True, 2),
        "ModelDescriptor": lambda: build_model("two-qubit-amp"),
    }


@pytest.mark.parametrize("name", _array_holders())
def test_array_holders_compare_by_identity(name):
    # value equality over array fields raised; identity equality cannot
    make = _array_holders()[name]
    x, copy = make(), make()
    assert x == x and not x != x
    assert (x == copy) is False
    assert hash(x) == hash(x) and x in {x}


# an integer flag value beyond any index (2^63 - 1)
HUGE = "99999999999999999999"


# `dfs` stdout per registered model at the default gamma, 1e-9 and 1e9: every
# label is 0 but dephasing's, whose b is gamma
_DFS_ZERO = [
    ("two-qubit-amp",
     '[{"dim": 2, "lindblad_eigenvalues": [[0.0, 0.0]], "damping_eigenvalue": 0.0}]'),
    ("n-level-atom",
     '[{"dim": 3, "lindblad_eigenvalues": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], '
     '"damping_eigenvalue": 0.0}]'),
    ("ising-chain",
     '[{"dim": 2, "lindblad_eigenvalues": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], '
     '"damping_eigenvalue": 0.0}]'),
]


def _dephasing_out(b):
    return (f'[{{"dim": 2, "lindblad_eigenvalues": [[-1.0, 0.0]], "damping_eigenvalue": {b}}}, '
            f'{{"dim": 2, "lindblad_eigenvalues": [[1.0, 0.0]], "damping_eigenvalue": {b}}}]')


DFS_ROWS = [
    *[(name, gamma, out) for gamma in (None, "1e-9", "1e9") for name, out in _DFS_ZERO],
    *[("two-qubit-dephasing", gamma, _dephasing_out(b))
      for gamma, b in ((None, "1.0"), ("1e-9", "1e-09"), ("1e9", "1000000000.0"))],
]
# a default-gamma row is named by its output, as test ids have always named it
DFS_IDS = [f"{name}-{out}" if gamma is None else f"{name}-gamma{gamma}"
           for name, gamma, out in DFS_ROWS]


def run_module(argv, timeout=None):
    """``python -m zenoforge`` on argv in a fresh process that imports this
    checkout's package."""
    src = str(Path(zenoforge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "zenoforge", *argv], capture_output=True,
                          text=True, timeout=timeout, env={**os.environ, "PYTHONPATH": path})


class TestCli:
    def test_runs_as_module(self):
        out = run_module(["--help"])
        assert out.returncode == 0 and out.stdout.startswith("usage: zenoforge")

    def test_lie_dim_chain(self, capsys):
        assert main(["lie-dim", "--model", "ising-chain", "--n", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim_nonoise"] == 2
        assert doc["dim_dfs"] == 12

    def test_lie_dim_default_json_shape(self, capsys):
        assert main(["lie-dim", "--model", "two-qubit-amp"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"dim_nonoise", "dim_dfs", "block_dims"}

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["--model", "two-qubit-amp"], '{"dim_nonoise": 2, "dim_dfs": 3, "block_dims": [3]}'),
            (["--model", "two-qubit-dephasing"],
             '{"dim_nonoise": 2, "dim_dfs": 3, "block_dims": [3, 3]}'),
            *[(["--model", "n-level-atom", "--n", str(n)],
               f'{{"dim_nonoise": 2, "dim_dfs": {n * n}, "block_dims": [{n * n}]}}')
              for n in range(2, 7)],
            (["--model", "ising-chain", "--n", "3"],
             '{"dim_nonoise": 2, "dim_dfs": 4, "block_dims": []}'),
            (["--model", "ising-chain", "--n", "4"],
             '{"dim_nonoise": 2, "dim_dfs": 12, "block_dims": [4]}'),
            (["--model", "ising-chain", "--n", "5"],
             '{"dim_nonoise": 2, "dim_dfs": 40, "block_dims": []}'),
            (["--model", "ising-chain", "--n", "6"],
             '{"dim_nonoise": 2, "dim_dfs": 129, "block_dims": [25]}'),
            (["--model", "n-level-atom", "--n", "20"],
             '{"dim_nonoise": 2, "dim_dfs": 400, "block_dims": [400]}'),
        ],
        ids=["two-qubit-amp", "two-qubit-dephasing", *[f"atom-{n}" for n in range(2, 7)],
             "chain-3", "chain-4", "chain-5", "chain-6", "atom-20"],
    )
    def test_lie_dim_of_every_registered_model(self, capsys, argv, out):
        assert main(["lie-dim", *argv]) == 0
        assert capsys.readouterr().out == out + "\n"

    @pytest.mark.parametrize("gamma", ["1e-10", "1e-11", "1e-300", "1e-310", "5e-324"])
    @pytest.mark.parametrize("name", ["two-qubit-amp", "n-level-atom", "two-qubit-dephasing"])
    def test_small_rates_keep_lie_dim(self, capsys, name, gamma):
        # a non-unital dissipator stays non-unital at any positive rate, and
        # the DFS does not change with a common factor of the rates, down to
        # subnormal ones
        outs = []
        for g in (gamma, "1"):
            assert main(["lie-dim", "--model", name, "--gamma", g]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("name, gamma, out", DFS_ROWS, ids=DFS_IDS)
    def test_dfs_of_every_registered_model(self, capsys, name, gamma, out):
        argv = ["dfs", "--model", name] + (["--gamma", gamma] if gamma else [])
        assert main(argv) == 0
        assert capsys.readouterr().out == f'{{"model": "{name}", "blocks": {out}}}\n'

    def test_dfs_of_the_twenty_level_atom(self, capsys):
        assert main(["dfs", "--model", "n-level-atom", "--n", "20"]) == 0
        zeros = ", ".join(["[0.0, 0.0]"] * 20)
        assert capsys.readouterr().out == (
            '{"model": "n-level-atom", "blocks": [{"dim": 20, '
            f'"lindblad_eigenvalues": [{zeros}], "damping_eigenvalue": 0.0}}]}}\n'
        )

    def test_dfs_keeps_small_damping_eigenvalues(self, capsys):
        # b = gamma for dephasing: the zero cut is relative to max_j gamma_j max|Lj|^2
        assert main(["dfs", "--model", "two-qubit-dephasing", "--gamma", "1e-9"]) == 0
        blocks = json.loads(capsys.readouterr().out)["blocks"]
        assert [b["damping_eigenvalue"] for b in blocks] == [1e-9, 1e-9]

    def test_dfs_cuts_damping_eigenvalues_in_the_units_of_b(self, capsys, monkeypatch):
        # 1e-5 sigma_z at rate 1e10 dephases as sigma_z at rate 1: b = 1
        desc = build_model("two-qubit-dephasing")
        (term,) = desc.spec.terms
        scaled = lindblad.LindbladTerm(1e10, 1e-5 * term.op)
        spec = lindblad.LindbladSpec(desc.spec.hamiltonian, (scaled,))
        monkeypatch.setattr(
            zenoforge.cli, "_model_from_args", lambda *_: dataclasses.replace(desc, spec=spec)
        )
        assert main(["dfs", "--model", "two-qubit-dephasing"]) == 0
        blocks = json.loads(capsys.readouterr().out)["blocks"]
        assert [b["damping_eigenvalue"] for b in blocks] == pytest.approx([1.0, 1.0])

    def test_dfs_report(self, capsys):
        assert main(["dfs", "--model", "two-qubit-dephasing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [b["dim"] for b in doc["blocks"]] == [2, 2]
        assert doc["blocks"][0]["lindblad_eigenvalues"] == [[-1.0, 0.0]]

    def test_dfs_prints_exact_zeros(self, capsys):
        # the chain's DFS block has only zero eigenvalues: no rounding noise
        assert main(["dfs", "--model", "ising-chain", "--n", "4"]) == 0
        (block,) = json.loads(capsys.readouterr().out)["blocks"]
        values = [x for z in block["lindblad_eigenvalues"] for x in z]
        assert values and all(x == 0.0 for x in values + [block["damping_eigenvalue"]])

    def test_reproduce_table1_small(self, capsys):
        assert main(["reproduce-table1", "--nmax", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "quantity,N=1,N=2,N=3"
        table = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
        assert table["dim_L_DFS"] == ["0", "1", "4"]
        assert table["sum_dim_su"] == ["0", "0", "3"]
        assert table["sum_dim_u"] == ["1", "2", "5"]

    def test_reproduce_table1_to_nine_qubits(self, capsys):
        assert main(["reproduce-table1", "--nmax", "9"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        table = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
        assert table["dim_L_DFS"] == [str(CHAIN_DFS_LIE_DIMS[n]) for n in range(1, 10)]
        assert table["dim_L_DFS"][6:] == ["426", "1426", "4858"]

    @pytest.mark.parametrize(
        "target, value, nmax, message",
        [
            ("exact.closure_dimension", lambda gens, f: 2, 3,
             "error: N=3: the J=1/2 block closes to dimension 2 mod 1048573, below su(2)'s 3; "
             "dim_L_DFS is not proven"),
            ("chain._intertwiners", lambda a, b, f: 1, 6,
             "error: N=6: the J=0 and J=2 blocks of size 5 have 1 intertwiners mod 1048573; "
             "dim_L_DFS is not proven"),
        ],
        ids=["block-below-su", "linked-pair"],
    )
    def test_reproduce_table1_refuses_an_unproven_column(
        self, monkeypatch, capsys, target, value, nmax, message
    ):
        module, name = target.split(".")
        monkeypatch.setattr(getattr(zenoforge, module), name, value)
        assert main(["reproduce-table1", "--nmax", str(nmax)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [message]

    @pytest.mark.parametrize("n, dim, bound", [(3, 6, 5), (4, 15, 14)])
    def test_reproduce_table1_refuses_dim_above_sum_dim_u(self, monkeypatch, capsys, n, dim, bound):
        # the projected controls lie in the sum of u(d_J): dim_L_DFS <= sum_dim_u
        real = zenoforge.cli.sector_lie_dimension
        monkeypatch.setattr(
            zenoforge.cli, "sector_lie_dimension", lambda k: dim if k == n else real(k)
        )
        assert main(["reproduce-table1", "--nmax", "4"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: N={n}: dim_L_DFS {dim} ")
        assert f"sum_dim_u {bound}" in err[0]

    def test_reproduce_table1_accepts_dim_at_sum_dim_u(self, monkeypatch, capsys):
        real = zenoforge.cli.sector_lie_dimension
        monkeypatch.setattr(
            zenoforge.cli, "sector_lie_dimension", lambda k: 5 if k == 3 else real(k)
        )
        assert main(["reproduce-table1", "--nmax", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-3].split(",")[1:] == ["0", "1", "5"]

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError(), "error: out of memory"),
            (
                MemoryError("Unable to allocate 318. MiB"),
                "error: out of memory: Unable to allocate 318. MiB",
            ),
        ],
        ids=["bare", "numpy-message"],
    )
    def test_out_of_memory_ends_in_one_error_line(self, monkeypatch, capsys, exc, line):
        def exhausted(n):
            raise exc

        monkeypatch.setattr(zenoforge.cli, "sector_lie_dimension", exhausted)
        assert main(["reproduce-table1", "--nmax", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [line]

    def test_zeno_check_default_output_is_pinned(self, capsys):
        # byte for byte, as recorded before operators became plain arrays
        assert main(["zeno-check", "--model", "two-qubit-amp"]) == 0
        assert capsys.readouterr().out == (
            '{"model": "two-qubit-amp", "t": 1.0, "zeno_error": [[1, "1.23658431172"], '
            '[2, "0.980161558244"], [4, "0.56802676348"], [8, "0.314232145587"], '
            '[16, "0.166342638223"], [32, "0.0857030989596"], [64, "0.0435132448443"], '
            '[128, "0.0219256532919"], [256, "0.0110055350073"]], "strong_damping_error": []}\n'
        )

    def test_zeno_check(self, capsys):
        assert main([
            "zeno-check", "--model", "two-qubit-amp", "--steps", "1,4", "--gammas", "10",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        errs = {n: float(e) for n, e in doc["zeno_error"]}
        assert errs[4] < errs[1]
        assert float(doc["strong_damping_error"][0][1]) < 1.0

    @pytest.mark.parametrize("gamma", [1.0, 1e-9])
    @pytest.mark.parametrize("name", ["two-qubit-amp", "two-qubit-dephasing"])
    def test_zeno_check_prints_the_library_errors(self, capsys, name, gamma):
        t, steps, rates = 0.7, [1, 4, 16], [1.0, 10.0]
        assert main([
            "zeno-check", "--model", name, "--gamma", str(gamma), "--t", str(t),
            "--steps", ",".join(map(str, steps)), "--gammas", ",".join(map(str, rates)),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        desc = build_model(name, gamma=gamma)
        p = steady_superprojector(desc.spec.dissipative_part())
        k = hamiltonian_superop(desc.controls[0])
        target = expm(p @ k @ p * t) @ p
        assert doc["zeno_error"] == [
            [n, _fmt(np.linalg.norm(zeno_product(p, k, t, n) - target, 2))] for n in steps
        ]
        terms = {g: build_model(name, gamma=g).spec.terms for g in rates}
        assert doc["strong_damping_error"] == [
            [g, _fmt(strong_damping_error(LindbladSpec(desc.controls[0], terms[g]), 1.0, t))]
            for g in rates
        ]

    @pytest.mark.parametrize("gamma", ["1e-9", "1e-10", "1e-300", "1e-320"])
    @pytest.mark.parametrize("name", ["two-qubit-amp", "two-qubit-dephasing"])
    def test_zeno_check_at_a_small_rate_prints_the_unit_rate_errors(self, capsys, name, gamma):
        # the steady superprojector does not depend on a common factor of the rates
        argv = ["zeno-check", "--model", name, "--steps", "1,16,256"]
        assert main(argv) == 0
        want = capsys.readouterr().out
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--gamma", gamma]) == 0
        assert capsys.readouterr() == (want, "") and caught == []

    def test_byte_stable_outputs(self, capsys):
        main(["lie-dim", "--model", "two-qubit-dephasing"])
        first = capsys.readouterr().out
        main(["lie-dim", "--model", "two-qubit-dephasing"])
        assert capsys.readouterr().out == first

    def test_sweep_csv_format_and_determinism(self, capsys):
        argv = [
            "sweep", "--model", "two-qubit-amp", "--gammas", "0,10",
            "--restarts", "1", "--slices", "4", "--seed", "7",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        lines = first.strip().splitlines()
        assert lines[0] == "gamma,best_eps,reduced_error,restarts,iterations"
        assert len(lines) == 3
        row = lines[2].split(",")
        assert float(row[0]) == 10.0
        assert len(row) == 5
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_sweep_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--model", "two-qubit-amp", "--gammas", "5",
            "--restarts", "1", "--slices", "4", "--seed", "1", "--csv", str(out),
        ]) == 0
        assert out.read_text().startswith("gamma,best_eps")

    def test_config_file_precedence(self, tmp_path, capsys):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"model": "ising-chain", "n": 3}))
        assert main(["lie-dim", "--config", str(config)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim_dfs"] == 4
        # explicit flag beats the config value
        assert main(["lie-dim", "--config", str(config), "--n", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim_dfs"] == 12

    def test_malformed_flags_exit_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["lie-dim", "--bogus"])
        assert err.value.code == 2

    def test_unknown_target_errors(self, capsys):
        assert main([
            "sweep", "--model", "two-qubit-amp", "--gammas", "1",
            "--target", "cnot", "--restarts", "1",
        ]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lie-dim", "--model", "two-qubit-amp", "--n", "5"], "two-qubit-amp"),
            (["dfs", "--model", "two-qubit-dephasing", "--n", "3"], "two-qubit-dephasing"),
            (["sweep", "--gammas", "1", "--restarts", "1", "--slices", "0"], "slice"),
            (["reproduce-table1", "--nmax", "0"], "nmax"),
            (["sweep", "--gammas", "1", "--target", "cnot", "--restarts", "1"], "cnot"),
            (["zeno-check", "--model", "ising-chain", "--gammas", "10"], "two-qubit"),
            (["lie-dim", "--model", "ising-chain", "--n", "3", "--gamma", "inf"], "finite"),
            (["dfs", "--model", "two-qubit-amp", "--gamma", "inf"], "finite"),
            (["zeno-check", "--gammas", "inf"], "finite"),
            (["sweep", "--gammas", "inf", "--restarts", "1", "--slices", "4"], "finite"),
            (["zeno-check", "--t", "inf"], "--t"),
            (["zeno-check", "--t", "nan"], "--t"),
            (["sweep", "--gammas", "1", "--restarts", "1", "--slices", "-2"], "slice"),
            (["sweep", "--gammas", "1", "--restarts", "1", "--slices", "3", "--seed", "-1"],
             "seed"),
            (["sweep", "--model", "n-level-atom", "--gammas", "1", "--restarts", "1"],
             "two-qubit"),
            (["sweep", "--model", "ising-chain", "--gammas", "1", "--restarts", "1"],
             "two-qubit"),
            (["zeno-check", "--steps", "1,x"], "--steps (config 'steps')"),
            (["sweep", "--gammas", "1,x", "--restarts", "1"], "--gammas (config 'gammas')"),
            (["zeno-check", "--gammas", "x"], "--gammas (config 'gammas')"),
            # past the index range: refused before anything of that size is built
            (["reproduce-table1", "--nmax", HUGE], "--nmax (config 'nmax')"),
            (["lie-dim", "--model", "n-level-atom", "--n", HUGE], "--n (config 'n')"),
            (["dfs", "--model", "n-level-atom", "--n", HUGE], "--n (config 'n')"),
            (["lie-dim", "--model", "n-level-atom", "--n", HUGE, "--gamma", "2"],
             "--n (config 'n')"),
            (["dfs", "--model", "n-level-atom", "--n", "-" + HUGE], "--n (config 'n')"),
        ],
        ids=["n-two-qubit-amp", "n-two-qubit-dephasing", "slices-0", "nmax-0",
             "unknown-target", "damping-chain", "gamma-inf-lie-dim", "gamma-inf-dfs",
             "gammas-inf-zeno-check", "gammas-inf-sweep", "t-inf", "t-nan",
             "slices-negative", "seed-negative", "sweep-atom", "sweep-chain",
             "steps-not-int", "gammas-not-float-sweep", "gammas-not-float-zeno-check",
             "nmax-huge", "n-huge-lie-dim", "n-huge-dfs", "n-huge-with-gamma", "n-huge-negative"],
    )
    def test_bad_input_exits_one(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    # A chain of 2^n states past the index range is refused before 2^n is
    # formed, which would take unbounded time; each runs in a subprocess, so
    # that a regression fails at the timeout instead of hanging the run.
    @pytest.mark.parametrize(
        "argv, config",
        [
            (["lie-dim", "--model", "ising-chain", "--n", HUGE], None),
            (["dfs", "--model", "ising-chain", "--n", HUGE], None),
            (["lie-dim"], {"model": "ising-chain", "n": int(HUGE)}),
        ],
        ids=["n-huge-chain-lie-dim", "n-huge-chain-dfs", "n-huge-chain-config"],
    )
    def test_huge_chain_size_exits_one(self, tmp_path, argv, config):
        if config is not None:
            path = tmp_path / "conf.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        out = run_module(argv, timeout=60)
        err = out.stderr.strip().splitlines()
        assert out.returncode == 1 and out.stdout == ""
        assert len(err) == 1 and err[0].startswith("error: ") and "--n (config 'n')" in err[0]

    @pytest.mark.parametrize(
        "name, n, dim_dfs", [("ising-chain", 3, 4), ("n-level-atom", 4, 16)]
    )
    def test_n_sets_the_model_size(self, capsys, name, n, dim_dfs):
        assert main(["lie-dim", "--model", name, "--n", str(n), "--gamma", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["dim_dfs"] == dim_dfs

    @pytest.mark.parametrize(
        "argv, config, key",
        [
            (["sweep"], {"restarts": [1]}, "restarts"),
            (["lie-dim", "--model", "n-level-atom"], {"n": 2.5}, "n"),
            (["lie-dim"], {"modle": "ising-chain"}, "modle"),
            (["dfs"], {"gamma": "1"}, "gamma"),
            (["reproduce-table1"], {"nmax": True}, "nmax"),
            (["sweep"], {"etilde": "bogus"}, "etilde"),
            (["zeno-check"], {"n": 3}, "n"),
            (["lie-dim"], {"config": "other.json"}, "config"),
            (["lie-dim"], {"model": "two-qubit-amp", "n": 5}, "n"),
            (["zeno-check"], {"t": float("inf")}, "t"),
            (["reproduce-table1"], {"nmax": int(HUGE)}, "nmax"),
            (["lie-dim", "--model", "n-level-atom"], {"n": int(HUGE)}, "n"),
        ],
    )
    def test_bad_config_exits_one(self, tmp_path, capsys, argv, config, key):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(config))
        assert main(argv + ["--config", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and repr(key) in err[0]

    # Per subcommand: a cheap value for every flag, and the built-in defaults
    # that are not None.
    _EVERY_FLAG = {
        "lie-dim": {"model": "n-level-atom", "n": 3, "gamma": 2.0},
        "dfs": {"model": "ising-chain", "n": 3, "gamma": 0.5},
        "zeno-check": {"model": "two-qubit-dephasing", "gamma": 2.0, "t": 2,
                       "steps": "1,3", "gammas": "10"},
        "reproduce-table1": {"nmax": 3, "csv": "-"},
        "sweep": {"model": "two-qubit-dephasing", "gammas": "1", "target": "hadamard",
                  "objective": "eps1", "restarts": 1, "seed": 3, "slices": 3,
                  "etilde": "identity", "csv": "-"},
    }
    _DEFAULTS = {
        "lie-dim": {"model": "ising-chain"},
        "dfs": {"model": "two-qubit-amp"},
        "zeno-check": {"model": "two-qubit-amp", "gamma": 1.0, "t": 1.0,
                       "steps": "1,2,4,8,16,32,64,128,256", "gammas": ""},
        "reproduce-table1": {"nmax": 6, "csv": "-"},
        "sweep": {"model": "two-qubit-amp", "gammas": "0.1,1,10,100", "target": "hadamard",
                  "objective": "eps2", "restarts": 10, "seed": 0, "slices": 20,
                  "etilde": "projector", "csv": "-"},
    }

    @pytest.mark.parametrize("command", list(_EVERY_FLAG))
    def test_config_equals_flags(self, tmp_path, capsys, command):
        def as_flags(values):
            return [s for key, value in values.items() for s in (f"--{key}", str(value))]

        values = self._EVERY_FLAG[command]
        parser = build_parser()
        sub = parser.parse_args([command]).subparser
        assert set(values) == {a.dest for a in sub._actions} - {"help", "config"}
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(values))
        assert main([command, "--config", str(path)]) == 0
        from_config = capsys.readouterr().out
        assert main([command, *as_flags(values)]) == 0
        assert capsys.readouterr().out == from_config != ""
        # the defaults parse to the same namespace as no flags at all; the
        # default sweep and Table I are too slow to run here
        assert parser.parse_args([command]) == parser.parse_args(
            [command, *as_flags(self._DEFAULTS[command])]
        )

    def test_config_integer_for_float_flag(self, tmp_path, capsys):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"model": "two-qubit-amp", "gamma": 2}))
        assert main(["dfs", "--config", str(path)]) == 0
        from_config = capsys.readouterr().out
        assert main(["dfs", "--model", "two-qubit-amp", "--gamma", "2"]) == 0
        assert capsys.readouterr().out == from_config

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["model", "n", "gamma", "gammas", "nmax", "bogus"]),
            st.one_of(
                st.none(),
                st.booleans(),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=5),
                st.lists(st.integers(), max_size=2),
            ),
            max_size=3,
        )
    )
    def test_config_fuzz_never_raises(self, config):
        # no integers and no valid model name: any run that gets past the
        # config check is a cheap two-qubit DFS report
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/conf.json"
            with open(path, "w") as fh:
                json.dump(config, fh)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(["dfs", "--config", path]) in (0, 1)

    @staticmethod
    def _fidelity_doc(target="hadamard"):
        from zenoforge.lindblad import spec_to_json

        desc = build_model("two-qubit-amp", gamma=5.0)
        sys_doc = json.loads(spec_to_json(desc.spec))
        sys_doc["controls"] = [
            [[[z.real, z.imag] for z in row] for row in c]
            for c in desc.controls
        ]
        sys_doc["total_time"] = 1.0
        return {
            "system": sys_doc,
            "amplitudes": [[0.3, -0.2], [0.1, 0.4]],
            "target": target,
            "etilde": "projector",
        }

    @classmethod
    def _fidelity_job(cls, tmp_path, target, doc=None):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(cls._fidelity_doc(target) if doc is None else doc))
        return path

    def test_fidelity_job(self, tmp_path, capsys):
        assert main(["fidelity", str(self._fidelity_job(tmp_path, "hadamard"))]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"eps1", "eps2", "diamond_upper", "reduced_error", "nonphysical"}
        assert doc["eps2"] <= doc["eps1"] / 16 + 1e-9

    @staticmethod
    def _six_level_doc():
        """A qubit times a damped qutrit: d = 6 is no power of two."""
        rng = np.random.default_rng(6)

        def as_json(mat):
            return [[[z.real, z.imag] for z in row] for row in np.asarray(mat, dtype=complex)]

        def hermitian():
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            return a + a.conj().T

        lowering = np.kron(np.eye(2), np.diag(np.sqrt([1.0, 2.0]), 1))
        return {
            "system": {
                "dims": [2, 3],
                "hamiltonian": as_json(np.zeros((6, 6))),
                "terms": [{"rate": 2.0, "op": as_json(lowering)}],
                "controls": [as_json(hermitian()), as_json(hermitian())],
                "total_time": 1.0,
            },
            "amplitudes": [[0.3, -0.2, 0.7], [0.1, 0.4, -0.5]],
            "target": "hadamard",
            "etilde": "identity",
        }

    def test_fidelity_job_on_six_levels(self, tmp_path, capsys):
        doc = self._six_level_doc()
        assert main(["fidelity", str(self._fidelity_job(tmp_path, None, doc))]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(np.isfinite(report[key]) for key in ("eps1", "eps2", "reduced_error"))

    # stdout byte for byte, as recorded before operators became plain
    # arrays: every float is printed to full precision, so any change in
    # rounding shows
    FIDELITY_PINNED = {
        "identity": (
            '{"eps1": 23.494936773361452, "eps2": 0.47088651635354356, '
            '"diamond_upper": 19.3886303893231, '
            '"reduced_error": 7.623987732068994, "nonphysical": false}\n'
        ),
        "projector": (
            '{"eps1": 15.412164325970956, "eps2": 0.47088651635354356, '
            '"diamond_upper": 15.703331787093314, '
            '"reduced_error": 7.623987732068994, "nonphysical": false}\n'
        ),
        "six-levels": (
            '{"eps1": 40.48455490436049, "eps2": 0.14149926098497606, '
            '"diamond_upper": 38.176484601872104, '
            '"reduced_error": 4.023535669118358, "nonphysical": false}\n'
        ),
    }

    @pytest.mark.parametrize("job", FIDELITY_PINNED)
    def test_fidelity_output_is_pinned(self, tmp_path, capsys, job):
        if job == "six-levels":
            doc = self._six_level_doc()
        else:
            doc = dict(self._fidelity_doc(), etilde=job)
        assert main(["fidelity", str(self._fidelity_job(tmp_path, None, doc))]) == 0
        assert capsys.readouterr() == (self.FIDELITY_PINNED[job], "")

    @pytest.mark.parametrize(
        "target, message",
        [
            ([[[1, 0]]], "at least 2"),
            ([[[1, 0], [1, 0]], [[1, 0], [1, 0]]], "not unitary"),
            ([[[1, 0], [0, 0]]], "square"),
            ([[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]], "not unitary"),
            ([[[float(i == j), 0.0] for j in range(3)] for i in range(3)], "first tensor factor"),
            ([[[float(i == j), 0.0] for j in range(4)] for i in range(4)], "first tensor factor"),
        ],
        ids=["1x1", "non-unitary", "non-square", "nan", "size-3", "whole-system"],
    )
    def test_fidelity_rejects_bad_goal(self, tmp_path, capsys, target, message):
        assert main(["fidelity", str(self._fidelity_job(tmp_path, target))]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    @pytest.mark.parametrize("etilde", ["identity", "projector"])
    def test_fidelity_goal_must_fit_the_first_factor(self, tmp_path, capsys, etilde):
        # a qutrit times a damped qubit: the Hadamard divides d = 6 but is no
        # unitary on the first factor
        def as_json(mat):
            return [[[z.real, z.imag] for z in row] for row in np.asarray(mat, dtype=complex)]

        lowering = np.kron(np.eye(3), [[0.0, 1.0], [0.0, 0.0]])
        doc = {
            "system": {
                "dims": [3, 2],
                "hamiltonian": as_json(np.zeros((6, 6))),
                "terms": [{"rate": 2.0, "op": as_json(lowering)}],
                "controls": [as_json(np.diag(np.arange(6.0)))],
            },
            "amplitudes": [[0.3, -0.2]],
            "target": "hadamard",
            "etilde": etilde,
        }
        assert main(["fidelity", str(self._fidelity_job(tmp_path, None, doc))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: target must be at least 2x2 and act on the first tensor factor, "
            "of dimension 3; got size 2\n"
        )

    @staticmethod
    def _replaced(doc, path, value):
        """A copy of the job with the entry at ``path`` set (or deleted if
        ``value`` is ``_DELETE``); the empty path replaces the whole job."""
        if not path:
            return value
        doc = json.loads(json.dumps(doc))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return doc

    @pytest.mark.parametrize(
        "path, value, message",
        [
            ((), [1, 2], "JSON object"),
            (("system",), [], "JSON object"),
            (("system", "dims"), 4, "dims"),
            (("system", "dims"), [2, 2.0], "dims"),
            (("system", "dims"), [2, -2], "dims"),
            (("system", "dims"), [2, True], "dims"),
            (("system", "hamiltonian"), 0, "hamiltonian"),
            (("system", "hamiltonian"), [[[0, 0, 0]] * 4] * 4, "hamiltonian"),
            (("system", "terms"), {"rate": 1}, "terms"),
            (("system", "terms", 0, "rate"), "1", "rate"),
            (("system", "controls"), 3, "controls"),
            (("system", "controls", 0), [[1, 0]], "control"),
            (("system", "total_time"), "1", "total_time"),
            (("system", "total_time"), float("nan"), "total time"),
            (("system", "total_time"), float("inf"), "total time"),
            (("system", "terms", 0, "rate"), float("nan"), "rate"),
            (("amplitudes",), [0.3, 0.1], "amplitudes"),
            (("amplitudes",), [[0.3], [0.1, 0.4]], "amplitudes"),
            (("amplitudes",), [["a", "b"], ["c", "d"]], "amplitudes"),
            (("amplitudes",), [[], []], "slice"),
            (("target",), "cnot", "cnot"),
            (("target",), 7, "target"),
            (("etilde",), "bogus", "etilde"),
            (("amplitudes",), [[1e308, 0, 0], [0, 0, 0]], "not finite"),
            (("system", "terms", 0, "rate"), float("inf"), "finite"),
            (("amplitudes",), _DELETE, "job is missing key 'amplitudes'"),
            (("system",), _DELETE, "job is missing key 'system'"),
            (("system", "dims"), _DELETE, "job is missing key 'dims'"),
            (("system", "hamiltonian"), _DELETE, "job is missing key 'hamiltonian'"),
            (("system", "terms"), _DELETE, "job is missing key 'terms'"),
            (("system", "controls"), _DELETE, "job is missing key 'controls'"),
        ],
    )
    def test_fidelity_rejects_malformed_job(self, tmp_path, capsys, path, value, message):
        doc = self._replaced(self._fidelity_doc(), path, value)
        assert main(["fidelity", str(self._fidelity_job(tmp_path, None, doc))]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["lie-dim", "--model", "n-level-atom", "--n", "3", "--gamma", "1e308"],
            ["zeno-check", "--gammas", "1e308"],
            ["sweep", "--gammas", "1e308", "--restarts", "1", "--slices", "4"],
            ["fidelity", "identity"],
            ["fidelity", "projector"],
        ],
        ids=["lie-dim", "zeno-check", "sweep", "fidelity-identity", "fidelity-projector"],
    )
    def test_overflowing_rate_exits_one_without_warning(self, tmp_path, capsys, argv):
        if argv[0] == "fidelity":
            doc = self._replaced(self._fidelity_doc(), ("system", "terms", 0, "rate"), 1e308)
            doc["etilde"] = argv[1]
            argv = ["fidelity", str(self._fidelity_job(tmp_path, None, doc))]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and caught == []
        assert len(err) == 1 and err[0].startswith("error: rate 1e+308 ")

    @pytest.mark.parametrize(
        "path, name",
        [(("system", "hamiltonian"), "hamiltonian"), (("system", "controls", 1), "control 1")],
        ids=["hamiltonian", "control"],
    )
    def test_overflowing_coherent_part_exits_one_without_warning(
        self, tmp_path, capsys, path, name
    ):
        # every entry is finite, but -i[H, .] has entries 1e308 - (-1e308)
        big = [[[z, 0.0] for z in row] for row in np.diag([1e308, 1e308, -1e308, -1e308])]
        doc = self._replaced(self._fidelity_doc(), path, big)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fidelity", str(self._fidelity_job(tmp_path, None, doc))]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and caught == []
        assert len(err) == 1 and err[0] == f"error: {name} with max|H| = 1e+308 makes the generator not finite"

    @pytest.mark.parametrize("skew, code", [(5e-11, 0), (1e-6, 1)])
    def test_fidelity_job_with_skewed_control(self, tmp_path, capsys, skew, code):
        # within 1e-10 of its largest entry the control is scored as its
        # Hermitian part; beyond it the one error line names the control
        doc = self._fidelity_doc()
        control = doc["system"]["controls"][1]
        for j, row in enumerate(control):
            for entry in row[j + 1 :]:
                entry[0] += skew
        assert main(["fidelity", str(self._fidelity_job(tmp_path, None, doc))]) == code
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        if code == 0:
            assert err == [] and set(json.loads(captured.out)) >= {"eps1", "eps2"}
        else:
            assert captured.out == "" and len(err) == 1
            assert err[0].startswith("error: control 1 is not Hermitian within 1e-10")

    @pytest.mark.parametrize(
        "path", [("system", "hamiltonian"), ("system", "controls", 0)], ids=["hamiltonian", "control"]
    )
    def test_huge_coherent_part_exits_one_without_warning(self, tmp_path, capsys, path):
        # finite generators whose slice exponentials lose all accuracy: the
        # propagated map is no channel (or not finite) and must not be scored
        big = [[[z, 0.0] for z in row] for row in np.diag([1e20, 1e20, -1e20, -1e20])]
        doc = self._replaced(self._fidelity_doc(), path, big)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fidelity", str(self._fidelity_job(tmp_path, None, doc))]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and caught == []
        assert len(err) == 1 and err[0].startswith("error: propagated map is not finite")
        assert "max|A| = " in err[0] and "the Hamiltonian, the controls or the amplitudes" in err[0]

    @pytest.mark.parametrize("rate", [1e10, 1e15, 1e20])
    @pytest.mark.parametrize("etilde", ["identity", "projector"])
    def test_huge_rates_still_score(self, tmp_path, capsys, rate, etilde):
        doc = self._replaced(self._fidelity_doc(), ("system", "terms", 0, "rate"), rate)
        doc["etilde"] = etilde
        assert main(["fidelity", str(self._fidelity_job(tmp_path, None, doc))]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert captured.err == "" and not report["nonphysical"]
        assert all(np.isfinite(report[key]) for key in ("eps1", "eps2", "reduced_error"))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([
            (), ("system",), ("system", "dims"), ("system", "dims", 0),
            ("system", "hamiltonian"), ("system", "hamiltonian", 0),
            ("system", "terms"), ("system", "terms", 0), ("system", "terms", 0, "rate"),
            ("system", "terms", 0, "op"), ("system", "controls"), ("system", "controls", 1),
            ("system", "total_time"), ("amplitudes",), ("amplitudes", 0), ("target",),
            ("etilde",),
        ]),
        st.one_of(
            st.just(_DELETE),
            st.recursive(
                st.one_of(
                    st.none(),
                    st.booleans(),
                    st.integers(-3, 5),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.text(max_size=5),
                ),
                lambda children: st.one_of(
                    st.lists(children, max_size=4),
                    st.dictionaries(st.text(max_size=5), children, max_size=3),
                ),
                max_leaves=12,
            ),
        ),
    )
    def test_fidelity_job_fuzz_never_raises(self, path, value):
        if not path and value is _DELETE:
            value = None
        doc = self._replaced(self._fidelity_doc(), path, value)
        with tempfile.TemporaryDirectory() as tmp:
            job = f"{tmp}/job.json"
            with open(job, "w") as fh:
                json.dump(doc, fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["fidelity", job])
        assert code in (0, 1)
        if code == 0:
            # a scored job prints finite numbers and nothing else
            report = json.loads(out.getvalue())
            assert err.getvalue() == ""
            assert all(
                math.isfinite(report[key])
                for key in ("eps1", "eps2", "diamond_upper", "reduced_error")
            )
