import contextlib
import io
import json
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
from zenoforge.cli import build_parser, main
from zenoforge.models import (
    HADAMARD,
    MODEL_NAMES,
    build_model,
    qubit2_reset_superop,
    validate_model,
)
from zenoforge.lindblad import vec

_DELETE = object()  # marks a job entry to delete in the fidelity job tests


class TestRegistry:
    @pytest.mark.parametrize("name", ["two-qubit-amp", "two-qubit-dephasing"])
    def test_two_qubit_models_self_validate(self, name):
        validate_model(build_model(name))

    def test_atom_self_validates(self):
        derived = validate_model(build_model("n-level-atom", n_levels=4))
        assert derived["dfs_dims"] == (4,)
        assert derived["block_lie_dims"] == (16,)

    def test_chain_self_validates(self):
        derived = validate_model(build_model("ising-chain", n_qubits=3))
        assert derived["dfs_lie_dim"] == 4

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

    def test_hadamard_is_unitary(self):
        assert np.allclose(HADAMARD @ HADAMARD.conj().T, np.eye(2))


class TestCli:
    def test_runs_as_module(self):
        src = str(Path(zenoforge.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-m", "zenoforge", "--help"],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path})
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
        ],
        ids=["two-qubit-amp", "two-qubit-dephasing", *[f"atom-{n}" for n in range(2, 7)],
             "chain-3", "chain-4", "chain-5"],
    )
    def test_lie_dim_of_every_registered_model(self, capsys, argv, out):
        assert main(["lie-dim", *argv]) == 0
        assert capsys.readouterr().out == out + "\n"

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

    def test_zeno_check(self, capsys):
        assert main([
            "zeno-check", "--model", "two-qubit-amp", "--steps", "1,4", "--gammas", "10",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        errs = {n: float(e) for n, e in doc["zeno_error"]}
        assert errs[4] < errs[1]
        assert float(doc["strong_damping_error"][0][1]) < 1.0

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
        ],
        ids=["n-two-qubit-amp", "n-two-qubit-dephasing", "slices-0", "nmax-0",
             "unknown-target", "damping-chain", "gamma-inf-lie-dim", "gamma-inf-dfs",
             "gammas-inf-zeno-check", "gammas-inf-sweep", "t-inf", "t-nan",
             "slices-negative", "seed-negative", "sweep-atom", "sweep-chain",
             "steps-not-int", "gammas-not-float-sweep", "gammas-not-float-zeno-check"],
    )
    def test_bad_input_exits_one(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

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
            [[[z.real, z.imag] for z in row] for row in c.matrix]
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

    def test_fidelity_job_on_six_levels(self, tmp_path, capsys):
        # a qubit times a damped qutrit: d = 6 is no power of two
        rng = np.random.default_rng(6)

        def as_json(mat):
            return [[[z.real, z.imag] for z in row] for row in np.asarray(mat, dtype=complex)]

        def hermitian():
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            return a + a.conj().T

        lowering = np.kron(np.eye(2), np.diag(np.sqrt([1.0, 2.0]), 1))
        doc = {
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
        assert main(["fidelity", str(self._fidelity_job(tmp_path, None, doc))]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(np.isfinite(report[key]) for key in ("eps1", "eps2", "reduced_error"))

    @pytest.mark.parametrize(
        "target, message",
        [
            ([[[1, 0]]], "at least 2"),
            ([[[1, 0], [1, 0]], [[1, 0], [1, 0]]], "not unitary"),
            ([[[1, 0], [0, 0]]], "square"),
            ([[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]], "not unitary"),
            ([[[float(i == j), 0.0] for j in range(3)] for i in range(3)], "divide"),
        ],
        ids=["1x1", "non-unitary", "non-square", "nan", "size-3"],
    )
    def test_fidelity_rejects_bad_goal(self, tmp_path, capsys, target, message):
        assert main(["fidelity", str(self._fidelity_job(tmp_path, target))]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

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
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(["fidelity", job]) in (0, 1)
