"""Command-line surface: model reports, Table-I reproduction, pulse sweeps.

JSON goes to stdout by default; tabular subcommands accept ``--csv PATH``
(RFC-4180 with a header row, floats at 12 significant digits). Each flag
declares its built-in default once, in ``build_parser``. The values of a
``--config`` JSON file become that subcommand's defaults, so flags win over
the config file, which wins over the built-in defaults. A config key must
name one of the subcommand's flags and hold a value of that flag's JSON
type; malformed config or job input exits 1 with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .chain import allowed_spins, dfs_dimension, two_body
from .channels import gate_error_report, superop_tensor, unitary_superop
from .grape import (
    ControlSystem,
    Eps1Target,
    Eps2Target,
    gamma_sweep,
    propagate_schedule,
)
from .lie import dfs_lie_dimension, lie_verdict
from .lindblad import (
    LindbladSpec,
    _array_from_json,
    _matrix_from_json,
    detect_dfs,
    hamiltonian_superop,
    spec_from_json,
    steady_superprojector,
)
from .models import (
    HADAMARD,
    MODEL_NAMES,
    build_model,
    qubit2_reset_superop,
)
from .ops import expm
from .zeno import strong_damping_error, zeno_product

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_csv(path, header, rows):
    out = sys.stdout if path == "-" else open(path, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    finally:
        if out is not sys.stdout:
            out.close()


# JSON types accepted for each argparse flag type (bool is never a number)
_CONFIG_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number")}


def _load_config(args):
    """The config file's values, each checked against its subcommand flag."""
    with open(args.config) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    flags = {a.dest: a for a in args.subparser._actions if a.dest not in ("help", "config")}
    for key, value in doc.items():
        flag = flags.get(key)
        if flag is None:
            raise ValueError(f"unknown config key {key!r}; expected one of {sorted(flags)}")
        kinds, what = _CONFIG_KINDS.get(flag.type, ((str,), "a string"))
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"config key {key!r} must be {what}, got {json.dumps(value)}")
        if flag.choices is not None and value not in flag.choices:
            raise ValueError(f"config key {key!r} must be one of {list(flag.choices)}")
        if flag.type is not None:
            doc[key] = flag.type(value)  # a JSON 2 for a float flag becomes 2.0
    return doc


def _parse_list(args, key, kind):
    """The comma-separated values of flag ``key``, each converted by ``kind``."""
    text = getattr(args, key)
    try:
        return [kind(v) for v in text.split(",") if v]
    except ValueError:
        raise ValueError(
            f"--{key} (config {key!r}) must be comma-separated {kind.__name__} values, got {text!r}"
        ) from None


# The build_model parameter that --n (or a config "n") sets; the two-qubit
# models have a fixed size.
_SIZE_PARAMS = {"n-level-atom": "n_levels", "ising-chain": "n_qubits"}


def _model_from_args(name, n, gamma):
    size = _SIZE_PARAMS.get(name)
    if size is None:
        if n is not None:
            raise ValueError(f"--n (config 'n') is only for ising-chain and n-level-atom, not {name!r}")
        return build_model(name, **({} if gamma is None else {"gamma": gamma}))
    kwargs = {} if n is None else {size: n}
    if gamma is not None:
        # three collective rates for the chain; one per stable atom level (3 by default)
        kwargs["gammas"] = (gamma,) * (3 if size == "n_qubits" else n or 3)
    return build_model(name, **kwargs)


def cmd_lie_dim(args) -> int:
    desc = _model_from_args(args.model, args.n, args.gamma)
    report = dfs_lie_dimension(desc.spec, desc.controls)
    doc = {
        "dim_nonoise": lie_verdict(desc.controls).dim,
        "dim_dfs": report.verdict.dim,
        "block_dims": list(report.block_dims),
    }
    print(json.dumps(doc))
    return 0


def cmd_dfs(args) -> int:
    desc = _model_from_args(args.model, args.n, args.gamma)
    blocks = [
        {
            "dim": b.dim,
            "lindblad_eigenvalues": [[z.real, z.imag] for z in b.lindblad_eigenvalues],
            "damping_eigenvalue": b.damping_eigenvalue,
        }
        for b in detect_dfs(desc.spec)
    ]
    print(json.dumps({"model": args.model, "blocks": blocks}))
    return 0


def cmd_zeno_check(args) -> int:
    name, t = args.model, args.t
    if not 0 <= t < np.inf:  # NaN fails too
        raise ValueError(f"--t (config 't') must be finite and non-negative, got {t}")
    steps, gammas = _parse_list(args, "steps", int), _parse_list(args, "gammas", float)
    if gammas and not name.startswith("two-qubit"):
        # the strong-damping check reproduces the paper's two-qubit example only
        raise ValueError("strong-damping check supports the two-qubit models")
    desc = _model_from_args(name, None, args.gamma)
    projector = steady_superprojector(desc.spec.dissipative_part())
    generator = hamiltonian_superop(desc.controls[0])
    target = expm(projector @ generator @ projector * t) @ projector
    zeno_rows = []
    for nstep in steps:
        zp = zeno_product(projector, generator, t, nstep)
        zeno_rows.append([nstep, float(np.linalg.norm(zp - target, 2))])
    damping_rows = []
    for g in gammas:
        spec = LindbladSpec(desc.controls[0], _model_from_args(name, None, g).spec.terms)
        damping_rows.append([g, strong_damping_error(spec, 1.0, t)])
    doc = {
        "model": name,
        "t": t,
        "zeno_error": [[n, _fmt(e)] for n, e in zeno_rows],
        "strong_damping_error": [[g, _fmt(e)] for g, e in damping_rows],
    }
    print(json.dumps(doc))
    return 0


def _chain_dfs_lie_dim(n: int) -> int:
    """dim of the projected-control Lie algebra; degenerate rows for n < 3."""
    if n == 1:
        return 0
    if n == 2:  # P(Z0 Z1) = sigma_0 . sigma_1 / 3, closed as it is
        return lie_verdict([two_body(0, 1).realize(2) / 3.0]).dim
    desc = build_model("ising-chain", n_qubits=n)
    return dfs_lie_dimension(desc.spec, desc.controls).verdict.dim


def cmd_reproduce_table1(args) -> int:
    nmax = args.nmax
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    ns = list(range(1, nmax + 1))
    spins = sorted({j for n in ns for j in allowed_spins(n)})
    header = ["quantity"] + [f"N={n}" for n in ns]
    rows = []
    for j in spins:
        label = f"J={int(j)}" if j == int(j) else f"J={int(2 * j)}/2"
        row = [label]
        for n in ns:
            try:
                row.append(str(dfs_dimension(j, n)))
            except ValueError:
                row.append("")
        rows.append(row)
    dims = {n: _chain_dfs_lie_dim(n) for n in ns}
    sum_u = {n: sum(dfs_dimension(j, n) ** 2 for j in allowed_spins(n)) for n in ns}
    for n in ns:
        if dims[n] > sum_u[n]:
            raise ValueError(
                f"N={n}: dim_L_DFS {dims[n]} exceeds sum_dim_u {sum_u[n]}, "
                "the dimension of the sum of u(d_J) that holds the projected controls"
            )
    rows.append(["dim_L_DFS"] + [str(dims[n]) for n in ns])
    rows.append(
        ["sum_dim_su"]
        + [str(sum(dfs_dimension(j, n) ** 2 - 1 for j in allowed_spins(n))) for n in ns]
    )
    rows.append(["sum_dim_u"] + [str(sum_u[n]) for n in ns])
    _write_csv(args.csv, header, rows)
    return 0


def _sweep_system_builder(desc_name):
    def build(gamma: float) -> ControlSystem:
        desc = build_model(desc_name, gamma=gamma)
        return ControlSystem(desc.controls, desc.spec, 1.0)

    return build


def _etilde(mode, spec: LindbladSpec, d2: int) -> np.ndarray:
    """System-2 map of the eps1 goal: the identity or the spec's reset."""
    if mode == "identity":
        return np.eye(d2 * d2, dtype=complex)
    if mode == "projector":
        return qubit2_reset_superop(spec)
    raise ValueError("etilde must be 'identity' or 'projector'")


def cmd_sweep(args) -> int:
    name = args.model
    if not name.startswith("two-qubit"):
        # the gate study optimizes over the paper's two-qubit examples only
        raise ValueError("sweep supports the two-qubit models")
    if args.target != "hadamard":
        raise ValueError(f"unknown target {args.target!r}; only 'hadamard' is registered")
    gammas = _parse_list(args, "gammas", float)
    if args.objective == "eps2":
        target = Eps2Target(HADAMARD)
    else:
        # both models are two qubits, and the reset of qubit 2 does not depend on the rate
        etilde = _etilde(args.etilde, build_model(name).spec, 2)
        target = Eps1Target(superop_tensor(unitary_superop(HADAMARD), 2, etilde, 2), HADAMARD)
    rows = gamma_sweep(
        _sweep_system_builder(name), gammas, target,
        restarts=args.restarts, seed=args.seed, n_slices=args.slices,
    )
    header = ["gamma", "best_eps", "reduced_error", "restarts", "iterations"]
    _write_csv(
        args.csv,
        header,
        [
            [_fmt(r.gamma), _fmt(r.best_eps), _fmt(r.reduced_error), r.restarts, r.iterations]
            for r in rows
        ],
    )
    return 0


def _check_goal(goal: np.ndarray, d1: int):
    """A fidelity goal must be a unitary on the first tensor factor, of dimension d1."""
    if goal.ndim != 2 or goal.shape[0] != goal.shape[1]:
        raise ValueError(f"target must be a square matrix, got shape {goal.shape}")
    n = goal.shape[0]
    if n < 2 or n != d1:
        raise ValueError(
            f"target must be at least 2x2 and act on the first tensor factor, of dimension {d1}; "
            f"got size {n}"
        )
    if not np.max(np.abs(goal @ goal.conj().T - np.eye(n))) <= 1e-8:  # NaN fails too
        raise ValueError("target is not unitary within 1e-8")


def cmd_fidelity(args) -> int:
    with open(args.job) as fh:
        job = json.load(fh)
    try:
        report = _fidelity_report(job)
    except KeyError as exc:
        raise ValueError(f"job is missing key {exc.args[0]!r}") from None
    print(report.to_json())
    return 0


def _fidelity_report(job):
    if not isinstance(job, dict) or not isinstance(job["system"], dict):
        raise ValueError("a job and its 'system' must be JSON objects")
    sys_doc = job["system"]
    spec = spec_from_json(json.dumps(sys_doc))
    if not isinstance(sys_doc["controls"], list):
        raise ValueError("controls must be a list of matrices")
    controls = tuple(_matrix_from_json(mat, "control") for mat in sys_doc["controls"])
    total_time = float(_array_from_json(sys_doc.get("total_time", 1.0), 0, "total_time"))
    system = ControlSystem(controls, spec, total_time)
    amplitudes = _array_from_json(job["amplitudes"], 2, "amplitudes")
    target = job.get("target", "hadamard")
    if isinstance(target, str):
        if target != "hadamard":
            raise ValueError(f"unknown target {target!r}")
        goal_unitary = HADAMARD
    else:
        goal_unitary = _matrix_from_json(target, "target")
    d1 = spec.dims[0]
    _check_goal(goal_unitary, d1)
    etilde = _etilde(job.get("etilde", "identity"), spec, spec.hamiltonian.shape[0] // d1)
    return gate_error_report(propagate_schedule(system, amplitudes), goal_unitary, etilde)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenoforge",
        description="Noise-induced controllability toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, func):
        p.add_argument("--config", help="JSON file of defaults for this subcommand's flags")
        p.set_defaults(func=func, subparser=p)

    p = sub.add_parser("lie-dim", help="Lie dimensions with and without noise")
    add_common(p, cmd_lie_dim)
    p.add_argument("--model", choices=MODEL_NAMES, default="ising-chain")
    p.add_argument("--n", type=int, help="chain qubits / atom levels")
    p.add_argument("--gamma", type=float)

    p = sub.add_parser("dfs", help="decoherence-free subspace report")
    add_common(p, cmd_dfs)
    p.add_argument("--model", choices=MODEL_NAMES, default="two-qubit-amp")
    p.add_argument("--n", type=int)
    p.add_argument("--gamma", type=float)

    p = sub.add_parser("zeno-check", help="Zeno product and strong-damping errors")
    add_common(p, cmd_zeno_check)
    p.add_argument("--model", choices=MODEL_NAMES, default="two-qubit-amp")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--steps", default="1,2,4,8,16,32,64,128,256",
                   help="comma-separated step counts")
    p.add_argument("--gammas", default="", help="comma-separated rates for the damping bound")

    p = sub.add_parser("reproduce-table1", help="DFS dimensions and Lie dims by chain size")
    add_common(p, cmd_reproduce_table1)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--csv", default="-", help="output path ('-' for stdout)")

    p = sub.add_parser("sweep", help="optimize gates across noise strengths")
    add_common(p, cmd_sweep)
    p.add_argument("--model", choices=MODEL_NAMES, default="two-qubit-amp")
    p.add_argument("--gammas", default="0.1,1,10,100", help="comma-separated noise strengths")
    p.add_argument("--target", default="hadamard", help="goal gate (hadamard)")
    p.add_argument("--objective", choices=["eps1", "eps2"], default="eps2")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slices", type=int, default=20)
    p.add_argument("--etilde", choices=["projector", "identity"], default="projector")
    p.add_argument("--csv", default="-", help="output path ('-' for stdout)")

    p = sub.add_parser("fidelity", help="one-shot gate-error report from a JSON job")
    p.add_argument("job", help="JSON job file")
    p.set_defaults(func=cmd_fidelity, config=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the config's values replace the flag defaults; explicit flags still win
            args.subparser.set_defaults(**_load_config(args))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a bare MemoryError has no message
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
