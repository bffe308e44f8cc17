"""Registry of the worked example systems.

Each descriptor bundles the dissipative model, its control Hamiltonians,
and the documented expected results; ``validate_model`` re-derives the
expectations from the toolkit so the registry stays self-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import CollectiveSpec, build_chain
from .lindblad import (
    LindbladSpec,
    LindbladTerm,
    steady_superprojector,
)
from .lie import dfs_lie_dimension, lie_verdict
from .ops import lowering_on, pauli_on

__all__ = [
    "ModelDescriptor",
    "MODEL_NAMES",
    "build_model",
    "validate_model",
    "HADAMARD",
    "qubit2_reset_superop",
]

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

MODEL_NAMES = ("two-qubit-amp", "two-qubit-dephasing", "n-level-atom", "ising-chain")

# Table I reference row: dim of the Lie algebra over the DFS's by chain size.
CHAIN_DFS_LIE_DIMS = {1: 0, 2: 1, 3: 4, 4: 12, 5: 40, 6: 129}


@dataclass(frozen=True)
class ModelDescriptor:
    name: str
    params: dict
    spec: LindbladSpec
    controls: tuple[np.ndarray, ...]
    expected: dict = field(default_factory=dict)


def _two_qubit_controls():
    drift = pauli_on(2, 0, "x") @ (pauli_on(2, 1, "x") + pauli_on(2, 1, "z"))
    control = pauli_on(2, 0, "y") @ (pauli_on(2, 1, "x") - pauli_on(2, 1, "z"))
    return drift, control


def _two_qubit_spec(gamma: float, op: np.ndarray) -> LindbladSpec:
    """One jump on the two qubits, no Hamiltonian."""
    return LindbladSpec(np.zeros((4, 4)), (LindbladTerm(gamma, op),), (2, 2))


def _atom_model(n_levels: int, gammas) -> tuple[LindbladSpec, np.ndarray, np.ndarray]:
    # levels 0..N-1 are stable, level N is the unstable one that decays
    if n_levels < 2:
        raise ValueError("the atom model needs at least 2 stable levels")
    gammas = tuple(float(g) for g in gammas)
    if len(gammas) != n_levels:
        raise ValueError(f"need {n_levels} decay rates, got {len(gammas)}")
    eye = np.eye(n_levels + 1)
    terms = tuple(
        LindbladTerm(g, np.outer(eye[:, j], eye[:, n_levels])) for j, g in enumerate(gammas)
    )
    drift = (
        np.outer(eye[:, n_levels], eye[:, 1])
        + np.outer(eye[:, 1], eye[:, n_levels])
        + sum(
            np.outer(eye[:, j], eye[:, j + 1]) + np.outer(eye[:, j + 1], eye[:, j])
            for j in range(n_levels - 1)
        )
    )
    control = (
        np.outer(eye[:, n_levels], eye[:, n_levels])
        + np.outer(eye[:, 0], eye[:, 0])
        - np.outer(eye[:, n_levels], eye[:, 0])
        - np.outer(eye[:, 0], eye[:, n_levels])
    )
    return LindbladSpec(np.zeros_like(eye), terms), drift, control


def build_model(name: str, **params) -> ModelDescriptor:
    """Build one of the registered example systems.

    two-qubit-amp:       gamma (default 1.0)
    two-qubit-dephasing: gamma (default 1.0)
    n-level-atom:        n_levels >= 2, gammas (default all 1.0)
    ising-chain:         n_qubits >= 3, gammas (default (1, 1, 1))
    """
    if name == "two-qubit-amp":
        gamma = float(params.pop("gamma", 1.0))
        _check_no_extra(params)
        drift, control = _two_qubit_controls()
        spec = _two_qubit_spec(gamma, lowering_on(2, 1))
        expected = {
            "dfs_count": 1,
            "dfs_dims": (2,),
            "nonoise_lie_dim": 2,
            "block_lie_dims": (3,),
            "block_contains_su": (True,),
            "unital": False,
            "dfs_lie_dim": 3,
        }
        return ModelDescriptor(name, {"gamma": gamma}, spec, (drift, control), expected)

    if name == "two-qubit-dephasing":
        gamma = float(params.pop("gamma", 1.0))
        _check_no_extra(params)
        drift, control = _two_qubit_controls()
        spec = _two_qubit_spec(gamma, pauli_on(2, 1, "z"))
        expected = {
            "dfs_count": 2,
            "dfs_dims": (2, 2),
            "nonoise_lie_dim": 2,
            "block_lie_dims": (3, 3),
            "block_contains_su": (True, True),
            "unital": True,
            "dfs_lie_dim": 3,
        }
        return ModelDescriptor(name, {"gamma": gamma}, spec, (drift, control), expected)

    if name == "n-level-atom":
        n_levels = int(params.pop("n_levels", 3))
        gammas = params.pop("gammas", (1.0,) * n_levels)
        _check_no_extra(params)
        spec, drift, control = _atom_model(n_levels, gammas)
        expected = {
            "dfs_count": 1,
            "dfs_dims": (n_levels,),
            "nonoise_lie_dim": 2,
            "block_lie_dims": (n_levels**2,),
            "block_equals_u": (True,),
            "unital": False,
            "dfs_lie_dim": n_levels**2,
        }
        return ModelDescriptor(
            name,
            {"n_levels": n_levels, "gammas": tuple(map(float, gammas))},
            spec,
            (drift, control),
            expected,
        )

    if name == "ising-chain":
        n_qubits = int(params.pop("n_qubits", 4))
        gammas = tuple(map(float, params.pop("gammas", (1.0, 1.0, 1.0))))
        _check_no_extra(params)
        spec, drift, control = build_chain(CollectiveSpec(n_qubits, *gammas))
        expected = {
            "nonoise_lie_dim": 2,
            "unital": True,
            "dfs_lie_dim": CHAIN_DFS_LIE_DIMS.get(n_qubits),
        }
        return ModelDescriptor(
            name,
            {"n_qubits": n_qubits, "gammas": gammas},
            spec,
            (drift, control),
            expected,
        )

    raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")


def _check_no_extra(params: dict):
    if params:
        raise ValueError(f"unexpected parameters: {sorted(params)}")


def validate_model(desc: ModelDescriptor) -> dict:
    """Re-derive the descriptor's expected results; raises on mismatch."""
    derived = {}
    derived["nonoise_lie_dim"] = lie_verdict(desc.controls).dim
    report = dfs_lie_dimension(desc.spec, desc.controls)
    derived["dfs_count"] = len(report.dfs)
    derived["dfs_dims"] = tuple(b.dim for b in report.dfs)
    derived["block_lie_dims"] = report.block_dims
    derived["unital"] = desc.spec.is_unital()
    derived["dfs_lie_dim"] = report.verdict.dim
    if "block_contains_su" in desc.expected:
        derived["block_contains_su"] = tuple(
            v.contains_su for v in report.block_verdicts
        )
    if "block_equals_u" in desc.expected:
        derived["block_equals_u"] = tuple(v.equals_u for v in report.block_verdicts)

    for key, want in desc.expected.items():
        if want is None or key not in derived:
            continue
        got = derived[key]
        if got != want:
            raise AssertionError(f"{desc.name}: {key} derived {got}, expected {want}")
    return derived


def qubit2_reset_superop(spec: LindbladSpec) -> np.ndarray:
    """System-2 restriction of the spec's steady superprojection.

    Requires every Lindblad operator to act trivially on system 1
    (identity tensor factor), as in the two-qubit amplitude-damping and
    dephasing models; this is the paper's choice of E-tilde for eps1.
    """
    dims = spec.dims
    if len(dims) < 2:
        raise ValueError("model is not bipartite")
    d1 = dims[0]
    d2 = spec.hamiltonian.shape[0] // d1
    terms = []
    for t in spec.terms:
        mat = t.op.reshape(d1, d2, d1, d2)
        # factorize as identity (x) local; fail loudly if it does not
        local = mat[0, :, 0, :]
        rebuilt = np.kron(np.eye(d1), local)
        if np.max(np.abs(rebuilt - t.op)) > 1e-10:
            raise ValueError("Lindblad terms do not act on system 2 alone")
        terms.append(LindbladTerm(t.rate, local))
    spec2 = LindbladSpec(np.zeros((d2, d2)), tuple(terms))
    return steady_superprojector(spec2)
