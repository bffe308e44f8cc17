"""Registry of the worked example systems.

Each descriptor bundles a model's name, its parameters, its dissipative
spec and its control Hamiltonians. Their Lie dimensions and DFS's are
computed by ``lie`` and ``lindblad``, not stored here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import CollectiveSpec, build_chain
from .lindblad import LindbladSpec, LindbladTerm, steady_superprojector
from .ops import lowering_on, pauli_on

__all__ = [
    "ModelDescriptor",
    "MODEL_NAMES",
    "build_model",
    "HADAMARD",
    "qubit2_reset_superop",
]

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

MODEL_NAMES = ("two-qubit-amp", "two-qubit-dephasing", "n-level-atom", "ising-chain")


@dataclass(frozen=True, eq=False)
class ModelDescriptor:
    name: str
    params: dict
    spec: LindbladSpec
    controls: tuple[np.ndarray, ...]


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
        return ModelDescriptor(name, {"gamma": gamma}, spec, (drift, control))

    if name == "two-qubit-dephasing":
        gamma = float(params.pop("gamma", 1.0))
        _check_no_extra(params)
        drift, control = _two_qubit_controls()
        spec = _two_qubit_spec(gamma, pauli_on(2, 1, "z"))
        return ModelDescriptor(name, {"gamma": gamma}, spec, (drift, control))

    if name == "n-level-atom":
        n_levels = int(params.pop("n_levels", 3))
        gammas = params.pop("gammas", (1.0,) * n_levels)
        _check_no_extra(params)
        spec, drift, control = _atom_model(n_levels, gammas)
        gammas = tuple(map(float, gammas))
        return ModelDescriptor(
            name, {"n_levels": n_levels, "gammas": gammas}, spec, (drift, control)
        )

    if name == "ising-chain":
        n_qubits = int(params.pop("n_qubits", 4))
        gammas = tuple(map(float, params.pop("gammas", (1.0, 1.0, 1.0))))
        _check_no_extra(params)
        spec, drift, control = build_chain(CollectiveSpec(n_qubits, *gammas))
        return ModelDescriptor(
            name, {"n_qubits": n_qubits, "gammas": gammas}, spec, (drift, control)
        )

    raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")


def _check_no_extra(params: dict):
    if params:
        raise ValueError(f"unexpected parameters: {sorted(params)}")


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
