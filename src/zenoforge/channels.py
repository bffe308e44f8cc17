"""Choi representations, gate errors, and channel-distance bounds.

The Choi matrix used here is normalized to unit trace,
J(E) = (E (x) id)(|Omega><Omega|) with |Omega> = (1/sqrt d) sum_i |i>|i>,
the channel acting on the first tensor slot. Under row vectorization this
is an entry reshuffle of the superoperator matrix divided by d, which
makes the gate error eps1 = ||E_T - E_G||_HS^2 equal to
d^2 ||J(E_T) - J(E_G)||_HS^2 exactly. Unitaries and Choi matrices are plain
complex arrays; a channel is a ``Superoperator`` or its (d^2, d^2) array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .lindblad import Superoperator, _superop_dim, conjugation_superop

__all__ = [
    "GateErrorReport",
    "choi",
    "unitary_superop",
    "superop_tensor",
    "epsilon1",
    "epsilon2",
    "reduced_channel",
    "reduced_error",
    "gate_error_report",
]


def _matrix(channel: Superoperator | np.ndarray) -> np.ndarray:
    """The (d^2, d^2) matrix of a channel given as a Superoperator or an array."""
    return channel.matrix if isinstance(channel, Superoperator) else np.asarray(channel)


def choi(channel: Superoperator | np.ndarray) -> np.ndarray:
    """Normalized Choi matrix of a superoperator, a complex (d^2, d^2) array."""
    mat = _matrix(channel)
    d = _superop_dim(mat)
    # the entry permutation between superoperator and (unnormalized) Choi
    choi_mat = mat.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d) / d
    return np.asarray(choi_mat, dtype=complex)


def unitary_superop(u: np.ndarray) -> np.ndarray:
    mat = np.asarray(u, dtype=complex)
    return conjugation_superop(mat, mat.conj().T)


def superop_tensor(m1: np.ndarray, d1: int, m2: np.ndarray, d2: int) -> np.ndarray:
    """Superoperator of the product channel Phi1 (x) Phi2."""
    k = np.kron(m1, m2)
    # kron index order (a1 b1 a2 b2 | i1 j1 i2 j2) -> (a1 a2 b1 b2 | i1 i2 j1 j2)
    k = k.reshape(d1, d1, d2, d2, d1, d1, d2, d2)
    k = k.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return np.ascontiguousarray(k.reshape((d1 * d2) ** 2, (d1 * d2) ** 2))


def epsilon1(target: Superoperator | np.ndarray, goal: Superoperator | np.ndarray) -> float:
    """Squared Hilbert-Schmidt distance between superoperator matrices."""
    a, b = _matrix(target), _matrix(goal)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b) ** 2)


def _eps2_weight(goal_unitary: np.ndarray, d: int) -> np.ndarray:
    """1 - S (J(U_G) (x) 1_2) S^T for a goal unitary on system 1 of a
    d-dimensional system; eps2 = Tr{J^2(E_T) times this weight}. The swap S
    is the one ``superop_tensor`` applies by reshaping."""
    d1 = goal_unitary.shape[0]
    d2 = d // d1
    ju = choi(unitary_superop(goal_unitary))
    return np.eye(d * d) - superop_tensor(ju, d1, np.eye(d2 * d2), d2)


def epsilon2(target: Superoperator | np.ndarray, goal_unitary: np.ndarray) -> float:
    """Choi-based lower bound on eps1/d^2 for a factorized unitary goal.

    eps2 = Tr{J^2(E_T) (1 - S (J(U_G) (x) 1_2) S^T)}; zero exactly when the
    target factorizes into the goal unitary on system 1 times anything on
    system 2. System 1 is the first factor of d = d1 d2, with d1 = dim(U_G).
    """
    mat = _matrix(target)
    u = np.asarray(goal_unitary)
    d = _superop_dim(mat)
    d1 = u.shape[0]
    if d < d1 or d % d1 != 0:
        raise ValueError(f"total dim {d} does not factor over system-1 dim {d1}")
    jt = choi(mat)
    return float(np.real(np.trace(jt @ jt @ _eps2_weight(u, d))))


def reduced_channel(target: Superoperator, rho2: np.ndarray) -> Superoperator:
    """System-1 reduced map rho1 -> Tr_2{E_T(rho1 (x) rho2)}."""
    rho2 = np.asarray(rho2, dtype=complex)
    d = _superop_dim(target.matrix)
    d2 = rho2.shape[0]
    if d % d2 != 0:
        raise ValueError(f"system-2 dim {d2} does not divide total dim {d}")
    d1 = d // d2
    m8 = target.matrix.reshape(d1, d2, d1, d2, d1, d2, d1, d2)
    m1 = np.einsum("asbsimjn,mn->abij", m8, rho2)
    return Superoperator(m1.reshape(d1 * d1, d1 * d1))


def reduced_error(target: Superoperator, goal_unitary: np.ndarray) -> float:
    """The reduced gate error ||Tr_2{E_T(rho1 (x) 1/d2)} - U_G||_HS^2: the
    system-1 map with system 2 in the totally mixed state against the goal
    unitary's superoperator."""
    u = np.asarray(goal_unitary)
    d2 = _superop_dim(target.matrix) // u.shape[0]
    reduced = reduced_channel(target, np.eye(d2) / d2)
    return float(np.linalg.norm(reduced.matrix - unitary_superop(u)) ** 2)


@dataclass(frozen=True)
class GateErrorReport:
    """The four gate-error figures for one optimized channel."""

    eps1: float
    eps2: float
    diamond_upper: float
    reduced_error: float
    nonphysical: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "eps1": self.eps1,
                "eps2": self.eps2,
                "diamond_upper": self.diamond_upper,
                "reduced_error": self.reduced_error,
                "nonphysical": self.nonphysical,
            }
        )


def gate_error_report(
    target: Superoperator, goal_unitary: np.ndarray, etilde: np.ndarray
) -> GateErrorReport:
    """eps1 against U_G (x) etilde, eps2, the diamond bound d sqrt(eps1) and
    the reduced gate error, for a goal unitary on system 1, the first factor
    of d = d1 d2 with d1 = dim(U_G). ``nonphysical`` flags Tr J^2(E_T) > 1,
    which no channel reaches."""
    u = np.asarray(goal_unitary)
    d1 = u.shape[0]
    d = _superop_dim(target.matrix)
    d2 = d // d1
    goal = superop_tensor(unitary_superop(u), d1, np.asarray(etilde), d2)
    e1 = epsilon1(target, goal)
    e2 = epsilon2(target, u)
    jt = choi(target)
    nonphysical = bool(np.real(np.trace(jt @ jt)) > 1 + 1e-9)
    return GateErrorReport(e1, e2, d * np.sqrt(e1), reduced_error(target, u), nonphysical)
