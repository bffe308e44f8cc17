"""Choi representations, gate errors, and channel-distance bounds.

The Choi matrix used here is normalized to unit trace,
J(E) = (E (x) id)(|Omega><Omega|) with |Omega> = (1/sqrt d) sum_i |i>|i>,
the channel acting on the first tensor slot. Under row vectorization this
is an entry reshuffle of the superoperator matrix divided by d, which
makes the gate error eps1 = ||E_T - E_G||_HS^2 equal to
d^2 ||J(E_T) - J(E_G)||_HS^2 exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .lindblad import Superoperator, conjugation_superop
from .ops import HilbertSpace, Operator

__all__ = [
    "ChoiMatrix",
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


@dataclass(frozen=True)
class ChoiMatrix:
    """Unit-trace Choi state of a channel on a d-dimensional system."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.dim**2, self.dim**2):
            raise ValueError(f"Choi matrix shape {mat.shape} for dim {self.dim}")
        object.__setattr__(self, "matrix", mat)


def choi(channel: Superoperator | np.ndarray) -> ChoiMatrix:
    """Normalized Choi matrix of a superoperator."""
    mat = channel.matrix if isinstance(channel, Superoperator) else np.asarray(channel)
    n = mat.shape[0]
    d = round(n**0.5)
    if mat.shape != (n, n) or d * d != n:
        raise ValueError(f"superoperator must be d^2 x d^2, got {mat.shape}")
    # the entry permutation between superoperator and (unnormalized) Choi
    return ChoiMatrix(d, mat.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(n, n) / d)


def unitary_superop(u: Operator | np.ndarray) -> np.ndarray:
    mat = u.matrix if isinstance(u, Operator) else np.asarray(u, dtype=complex)
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
    a = target.matrix if isinstance(target, Superoperator) else np.asarray(target)
    b = goal.matrix if isinstance(goal, Superoperator) else np.asarray(goal)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b) ** 2)


def _eps2_weight(goal_unitary: np.ndarray, d: int) -> np.ndarray:
    """1 - S (J(U_G) (x) 1_2) S^T for a goal unitary on system 1 of a
    d-dimensional system; eps2 = Tr{J^2(E_T) times this weight}. The swap S
    is the one ``superop_tensor`` applies by reshaping."""
    d1 = goal_unitary.shape[0]
    d2 = d // d1
    ju = choi(unitary_superop(goal_unitary)).matrix
    return np.eye(d * d) - superop_tensor(ju, d1, np.eye(d2 * d2), d2)


def epsilon2(target: Superoperator | np.ndarray, goal_unitary: Operator | np.ndarray) -> float:
    """Choi-based lower bound on eps1/d^2 for a factorized unitary goal.

    eps2 = Tr{J^2(E_T) (1 - S (J(U_G) (x) 1_2) S^T)}; zero exactly when the
    target factorizes into the goal unitary on system 1 times anything on
    system 2. System 1 is the first factor of d = d1 d2, with d1 = dim(U_G).
    """
    mat = target.matrix if isinstance(target, Superoperator) else np.asarray(target)
    u = goal_unitary.matrix if isinstance(goal_unitary, Operator) else np.asarray(goal_unitary)
    d = round(mat.shape[0] ** 0.5)
    d1 = u.shape[0]
    if d < d1 or d % d1 != 0:
        raise ValueError(f"total dim {d} does not factor over system-1 dim {d1}")
    jt = choi(mat).matrix
    return float(np.real(np.trace(jt @ jt @ _eps2_weight(u, d))))


def reduced_channel(target: Superoperator, rho2: np.ndarray) -> Superoperator:
    """System-1 reduced map rho1 -> Tr_2{E_T(rho1 (x) rho2)}."""
    rho2 = np.asarray(rho2, dtype=complex)
    d = target.space.dim
    d2 = rho2.shape[0]
    if d % d2 != 0:
        raise ValueError(f"system-2 dim {d2} does not divide total dim {d}")
    d1 = d // d2
    m8 = target.matrix.reshape(d1, d2, d1, d2, d1, d2, d1, d2)
    m1 = np.einsum("asbsimjn,mn->abij", m8, rho2)
    return Superoperator(
        HilbertSpace((d1,)), m1.reshape(d1 * d1, d1 * d1)
    )


def reduced_error(target: Superoperator, goal_unitary: Operator | np.ndarray) -> float:
    """The reduced gate error ||Tr_2{E_T(rho1 (x) 1/d2)} - U_G||_HS^2: the
    system-1 map with system 2 in the totally mixed state against the goal
    unitary's superoperator."""
    u = goal_unitary.matrix if isinstance(goal_unitary, Operator) else np.asarray(goal_unitary)
    d2 = target.space.dim // u.shape[0]
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
    target: Superoperator, goal_unitary: Operator | np.ndarray, etilde: np.ndarray
) -> GateErrorReport:
    """eps1 against U_G (x) etilde, eps2, the diamond bound d sqrt(eps1) and
    the reduced gate error, for a goal unitary on system 1, the first factor
    of d = d1 d2 with d1 = dim(U_G). ``nonphysical`` flags Tr J^2(E_T) > 1,
    which no channel reaches."""
    u = goal_unitary.matrix if isinstance(goal_unitary, Operator) else np.asarray(goal_unitary)
    d1 = u.shape[0]
    d = target.space.dim
    d2 = d // d1
    goal = superop_tensor(unitary_superop(u), d1, np.asarray(etilde), d2)
    e1 = epsilon1(target, goal)
    e2 = epsilon2(target, u)
    jt = choi(target).matrix
    nonphysical = bool(np.real(np.trace(jt @ jt)) > 1 + 1e-9)
    return GateErrorReport(e1, e2, d * np.sqrt(e1), reduced_error(target, u), nonphysical)
