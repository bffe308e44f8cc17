"""Numerical dynamical Lie-algebra closure and controllability verdicts.

The dynamical Lie algebra is the REAL span of i*(Hamiltonians) and their
iterated commutators, i.e. a subspace of the d^2-dimensional real space
of anti-Hermitian matrices. Elements are kept Hilbert-Schmidt-orthonormal
by modified Gram-Schmidt with a re-orthogonalization pass, and candidates
are generated breadth-first (each new element is commuted with everything
that precedes it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .lindblad import (
    LindbladSpec,
    detect_dfs,
    steady_superprojector,
)
from .ops import Operator

__all__ = [
    "LieBasis",
    "ControllabilityVerdict",
    "DFSLieReport",
    "lie_closure",
    "controllability_verdict",
    "dfs_lie_dimension",
    "span_residual",
]


@dataclass(frozen=True)
class LieBasis:
    """HS-orthonormal anti-Hermitian matrices spanning a real Lie algebra."""

    space_dim: int
    elements: np.ndarray  # (n, d, d)

    @property
    def dim(self) -> int:
        return self.elements.shape[0]


def _to_real(mats: np.ndarray) -> np.ndarray:
    """Embed complex matrices as real vectors; Euclidean dot = Re Tr{X^dag Y}."""
    flat = mats.reshape(mats.shape[0], -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def _from_real(row: np.ndarray, d: int) -> np.ndarray:
    half = d * d
    return (row[:half] + 1j * row[half:]).reshape(d, d)


def _as_matrix(gen) -> np.ndarray:
    if isinstance(gen, Operator):
        return gen.matrix
    return np.asarray(gen, dtype=complex)


def lie_closure(generators, tol: float = 1e-6) -> LieBasis:
    """Closure of Lie(i H_0, ..., i H_m) for Hermitian generators.

    Seeds are the orthonormalized i*H_k; pairs are then commuted
    breadth-first, projecting each candidate out of the current span and
    keeping residuals whose HS norm exceeds ``tol``. Terminates when no
    pair yields a new direction (or at the safety cap).

    The default tolerance separates genuine new directions (observed
    >= 1e-4 on the structured models here) from the noise floor of deep
    commutator chains, which climbs to ~1e-8 by dimension ~130 because
    elements accepted with small residuals amplify rounding error when
    normalized.
    """
    mats = [_as_matrix(g) for g in generators]
    if not mats:
        raise ValueError("need at least one generator")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("generators must share one space")
        if np.max(np.abs(m - m.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(m))):
            raise ValueError("generators must be Hermitian")
    if all(np.max(np.abs(m)) < 1e-14 for m in mats):
        raise ValueError("need at least one nonzero generator")
    cap = d * d

    elements = np.zeros((cap, d, d), dtype=complex)
    rows = np.zeros((cap, 2 * d * d))
    n = 0

    def try_add(row: np.ndarray) -> bool:
        nonlocal n
        if np.linalg.norm(row) < 1e-14:
            return False
        for _ in range(2):  # MGS with one re-orthogonalization pass
            row = row - rows[:n].T @ (rows[:n] @ row)
        norm = np.linalg.norm(row)
        if norm <= tol:
            return False
        if n >= cap:
            raise RuntimeError(f"closure exceeded the dimension cap {cap}")
        rows[n] = row / norm
        elements[n] = _from_real(rows[n], d)
        n += 1
        return True

    for m in mats:
        try_add(_to_real((1j * m)[None])[0])

    i = 1
    while i < n:
        x = elements[i]
        earlier = elements[:i]
        commutators = x[None] @ earlier - earlier @ x[None]
        block = _to_real(commutators)
        # batch-project against the basis as of this round, then finish
        # candidates that survive one pass individually
        n0 = n
        block -= (block @ rows[:n0].T) @ rows[:n0]
        for c in block:
            if np.linalg.norm(c) <= 0.5 * tol:
                continue  # conclusively in-span after one full pass
            try_add(c)
            if n >= cap:
                return LieBasis(d, elements[:n].copy())
        i += 1
    return LieBasis(d, elements[:n].copy())


def span_residual(basis: LieBasis, matrix: np.ndarray) -> float:
    """HS norm of the component of ``matrix`` outside the basis span."""
    rows = _to_real(basis.elements)
    row = _to_real(np.asarray(matrix, dtype=complex)[None])[0]
    resid = row - rows.T @ (rows @ row)
    return float(np.linalg.norm(resid))


@dataclass(frozen=True)
class ControllabilityVerdict:
    dim: int
    contains_su: bool
    equals_u: bool
    block_dims: tuple[int, ...] = ()

    def to_json(self) -> str:
        return json.dumps(
            {
                "dim": self.dim,
                "contains_su": self.contains_su,
                "equals_u": self.equals_u,
                "block_dims": list(self.block_dims),
            }
        )


def _su_generators(d: int):
    """Canonical anti-Hermitian generators of su(d): d^2 - 1 of them."""
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            yield 1j * sym
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = 1.0
            asym[k, j] = -1.0
            yield asym
    for j in range(d - 1):
        diag = np.zeros((d, d), dtype=complex)
        diag[j, j] = 1.0
        diag[j + 1, j + 1] = -1.0
        yield 1j * diag


def controllability_verdict(basis: LieBasis, tol: float = 1e-7) -> ControllabilityVerdict:
    """Check whether the closed algebra contains su(d) or equals u(d)."""
    d = basis.space_dim
    traceless = basis.elements - (
        np.trace(basis.elements, axis1=1, axis2=2)[:, None, None] / d
    ) * np.eye(d)
    traceless_rank = int(
        np.linalg.matrix_rank(_to_real(traceless), tol=1e-9)
    )
    contains_su = traceless_rank >= d * d - 1
    if contains_su:
        contains_su = all(
            span_residual(basis, g / np.linalg.norm(g)) < tol for g in _su_generators(d)
        )
    equals_u = basis.dim == d * d
    return ControllabilityVerdict(basis.dim, contains_su, equals_u)


@dataclass(frozen=True)
class DFSLieReport:
    """Per-DFS-block closure dimensions, plus the full-space result for
    unital dissipators."""

    block_dims: tuple[int, ...]
    block_verdicts: tuple[ControllabilityVerdict, ...]
    unital_dim: int | None
    unital_verdict: ControllabilityVerdict | None


def dfs_lie_dimension(
    spec: LindbladSpec, controls, tol: float = 1e-6
) -> DFSLieReport:
    """Lie dimensions of the projected control system over the DFS's.

    For every DFS block the controls are compressed to the block basis
    and closed there. If the dissipator is unital the superprojected
    controls are additionally closed on the full space.
    """
    from .zeno import project_hamiltonian, superproject_hamiltonian

    diss = spec.dissipative_part()
    dfs = detect_dfs(diss)
    block_dims = []
    block_verdicts = []
    for idx in range(len(dfs.blocks)):
        projected = [project_hamiltonian(h, dfs, idx) for h in controls]
        nonzero = [p for p in projected if np.max(np.abs(p.matrix)) > 1e-12]
        if not nonzero:
            block_dims.append(0)
            block_verdicts.append(ControllabilityVerdict(0, False, False))
            continue
        basis = lie_closure(nonzero, tol=tol)
        block_dims.append(basis.dim)
        block_verdicts.append(controllability_verdict(basis))

    unital_dim = None
    unital_verdict = None
    # D(1) = -2 sum_j gamma_j (Lj^dag Lj - Lj Lj^dag): cheap unitality test
    defect = sum(
        t.rate * (t.op.matrix.conj().T @ t.op.matrix - t.op.matrix @ t.op.matrix.conj().T)
        for t in diss.terms
    )
    scale = max(
        (t.rate * np.max(np.abs(t.op.matrix)) ** 2 for t in diss.terms), default=0.0
    )
    if diss.terms and np.max(np.abs(defect)) <= 1e-10 * max(1.0, scale):
        projector = steady_superprojector(diss)
        superprojected = [superproject_hamiltonian(h, projector) for h in controls]
        nonzero = [p for p in superprojected if np.max(np.abs(p.matrix)) > 1e-12]
        if nonzero:
            basis = lie_closure(nonzero, tol=tol)
            unital_dim = basis.dim
            unital_verdict = controllability_verdict(basis)
        else:
            unital_dim = 0
            unital_verdict = ControllabilityVerdict(0, False, False)
    return DFSLieReport(
        tuple(block_dims), tuple(block_verdicts), unital_dim, unital_verdict
    )
