"""Numerical dynamical Lie-algebra closure and controllability verdicts.

The dynamical Lie algebra is the REAL span of i*(Hamiltonians) and their
iterated commutators, i.e. a subspace of u(d), the d^2-dimensional real
space of anti-Hermitian matrices. Every element X = iH is held as its d^2
real coordinates in an orthonormal basis of u(d): diag(H), sqrt(2) Re H[j<k]
and sqrt(2) Im H[j<k]. The Euclidean dot product of two coordinate vectors
is the Hilbert-Schmidt product Re Tr(X^dag Y), and a matrix rebuilt from
coordinates is exactly anti-Hermitian. Elements are kept orthonormal by
modified Gram-Schmidt with a re-orthogonalization pass, and candidates are
generated breadth-first (each new element is commuted with everything that
precedes it).

A round costs one product per commutator pair, since for anti-Hermitian x
and E, (E x)^dag = x E and so [x, E] = (E x)^dag - E x, and one GEMM that
screens the round's candidates against the span by Pythagoras before any
MGS pass (see ``lie_closure`` for the margins).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .lindblad import LindbladSpec, detect_dfs
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

_CLOSURE_TOL = 1e-6  # HS norm above which a residual is a new direction


@dataclass(frozen=True)
class LieBasis:
    """HS-orthonormal anti-Hermitian matrices spanning a real Lie algebra."""

    space_dim: int
    elements: np.ndarray  # (n, d, d)

    @property
    def dim(self) -> int:
        return self.elements.shape[0]


@functools.lru_cache(maxsize=None)
def _upper(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices (j, k), j < k, of a d x d matrix's upper triangle."""
    j, k = np.triu_indices(d, 1)
    j.setflags(write=False)
    k.setflags(write=False)
    return j, k


@functools.lru_cache(maxsize=None)
def _gather(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (p, q) into the real view F of a flat d x d complex Q,
    and their weights (s, t), such that F[p] s + F[q] t are the coordinates
    of Q^dag - Q: -2 Im Q_aa, then -sqrt(2) (Im Q_ab + Im Q_ba) and
    sqrt(2) (Re Q_ab - Re Q_ba) for a < b."""
    j, k = _upper(d)
    diag, ab, ba = np.arange(d) * (d + 1), j * d + k, k * d + j
    p = np.concatenate([2 * diag + 1, 2 * ab + 1, 2 * ab])
    q = np.concatenate([2 * diag + 1, 2 * ba + 1, 2 * ba])
    r2, sizes = np.sqrt(2.0), [d, j.size, j.size]
    s, t = np.repeat([-1.0, -r2, r2], sizes), np.repeat([-1.0, -r2, -r2], sizes)
    for a in (p, q, s, t):
        a.setflags(write=False)
    return p, q, s, t


def _coordinates(mats: np.ndarray) -> np.ndarray:
    """Coordinates of the anti-Hermitian parts iH of (..., d, d) matrices:
    diag(H), sqrt(2) Re H[j<k], sqrt(2) Im H[j<k], shape (..., d^2)."""
    d = mats.shape[-1]
    h = (mats.conj().swapaxes(-1, -2) - mats) * 0.5j
    j, k = _upper(d)
    upper = np.sqrt(2.0) * h[..., j, k]
    diag = np.diagonal(h, axis1=-2, axis2=-1).real
    return np.concatenate([diag, upper.real, upper.imag], axis=-1)


def _element(coords: np.ndarray, d: int) -> np.ndarray:
    """The anti-Hermitian d x d matrix with the given coordinates."""
    j, k = _upper(d)
    h = np.diag(coords[:d]).astype(complex)
    h[j, k] = (coords[d : d + j.size] + 1j * coords[d + j.size :]) / np.sqrt(2.0)
    h[k, j] = h[j, k].conj()
    return 1j * h


def _commutator_coordinates(earlier: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coordinates of [x, E_j] for anti-Hermitian x and each E_j of the
    (i, d, d) stack ``earlier``, shape (i, d^2). As (E_j x)^dag = x E_j,
    [x, E_j] = Q_j^dag - Q_j with Q_j = E_j x: one product per pair, all of
    them in one batched matmul, and the coordinates gathered from Q's real
    view. (One tall (i d, d) GEMM is about 5 % faster on the 20-level atom,
    but its threaded BLAS call touches some 8 MB more memory.)"""
    i, d, _ = earlier.shape
    f = (earlier @ x).view(float).reshape(i, 2 * d * d)
    p, q, s, t = _gather(d)
    return f[:, p] * s + f[:, q] * t


def _as_matrix(gen) -> np.ndarray:
    if isinstance(gen, Operator):
        return gen.matrix
    return np.asarray(gen, dtype=complex)


def lie_closure(generators) -> LieBasis:
    """Closure of Lie(i H_0, ..., i H_m) for Hermitian generators.

    Seeds are the orthonormalized i*H_k; pairs are then commuted
    breadth-first (element i with every earlier element), and a candidate
    whose residual outside the current span has HS norm above 1e-6
    (``_CLOSURE_TOL``) is accepted after two MGS passes. Terminates when no
    pair yields a new direction (or at the safety cap).

    Each round makes its candidates [x, E_j] = Q_j^dag - Q_j from the one
    product Q_j = E_j x per pair (``_commutator_coordinates``), and screens
    them with one GEMM, coef = C R^T against the span R as of the round's
    start: by Pythagoras the residual^2 is |c|^2 - |coef|^2, and a
    candidate with residual^2 <= (tol/2)^2 is skipped. Only survivors reach
    the MGS passes, as raw candidates. A skipped candidate would be
    rejected there too unless the Pythagorean residual^2 erred by more than
    tol^2 - (tol/2)^2 = 7.5e-13; the largest error measured against the
    explicitly projected residual^2 was 4.4e-16, over every candidate of
    the atom at n = 2..20 and of the Table I chain at N = 3..6.

    Candidates are projected in u(d) coordinates, so Hermitian rounding
    noise never enters the span. The tolerance separates genuine
    new directions from the noise floor of deep commutator chains, which
    rises because elements accepted with small residuals amplify rounding
    error when normalized. Measured margins (smallest accepted / largest
    rejected residual, a skipped candidate counted by its projected
    residual): 1.8e-4 / 2.2e-8 for the Table I chain at N=6 (dim 129) and
    4.7e-4 / 1.3e-12 at N=5 (dim 40), on the controls from
    ``zeno.superproject_hamiltonian``; 1.6e-3 / 3.7e-16 for the 20-level
    atom (dim 400). The smallest accepted residuals equal those of the
    loop with two products per pair and a per-candidate projection, kept
    as ``mgs_reference`` in the tests; its elements agree with these to
    1.1e-8 at N=6 and 2.2e-16 on the atom.
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
    rows = np.zeros((cap, d * d))
    n = 0

    def try_add(row: np.ndarray) -> bool:
        nonlocal n
        if np.linalg.norm(row) < 1e-14:
            return False
        for _ in range(2):  # MGS with one re-orthogonalization pass
            row = row - rows[:n].T @ (rows[:n] @ row)
        norm = np.linalg.norm(row)
        if norm <= _CLOSURE_TOL:
            return False
        if n >= cap:
            raise RuntimeError(f"closure exceeded the dimension cap {cap}")
        rows[n] = row / norm
        elements[n] = _element(rows[n], d)
        n += 1
        return True

    for m in mats:
        try_add(_coordinates(1j * m))

    skip = (0.5 * _CLOSURE_TOL) ** 2
    i = 1
    while i < n:
        block = _commutator_coordinates(elements[:i], elements[i])
        coef = block @ rows[:n].T
        residual2 = np.einsum("ij,ij->i", block, block) - np.einsum("ij,ij->i", coef, coef)
        for c in block[residual2 > skip]:
            try_add(c)
            if n >= cap:
                return LieBasis(d, elements[:n].copy())
        i += 1
    return LieBasis(d, elements[:n].copy())


def span_residual(basis: LieBasis, matrix: np.ndarray) -> float:
    """HS norm of the component of ``matrix`` outside the basis span: the
    anti-Hermitian part's residual, combined with the whole Hermitian part."""
    x = np.asarray(matrix, dtype=complex)
    rows = _coordinates(basis.elements)
    coords = _coordinates(x)
    resid = coords - rows.T @ (rows @ coords)
    hermitian = np.linalg.norm(x + x.conj().T) / 2
    return float(np.hypot(np.linalg.norm(resid), hermitian))


@dataclass(frozen=True)
class ControllabilityVerdict:
    dim: int
    contains_su: bool
    equals_u: bool

    def to_json(self) -> str:
        return json.dumps(
            {"dim": self.dim, "contains_su": self.contains_su, "equals_u": self.equals_u}
        )


def controllability_verdict(basis: LieBasis) -> ControllabilityVerdict:
    """Check whether the closed algebra contains su(d) or equals u(d).

    su(d) is the traceless hyperplane of u(d), so a span inside u(d)
    contains it exactly when its dimension is d^2, or d^2 - 1 with every
    element traceless (|Tr X| <= 1e-7).
    """
    full = basis.space_dim**2
    traces = np.trace(basis.elements, axis1=1, axis2=2)
    traceless = basis.dim == full - 1 and bool(np.all(np.abs(traces) <= 1e-7))
    return ControllabilityVerdict(basis.dim, basis.dim == full or traceless, basis.dim == full)


@dataclass(frozen=True)
class DFSLieReport:
    """The closure over the whole steady manifold, and one per DFS block."""

    verdict: ControllabilityVerdict
    block_verdicts: tuple[ControllabilityVerdict, ...]

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(v.dim for v in self.block_verdicts)


def dfs_lie_dimension(spec: LindbladSpec, controls) -> DFSLieReport:
    """Lie dimensions of the projected control system over the DFS's.

    For every DFS block the controls are compressed to the block basis
    and closed there. The joint verdict closes P(H) for a unital
    dissipator, and otherwise the block-diagonal sum of the compressions,
    so that blocks the controls link count once; a single block's joint
    verdict is its block verdict.
    """
    from .zeno import project_hamiltonian, superproject_hamiltonian

    def verdict(hamiltonians) -> ControllabilityVerdict:
        nonzero = [h for h in hamiltonians if np.max(np.abs(h)) > 1e-12]
        if not nonzero:
            return ControllabilityVerdict(0, False, False)
        return controllability_verdict(lie_closure(nonzero))

    diss = spec.dissipative_part()
    dfs = detect_dfs(diss)
    blocks = [
        [project_hamiltonian(h, dfs, idx).matrix for h in controls]
        for idx in range(len(dfs.blocks))
    ]
    block_verdicts = tuple(verdict(b) for b in blocks)
    if diss.terms and diss.is_unital():
        joint = verdict([superproject_hamiltonian(h, diss).matrix for h in controls])
    elif len(blocks) == 1:
        joint = block_verdicts[0]
    else:
        joint = verdict([scipy.linalg.block_diag(*parts) for parts in zip(*blocks)])
    return DFSLieReport(joint, block_verdicts)
