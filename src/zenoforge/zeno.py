"""Projected Hamiltonians, Zeno product limits, and strong-damping errors.

In the strong-damping limit the dissipative semigroup acts like a
projective measurement: dynamics is confined to the DFS blocks and
generated there by the compressed Hamiltonians P_i H P_i, or, for a unital
dissipator, on the whole commutant of {Lj, Lj^dag} (Frigerio 1978) by P(H).
The coherent part is vectorized with the same row convention as `lindblad`.
"""

from __future__ import annotations

import numpy as np

from .lindblad import (
    DFSDecomposition,
    LindbladSpec,
    Superoperator,
    _ZERO_CUT,
    _kernel_tolerance,
    dissipator_matrix,
    hamiltonian_superop,
    steady_superprojector,
)
from .ops import HilbertSpace, Operator, expm, hermitian

__all__ = [
    "coherent_generator",
    "project_hamiltonian",
    "superproject_hamiltonian",
    "zeno_product",
    "strong_damping_error",
]


def coherent_generator(h: Operator) -> Superoperator:
    """Superoperator of rho -> -i[h, rho]."""
    return Superoperator(h.space, hamiltonian_superop(h.matrix))


def project_hamiltonian(h: Operator, dfs: DFSDecomposition, block: int) -> Operator:
    """P_i H P_i compressed to the block's orthonormal basis."""
    mat = hermitian(h, "hamiltonian")
    if not 0 <= block < len(dfs.blocks):
        raise ValueError(f"block {block} out of range ({len(dfs.blocks)} blocks)")
    basis = dfs.blocks[block].basis
    compressed = basis.conj().T @ mat @ basis
    return Operator(HilbertSpace((basis.shape[1],)), compressed)


def superproject_hamiltonian(h: Operator, spec: LindbladSpec) -> Operator:
    """P(H) under a unital dissipator: the generator of the projected
    coherent dynamics over the whole steady-state manifold.

    For unital D, ker D is the commutant of {Lj, Lj^dag} (Frigerio, Commun.
    Math. Phys. 63, 269 (1978)), so P is the HS-orthogonal projection onto
    it and P(H) is the kernel component of H under the positive map
    C = -(D + D^dag)/2 = sum_j gamma_j/2 ([Lj^dag, [Lj, .]] + [Lj, [Lj^dag, .]]).
    For normal Lj its eigenvalues are the decay rates of D, so the zero cut
    of ``steady_superprojector``, ``_ZERO_CUT``, applies. Lanczos from H on C with full
    re-orthogonalization finds P(H) from d x d products alone.
    """
    x = hermitian(h, "hamiltonian")
    if not spec.is_unital():
        raise ValueError("dissipator is not unital: P(H) is not a projection onto its commutant")
    d = spec.space.dim
    jumps = [(t.rate / 2, a) for t in spec.terms for a in (t.op.matrix, t.op.matrix.conj().T)]

    def c_map(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        for r, a in jumps:
            inner = a @ x - x @ a
            out += r * (a.conj().T @ inner - inner @ a.conj().T)
        return (out + out.conj().T) / 2

    norm = np.linalg.norm(x)
    if norm == 0:
        return Operator(h.space, x)
    import scipy.linalg

    # Krylov rows stay exactly Hermitian, so their HS products are real:
    # rounding left anti-Hermitian would escape re-orthogonalization and grow.
    q = (x / norm).reshape(1, -1)
    alphas, betas = [], []
    while True:
        w = c_map(q[-1].reshape(d, d)).reshape(-1)
        alphas.append(np.vdot(q[-1], w).real)
        for _ in range(2):
            w = w - (q.conj() @ w).real @ q
        beta = np.linalg.norm(w)
        theta, s = scipy.linalg.eigh_tridiagonal(alphas, betas)
        # P(H) is off by about beta over the smallest nonzero eigenvalue of
        # C, so stop only once the Krylov space is invariant to rounding.
        if beta <= _kernel_tolerance(theta, 1e-12) or len(q) == d * d:
            break
        betas.append(beta)
        q = np.vstack([q, w / beta])
    kernel = np.abs(theta) <= _kernel_tolerance(theta, _ZERO_CUT)
    out = norm * (s[:, kernel] @ s[0, kernel]) @ q
    return Operator(h.space, out.reshape(d, d))


def zeno_product(
    projector: Superoperator, generator: Superoperator, t: float, n: int
) -> Superoperator:
    """(P exp(K t/n) P)^n, the frequent-switching product at finite n."""
    if n < 1:
        raise ValueError("need at least one step")
    if not 0 <= t < np.inf:  # NaN fails too
        raise ValueError(f"time must be finite and non-negative, got {t}")
    p = projector.matrix
    step = p @ expm(generator.matrix * (t / n)) @ p
    return Superoperator(projector.space, np.linalg.matrix_power(step, n))


def strong_damping_error(spec: LindbladSpec, g: float, t: float) -> float:
    """Spectral-norm distance || (e^{t(gK + D)} - e^{gt PKP}) P ||.

    K is the coherent generator of the spec's Hamiltonian, D the
    dissipative part alone, and P its steady-state superprojector. The
    bound regime of interest is g*t = O(1) with g * tau_R small.
    """
    diss = spec.dissipative_part()
    p = steady_superprojector(diss).matrix   # rejects a non-attractive D
    if round(np.trace(p).real) == p.shape[0]:   # rank of P = kernel dimension of D
        raise ValueError("dissipative part vanishes: nothing relaxes")
    d_mat = dissipator_matrix(diss).matrix
    k_mat = hamiltonian_superop(spec.hamiltonian.matrix)
    lhs = expm(t * (g * k_mat + d_mat))
    pkp = p @ k_mat @ p
    rhs = expm(g * t * pkp)
    return float(np.linalg.norm((lhs - rhs) @ p, 2))
