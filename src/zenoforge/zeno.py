"""Projected Hamiltonians, Zeno product limits, and strong-damping errors.

In the strong-damping limit the dissipative semigroup acts like a
projective measurement: dynamics is confined to the DFS blocks and
generated there by the compressed Hamiltonians P_i H P_i. The coherent
part is vectorized with the same row convention as `lindblad`.
"""

from __future__ import annotations

import numpy as np

from .lindblad import (
    DFSDecomposition,
    LindbladSpec,
    Superoperator,
    dissipator_matrix,
    hamiltonian_superop,
    steady_superprojector,
    unvec,
    vec,
)
from .ops import HilbertSpace, Operator, expm

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
    if not h.is_hermitian(1e-10):
        raise ValueError("hamiltonian is not Hermitian")
    if not 0 <= block < len(dfs.blocks):
        raise ValueError(f"block {block} out of range ({len(dfs.blocks)} blocks)")
    basis = dfs.blocks[block].basis
    compressed = basis.conj().T @ h.matrix @ basis
    return Operator(HilbertSpace((basis.shape[1],)), compressed)


def superproject_hamiltonian(
    h: Operator, projector: Superoperator, tol: float = 1e-10
) -> Operator:
    """Apply a steady-state superprojector to an operator.

    Only meaningful for unital dissipators, where P(H) generates the
    projected coherent dynamics over the whole steady-state manifold;
    unitality is checked through P(1) = 1.
    """
    if not projector.is_unital(tol):
        raise ValueError("superprojector does not fix the identity: dissipator not unital")
    out = unvec(projector.matrix @ vec(h.matrix), projector.space.dim)
    defect = np.max(np.abs(out - out.conj().T))
    if defect > 1e-8:
        raise ValueError(f"projected operator is not Hermitian (defect {defect:.2e})")
    return Operator(h.space, (out + out.conj().T) / 2)


def zeno_product(
    projector: Superoperator, generator: Superoperator, t: float, n: int
) -> Superoperator:
    """(P exp(K t/n) P)^n, the frequent-switching product at finite n."""
    if n < 1:
        raise ValueError("need at least one step")
    if t < 0:
        raise ValueError("time must be non-negative")
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
