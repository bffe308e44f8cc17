"""Zeno product limits and strong-damping errors.

In the strong-damping limit the dissipative semigroup acts like a
projective measurement: dynamics is confined to the DFS blocks and
generated there by the compressed Hamiltonians P_i H P_i, or, for a unital
dissipator, on the commutant of {Lj, Lj^dag} by P(H) (``exact.superproject``);
``lie.dfs_lie_dimension`` closes both exactly.
The coherent part is vectorized with the same row convention as `lindblad`.
"""

from __future__ import annotations

import numpy as np

from .lindblad import (
    LindbladSpec,
    Superoperator,
    dissipator_matrix,
    hamiltonian_superop,
    steady_superprojector,
)
from .ops import Operator, expm

__all__ = [
    "coherent_generator",
    "zeno_product",
    "strong_damping_error",
]


def coherent_generator(h: Operator) -> Superoperator:
    """Superoperator of rho -> -i[h, rho]."""
    return Superoperator(h.space, hamiltonian_superop(h.matrix))


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
