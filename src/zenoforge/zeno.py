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

from .lindblad import LindbladSpec, dissipator_matrix, hamiltonian_superop, steady_superprojector
from .ops import expm

__all__ = ["zeno_product", "strong_damping_error"]


def zeno_product(projector: np.ndarray, generator: np.ndarray, t: float, n: int) -> np.ndarray:
    """(P exp(K t/n) P)^n, the frequent-switching product at finite n, for
    (d^2, d^2) arrays P and K."""
    if n < 1:
        raise ValueError("need at least one step")
    if not 0 <= t < np.inf:  # NaN fails too
        raise ValueError(f"time must be finite and non-negative, got {t}")
    step = projector @ expm(generator * (t / n)) @ projector
    return np.linalg.matrix_power(step, n)


def strong_damping_error(spec: LindbladSpec, g: float, t: float) -> float:
    """Spectral-norm distance || (e^{t(gK + D)} - e^{gt PKP}) P ||.

    K is the coherent generator of the spec's Hamiltonian, D the
    dissipative part alone, and P its steady-state superprojector. The
    bound regime of interest is g*t = O(1) with g * tau_R small.
    """
    diss = spec.dissipative_part()
    p = steady_superprojector(diss)   # rejects a non-attractive D
    if round(np.trace(p).real) == p.shape[0]:   # rank of P = kernel dimension of D
        raise ValueError("dissipative part vanishes: nothing relaxes")
    d_mat = dissipator_matrix(diss)
    k_mat = hamiltonian_superop(spec.hamiltonian)
    lhs = expm(t * (g * k_mat + d_mat))
    rhs = expm(g * t * (p @ k_mat @ p))
    return float(np.linalg.norm((lhs - rhs) @ p, 2))
