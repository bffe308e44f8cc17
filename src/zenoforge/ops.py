"""Dense complex operators: every operator is a complex (d, d) ndarray.

Basis convention: on every qubit factor, ``|0>`` is the ``sigma_z``
eigenvector with eigenvalue -1 and ``|1>`` the one with eigenvalue +1,
so ``sigma_z = diag(-1, +1)`` in index order (0, 1). The usual Pauli
algebra ``[s_a, s_b] = 2i eps_abc s_c`` is preserved by pairing it with
``sigma_y = [[0, i], [-i, 0]]``. Composite indices are row-major: the
leftmost factor is the slowest-varying index.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pauli_on",
    "lowering_on",
    "hermitian",
    "expm",
    "PAULI",
]

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
    "z": np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex),
}


def hermitian(a, name: str) -> np.ndarray:
    """The exact Hermitian part A/2 + A^dag/2 of a square array A. The one
    Hermiticity rule of the package: max|A - A^dag| must be at most
    1e-10 max(1, max|A|), or ValueError names ``name``; NaN fails. Halving
    before adding keeps entries near the largest float finite."""
    mat = np.asarray(a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        skew = np.max(np.abs(mat - mat.conj().T), initial=0.0)
        scale = np.max(np.abs(mat), initial=0.0)
    if not skew <= 1e-10 * max(1.0, scale):
        raise ValueError(f"{name} is not Hermitian within 1e-10 of its largest entry")
    return mat / 2 + mat.conj().T / 2


def pauli_on(n: int, site: int, axis: str) -> np.ndarray:
    """Pauli operator on qubit ``site`` of ``n`` qubits, identity elsewhere.

    The basis convention above makes ``pauli_on(n, i, 'z')`` carry -1 on
    ``|0>`` components; tests of projected Hamiltonians depend on it.
    """
    if axis not in PAULI:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    if n < 1:
        raise ValueError("need at least one qubit")
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for {n} qubits")
    return np.kron(np.kron(np.eye(2**site), PAULI[axis]), np.eye(2 ** (n - site - 1)))


def lowering_on(n: int, site: int) -> np.ndarray:
    """(sigma_x - i sigma_y)/2 on qubit ``site`` of ``n``: maps |1> to |0>."""
    return 0.5 * (pauli_on(n, site, "x") - 1j * pauli_on(n, site, "y"))


def expm(a) -> np.ndarray:
    """Matrix exponential of a square array."""
    mat = np.asarray(a)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    import scipy.linalg

    return scipy.linalg.expm(mat)
