"""Dense complex operators on labeled tensor-product Hilbert spaces.

Basis convention: on every qubit factor, ``|0>`` is the ``sigma_z``
eigenvector with eigenvalue -1 and ``|1>`` the one with eigenvalue +1,
so ``sigma_z = diag(-1, +1)`` in index order (0, 1). The usual Pauli
algebra ``[s_a, s_b] = 2i eps_abc s_c`` is preserved by pairing it with
``sigma_y = [[0, i], [-i, 0]]``. Composite indices are row-major: the
leftmost factor is the slowest-varying index.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

__all__ = [
    "HilbertSpace",
    "Operator",
    "qubits",
    "zero",
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


def _frozen(matrix: np.ndarray) -> np.ndarray:
    out = np.array(matrix, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HilbertSpace:
    """Finite-dimensional space factored into local dimensions."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims:
            raise ValueError("a Hilbert space needs at least one factor")
        if any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be positive, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return prod(self.factor_dims)

    @property
    def n_factors(self) -> int:
        return len(self.factor_dims)

    def site_matrix(self, site: int, local: np.ndarray) -> np.ndarray:
        """Embed a local matrix at ``site``, identity elsewhere."""
        if not 0 <= site < self.n_factors:
            raise ValueError(f"site {site} out of range for {self.n_factors} factors")
        local = np.asarray(local, dtype=complex)
        if local.shape != (self.factor_dims[site],) * 2:
            raise ValueError(
                f"local matrix shape {local.shape} does not match factor "
                f"dimension {self.factor_dims[site]} at site {site}"
            )
        left = prod(self.factor_dims[:site])
        right = prod(self.factor_dims[site + 1 :])
        return np.kron(np.kron(np.eye(left), local), np.eye(right))


def qubits(n: int) -> HilbertSpace:
    if n < 1:
        raise ValueError("need at least one qubit")
    return HilbertSpace((2,) * n)


@dataclass(frozen=True)
class Operator:
    """A dense complex square matrix living on a HilbertSpace."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {d}")
        object.__setattr__(self, "matrix", _frozen(mat))

    def __add__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix - other.matrix)

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.matrix)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.space, scalar * self.matrix)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix @ other.matrix)

    def _check_space(self, other: "Operator"):
        if other.space.dim != self.space.dim:
            raise ValueError(
                f"dimension mismatch: {self.space.dim} vs {other.space.dim}"
            )


def hermitian(a, name: str) -> np.ndarray:
    """The exact Hermitian part A/2 + A^dag/2 of an Operator or a square
    array A. The one Hermiticity rule of the package: max|A - A^dag| must be
    at most 1e-10 max(1, max|A|), or ValueError names ``name``; NaN fails.
    Halving before adding keeps entries near the largest float finite."""
    mat = np.asarray(a.matrix if isinstance(a, Operator) else a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        skew = np.max(np.abs(mat - mat.conj().T), initial=0.0)
        scale = np.max(np.abs(mat), initial=0.0)
    if not skew <= 1e-10 * max(1.0, scale):
        raise ValueError(f"{name} is not Hermitian within 1e-10 of its largest entry")
    return mat / 2 + mat.conj().T / 2


def zero(space: HilbertSpace) -> Operator:
    return Operator(space, np.zeros((space.dim, space.dim)))


def pauli_on(space: HilbertSpace, site: int, axis: str) -> Operator:
    """Pauli operator acting on one qubit factor of ``space``.

    The basis convention above makes ``pauli_on(s, i, 'z')`` carry -1 on
    ``|0>`` components; tests of projected Hamiltonians depend on it.
    """
    if axis not in PAULI:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    if not 0 <= site < space.n_factors:
        raise ValueError(f"site {site} out of range")
    if space.factor_dims[site] != 2:
        raise ValueError(f"factor {site} has dim {space.factor_dims[site]}, not a qubit")
    return Operator(space, space.site_matrix(site, PAULI[axis]))


def lowering_on(space: HilbertSpace, site: int) -> Operator:
    """(sigma_x - i sigma_y)/2 on ``site``: maps |1> to |0>."""
    return 0.5 * (pauli_on(space, site, "x") - 1j * pauli_on(space, site, "y"))


def expm(a):
    """Matrix exponential of an Operator or a plain square matrix."""
    if isinstance(a, Operator):
        return Operator(a.space, expm(a.matrix))
    mat = np.asarray(a)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    import scipy.linalg

    return scipy.linalg.expm(mat)
