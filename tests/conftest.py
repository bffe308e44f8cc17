import numpy as np
import pytest

from zenoforge.ops import HilbertSpace, Operator


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_hermitian(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def integer_hermitian(d, rng, scale=3):
    """A Hermitian matrix with Gaussian-integer entries, exact in floats."""
    a = rng.integers(-scale, scale + 1, (d, d)) + 1j * rng.integers(-scale, scale + 1, (d, d))
    return (a + a.conj().T).astype(complex)


def random_unitary(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def as_op(matrix):
    return Operator(HilbertSpace((matrix.shape[0],)), matrix)
