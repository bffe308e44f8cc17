import numpy as np
import pytest
import scipy.linalg

from zenoforge import exact
from zenoforge.chain import two_body
from zenoforge.lindblad import conjugation_superop, steady_superprojector, unvec, vec
from zenoforge.ops import pauli_on


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


def raising_on(n: int, site: int) -> np.ndarray:
    """(sigma_x + i sigma_y)/2 on qubit ``site`` of ``n``: maps |0> to |1>."""
    return 0.5 * (pauli_on(n, site, "x") + 1j * pauli_on(n, site, "y"))


def random_cptp_superop(d: int, rng: np.random.Generator, n_kraus: int = 4) -> np.ndarray:
    """Random CPTP superoperator from a Gaussian Kraus set, completed to
    trace preservation by the inverse square root of sum K^dag K."""
    kraus = rng.standard_normal((n_kraus, d, d)) + 1j * rng.standard_normal((n_kraus, d, d))
    total = np.einsum("kij,kil->jl", kraus.conj(), kraus)
    correction = np.linalg.inv(scipy.linalg.sqrtm(total).astype(complex))
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in kraus:
        fixed = k @ correction
        out += conjugation_superop(fixed, fixed.conj().T)
    return out


def superop_from_choi(j: np.ndarray) -> np.ndarray:
    """Inverse of ``channels.choi``: the same entry permutation, an
    involution, times d."""
    d = round(j.shape[0] ** 0.5)
    return j.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d) * d


def system_swap(d1: int, d2: int) -> np.ndarray:
    """Permutation taking (H1, H1', H2, H2') into (H1, H2, H1', H2').

    This is the swap appearing in J(Phi1 (x) Phi2) = S (J1 (x) J2) S^T.
    """
    total = (d1 * d2) ** 2
    source = np.arange(total).reshape(d1, d1, d2, d2)
    order = source.transpose(0, 2, 1, 3).reshape(-1)
    s = np.zeros((total, total))
    s[np.arange(total), order] = 1.0
    return s


def dense_superprojection(spec, h):
    """Oracle: the dense steady superprojector applied to vec(h)."""
    return unvec(steady_superprojector(spec) @ vec(h))


def proven_superprojection(spec, h):
    """P(H) = nu(C) H / nu(0) in floats, with the minimal polynomial t nu(t)
    of H under C that ``exact.superproject`` proves: each exact coefficient
    is rounded once, and the Krylov vectors C^i H are formed in floats."""
    jumps = [(t.rate, t.op) for t in spec.terms]
    x = np.asarray(h, dtype=complex)
    _, (mu,) = exact.superproject([x], jumps)
    out = np.zeros_like(x)
    if mu[0]:  # 0 is no root: no kernel component
        return out

    def ad(a, x):
        return a @ x - x @ a

    for a in mu[1:]:
        out = out + float(a / mu[1]) * x
        x = sum(r * (ad(l.conj().T, ad(l, x)) + ad(l, ad(l.conj().T, x))) for r, l in jumps)
    return out


# Table I reference row: dim of the Lie algebra over the DFS's by chain size.
CHAIN_DFS_LIE_DIMS = {1: 0, 2: 1, 3: 4, 4: 12, 5: 40, 6: 129, 7: 426, 8: 1426, 9: 4858}


def heisenberg_bonds(n):
    """3 P(H) for the chain's drift and control, as integer matrices:
    P(Z_i Z_i+1) = sigma_i . sigma_i+1 / 3."""
    drift = sum(two_body(i, i + 1).realize(n) for i in range(n - 1))
    return drift, two_body(0, 1).realize(n)


def gauss_jordan_mod(rows, p):
    """Reference: the reduced row-echelon rows of integer ``rows`` mod p,
    by plain Gauss-Jordan on Python integers, pivots leftmost, entries in
    [0, p)."""
    rows = [[int(v) % p for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inverse % p for v in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                factor = row[col]
                rows[i] = [(v - factor * w) % p for v, w in zip(row, rows[rank])]
        rank += 1
    return rows[:rank]


def block_dims(blocks):
    """The dimensions of ``detect_dfs``'s blocks."""
    return tuple(b.dim for b in blocks)


def label_rows(spec, block):
    """The stacked Lj - c_j and G - b, G = sum_j gamma_j Lj^dag Lj, over the
    positive-rate terms: a DFS block's span is their common null space."""
    eye = np.eye(len(spec.hamiltonian))
    active = [(t.rate, t.op) for t in spec.terms if t.rate > 0]
    g = sum((r * (l.conj().T @ l) for r, l in active), 0 * eye)
    jumps = [l - c * eye for (_, l), c in zip(active, block.lindblad_eigenvalues)]
    return np.vstack([*jumps, g - block.damping_eigenvalue * eye])


def dfs_span(spec, block, tol=1e-8):
    """An orthonormal float basis of the block's span, read from its labels."""
    _, s, vh = np.linalg.svd(label_rows(spec, block))
    basis = vh[s <= tol * max(1.0, s[0])].conj().T
    assert basis.shape[1] == block.dim
    return basis
