"""Exact linear algebra over a prime field, for Lie-algebra dimensions.

A float is an exact dyadic rational m 2^k with an integer |m| < 2^53, so
every registered model is exact input. Reduced modulo a prime p = 1 (mod 4),
in which a square root i of -1 stands for the imaginary unit, a complex
entry a + ib becomes a + i b exactly, and so does every product,
commutator and linear combination built from it.

Elements of F_p are held as float64 integers of magnitude at most p/2 + 1.
The fixed primes are below 2^20, so a dot product of up to 2^15 such
terms stays below 2^53, and one float64 GEMM is exact in any summation
order; longer dot products are split (``Field.mm``). A result is reduced by
x - rint(x / p) p, which is exact below 2^53 and some 100 times faster than
``np.fmod``.

Conjugation is not a map of F_p into itself. Where a conjugate is needed,
as for V^dag in a compression or L^dag in the dissipator, it is mapped from
the conjugated float input, or computed again in the conjugate embedding
(``Field.conjugate``), which sends i to -i.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "PRIMES",
    "Field",
    "field",
    "Echelon",
    "closure_dimension",
    "null_space",
    "compress",
    "superproject",
]

PRIMES = (1048573, 1048549)  # the two largest primes below 2^20 that are 1 mod 4

_KMIN = -1126  # a finite float is m 2^k with an integer |m| < 2^53 and -1126 <= k <= 971


@functools.cache
def _powers_of_two(p: int) -> np.ndarray:
    """2^k mod p for k = -1126 .. 971, indexed by k + 1126."""
    return _mod(np.array([pow(2, k, p) for k in range(_KMIN, 972)], dtype=float), p)


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """The residue of x mod p of magnitude at most p/2 + 1, for |x| < 2^53:
    rint(x / p) is off by at most one, and only next to a half-integer."""
    q = np.multiply(x, 1.0 / p, out=np.empty(np.shape(x)))
    np.rint(q, out=q)
    q *= p
    return np.subtract(x, q, out=q)


@dataclass(frozen=True)
class Field:
    """F_p with the complex unit mapped to ``i``, a square root of -1 mod p."""

    p: int
    i: int

    @property
    def conjugate(self) -> "Field":
        return Field(self.p, -self.i)

    def map(self, x) -> np.ndarray:
        """The exact image of a float or complex array."""
        x = np.asarray(x)
        if not np.all(np.isfinite(x)):
            raise ValueError("only finite numbers have an exact image in F_p")
        if np.iscomplexobj(x):
            re, im = self._real(np.stack([x.real, x.imag]))
            return _mod(re + self.i * im, self.p)
        return self._real(x.astype(float))

    def _real(self, x: np.ndarray) -> np.ndarray:
        mantissa, exponent = np.frexp(x)
        m = _mod(mantissa * 2.0**53, self.p)
        return _mod(m * _powers_of_two(self.p)[exponent - 53 - _KMIN], self.p)

    def scalar(self, re: Fraction, im: Fraction = Fraction(0)) -> int:
        """The image of the Gaussian rational re + i im; raises if a
        denominator vanishes mod p."""
        p = self.p
        if re.denominator % p == 0 or im.denominator % p == 0:
            raise ValueError(f"a denominator of {re} + {im}i vanishes mod {p}")
        value = (re.numerator * pow(re.denominator, -1, p)
                 + self.i * im.numerator * pow(im.denominator, -1, p)) % p
        return value - p if 2 * value > p else value

    def inverse(self, a: float) -> int:
        return pow(int(a), -1, self.p)

    def mm(self, a: np.ndarray, b: np.ndarray, into=0.0) -> np.ndarray:
        """(into + a @ b) mod p for entries of magnitude at most p/2 + 1: one
        GEMM and one reduction per 2^15 terms of each dot product, so that
        the sum of (p/2 + 1)^2 terms and ``into`` stays below 2^53."""
        chunk = 2**53 // (self.p // 2 + 2) ** 2 - 1
        for s in range(0, max(a.shape[-1], 1), chunk):
            into = _mod(into + a[..., s : s + chunk] @ b[..., s : s + chunk, :], self.p)
        return into


@functools.cache
def field(p: int) -> Field:
    """F_p for a prime p = 1 (mod 4), with i = g^((p-1)/4) for the least
    quadratic non-residue g."""
    if p % 4 != 1:
        raise ValueError(f"-1 has no square root mod {p}")
    g = next(g for g in range(2, p) if pow(g, (p - 1) // 2, p) == p - 1)
    return Field(p, pow(g, (p - 1) // 4, p))


class Echelon:
    """Rows in reduced row-echelon form mod p: ``rows[:, pivots]`` is the
    identity, so a block c reduces against them as c - c[:, pivots] rows."""

    def __init__(self, f: Field, width: int):
        self.f = f
        self.rows = np.zeros((0, width))
        self.pivots = np.zeros(0, dtype=np.intp)

    def reduce(self, c: np.ndarray) -> np.ndarray:
        """The block c (k, width) less its components along the rows: one GEMM."""
        return _reduce(c, self.rows, self.pivots, self.f)

    def add(self, c: np.ndarray) -> np.ndarray:
        """Reduce the block c, eliminate its survivors among themselves, and
        append them; returns the new rows, which span a complement of the
        old span in the new one."""
        new, pivots = _eliminate(self.reduce(c), self.f)
        self.rows = np.vstack([_reduce(self.rows, new, pivots, self.f), new])
        self.pivots = np.concatenate([self.pivots, pivots])
        return new


def _reduce(c: np.ndarray, rows: np.ndarray, pivots: np.ndarray, f: Field) -> np.ndarray:
    if not pivots.size or not c.size:
        return c
    return f.mm(-c[:, pivots], rows, c)


def _eliminate(c: np.ndarray, f: Field) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon rows of the block c and their pivot columns, by
    halves: the second half is reduced against the first half's rows with
    one GEMM and eliminated, then cleared from the first half's rows with
    another, so the work is GEMMs on the whole block."""
    c = c[c.any(axis=1)]
    if c.shape[0] <= 1:
        if not c.shape[0]:
            return c, np.zeros(0, dtype=np.intp)
        j = int(np.flatnonzero(c[0])[0])
        return _mod(c * f.inverse(c[0, j]), f.p), np.array([j], dtype=np.intp)
    half = c.shape[0] // 2
    first, p1 = _eliminate(c[:half], f)
    second, p2 = _eliminate(_reduce(c[half:], first, p1, f), f)
    first = _reduce(first, second, p2, f)
    return np.vstack([first, second]), np.concatenate([p1, p2])


def closure_dimension(generators, f: Field) -> int:
    """Dimension over F_p of the Lie algebra generated by (d, d) matrices.

    The algebra is spanned by the generators S and their right-normed
    brackets [s_1, [s_2, ... s_k]], so each round commutes only S with the
    directions that the previous round added (about 2 dim products in all)
    and adds the survivors as a block. It stops when a round adds nothing
    or the span reaches d^2, or d^2 - 1 when every trace is 0 mod p.
    """
    s = np.stack(list(generators))
    g, d, _ = s.shape
    traceless = not _mod(np.trace(s, axis1=1, axis2=2), f.p).any()
    bound = d * d - traceless
    basis = Echelon(f, d * d)
    new = basis.add(s.reshape(g, d * d))
    stacked = s.reshape(g * d, d)  # the generators one above the other
    side = s.transpose(1, 0, 2).reshape(d, g * d)  # the generators side by side
    while new.shape[0] and basis.pivots.size < bound:
        m = new.shape[0]
        x = new.reshape(m, d, d)
        # one reduction of s x - x s: 2 d (p/2 + 1)^2 < 2^53 for d < 2^14
        sx = (stacked @ x.transpose(1, 0, 2).reshape(d, m * d)).reshape(g, d, m, d)
        xs = (x.reshape(m * d, d) @ side).reshape(m, d, g, d)
        comm = (sx.transpose(0, 2, 1, 3) - xs.transpose(2, 0, 1, 3)).reshape(g * m, d * d)
        new = basis.add(_mod(comm, f.p))
    return int(basis.pivots.size)


def null_space(a: np.ndarray, f: Field) -> np.ndarray:
    """Columns spanning {v : a v = 0} over F_p."""
    n = a.shape[1]
    e = Echelon(f, n)
    e.add(_mod(a, f.p))
    free = np.setdiff1d(np.arange(n), e.pivots)
    v = np.zeros((n, free.size))
    v[free, np.arange(free.size)] = 1.0
    v[e.pivots] = -e.rows[:, free]
    return v


def _inverse(a: np.ndarray, f: Field) -> np.ndarray:
    k = a.shape[0]
    e = Echelon(f, 2 * k)
    e.add(np.hstack([a, np.eye(k)]))
    if e.pivots.size != k or e.pivots.max(initial=-1) >= k:
        raise ValueError(f"a {k}x{k} Gram matrix is singular mod {f.p}")
    return e.rows[np.argsort(e.pivots), k:]


def compress(h: np.ndarray, v: np.ndarray, w: np.ndarray, f: Field) -> np.ndarray:
    """(V^dag V)^-1 V^dag H V for the image v of V and the image w of V in
    the conjugate embedding, so that w^T is the image of V^dag. The left
    inverse depends on span(w) only, so w may be any basis of it."""
    gram = f.mm(w.T, v)
    return f.mm(_inverse(gram, f), f.mm(w.T, f.mm(h, v)))


def _krylov(hs, jumps, f: Field):
    """C's Krylov run mod p (``superproject``) on the image of hs[j], as a
    function of j: the vectors up to their first dependency, rows (k, d^2),
    and its coefficients a_0 .. a_k = 1, which an identity block records."""
    hs, ls = f.map(hs), f.map(np.stack([l for _, l in jumps]))
    lds = f.map(np.stack([l.conj().T for _, l in jumps]))
    rates = np.array([f.scalar(Fraction(r)) for r, _ in jumps], dtype=float)
    if not rates.all():
        raise ValueError(f"a rate vanishes mod {f.p}: P(H) has no exact image there")

    def ad(a, x):  # one reduction: 2 d (p/2 + 1)^2 < 2^53 for d < 2^14
        return _mod(a @ x - x @ a, f.p)

    def run(j: int) -> tuple[np.ndarray, np.ndarray]:
        n = hs[j].size
        krylov = Echelon(f, 2 * n + 1)
        vectors, x = [], hs[j]
        while True:
            k = len(vectors)
            row = np.zeros((1, 2 * n + 1))
            row[0, :n], row[0, n + k] = x.reshape(n), 1.0
            reduced = krylov.reduce(row)
            if not reduced[0, :n].any():
                return np.reshape(vectors, (k, n)), reduced[0, n : n + k + 1]
            krylov.add(reduced)
            vectors.append(x.reshape(n))
            x = _mod(np.tensordot(rates, ad(lds, ad(ls, x)) + ad(ls, ad(lds, x)), axes=1), f.p)

    return run


def _wang(u: int, m: int) -> Fraction | None:
    """The rational r/t with |r|, |t| <= sqrt(m/2) and r = u t (mod m), which
    is unique, or None (P. S. Wang, SYMSAC '81, 212 (1981))."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, u % m, 0, 1
    while r1 > bound:
        r0, r1, t0, t1 = r1, r0 % r1, t1, t0 - r0 // r1 * t1
    return Fraction(r1, t1) if abs(t1) <= bound and math.gcd(r1, t1) == 1 else None


def _exponent(x: np.ndarray) -> int:
    """The least k >= 0 for which x 2^k has Gaussian-integer entries."""
    parts = np.unique(np.stack([np.real(x), np.imag(x)])).tolist()
    return max(v.as_integer_ratio()[1].bit_length() - 1 for v in parts)


def _primes():
    """``PRIMES``, then the other primes = 1 (mod 4) below 2^20, largest first."""
    yield from PRIMES
    for p in range(2**20 - 3, 5, -4):
        if p not in PRIMES and all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p


# nu takes about as many bits as the inputs' exact rationals multiply up to:
# rates near 2^52 take 12 primes, a random float jump thousands of bits. Each
# prime is another Krylov run, so no proof is sought past some 640 bits.
_MAX_PRIMES = 32


def superproject(hs, jumps) -> tuple[dict[int, list[np.ndarray]], list[list[Fraction]]]:
    """P(H) = nu(C) H / nu(0) under a unital dissipator for each exactly
    Hermitian float H in ``hs``, t nu(t) the minimal polynomial of H under
    C = sum_j gamma_j ([Lj^dag, [Lj, .]] + [Lj, [Lj^dag, .]]): nu(C) H is the
    component in ker C, the commutant of {Lj, Lj^dag} (Frigerio 1978). Returns
    the images mod ``PRIMES`` and each minimal polynomial over Q, a_0 .. a_k
    = 1, proven; ``jumps`` are (gamma_j, Lj), the rates exact rationals.

    The proof. A prime only shortens a Krylov space, so the lengths must
    agree. C is self-adjoint, so the a_i are rational: CRT joins them and
    ``_wang`` reads them back as n_i / n. With integer maps H_Z = 2^e H and
    C_Z = s C, T = sum_i n_i s^(k-i) C_Z^i H_Z vanishes mod each prime and,
    being Hermitian, in the conjugate embedding too, so each prime divides
    both parts of its entries. Those are at most B = s^k 2^e max|H| sum_i
    |n_i| c^i, c = sum_j 2 gamma_j (rowsum Lj + colsum Lj)^2, as ||[A, X]||_max
    <= (rowsum A + colsum A) ||X||_max; B below half the primes' product, a
    bit spared for rounding, gives T = 0. Further primes run until it does.
    Raises when a rate or nu(0) vanishes mod ``PRIMES``, when Krylov lengths
    differ, and past ``_MAX_PRIMES`` primes.
    """
    rates, ls = [Fraction(r) for r, _ in jumps], np.stack([l for _, l in jumps])
    log_s = 2 * _exponent(ls) + math.log2(math.lcm(*(r.denominator for r in rates)))
    sums = np.abs(ls).sum(1).max(1) + np.abs(ls).sum(2).max(1)  # colsum Lj + rowsum Lj
    c = sum(2 * r * Fraction(x) ** 2 for r, x in zip(rates, sums.tolist()))
    log_c = math.log2(c.numerator or 1) - math.log2(c.denominator)  # c, max|H| = 0: T = 0
    krylov_at = functools.cache(lambda p: _krylov(hs, jumps, field(p)))  # mapped once per prime
    images, minimal = {p: [] for p in PRIMES}, []
    for k, h in enumerate(hs):
        log_h = _exponent(h) + math.log2(np.abs(h).max() or 1)
        krylov = {}
        for p in _primes():
            if len(krylov) == _MAX_PRIMES:
                raise ValueError(f"P(H) of control {k} is not proven by {_MAX_PRIMES} primes")
            krylov[p] = krylov_at(p)(k)
            lengths = [len(a) - 1 for _, a in krylov.values()]
            if len(set(lengths)) > 1:
                raise ValueError(
                    f"the Krylov lengths of control {k} under the dissipator differ between "
                    "primes: " + ", ".join(f"{n} mod {q}" for q, n in zip(krylov, lengths))
                )
            if len(krylov) < len(PRIMES):
                continue
            m = math.prod(krylov)
            crt = [m // q * pow(m // q, -1, q) for q in krylov]
            residues = zip(*(a.astype(int).tolist() for _, a in krylov.values()))
            if None in (mu := [_wang(sum(x * y for x, y in zip(xs, crt)), m) for xs in residues]):
                continue
            n = math.lcm(*(x.denominator for x in mu))
            log_b = lengths[0] * log_s + log_h + math.log2(len(mu)) + max(
                math.log2(abs(x.numerator) * n // x.denominator) + i * log_c
                for i, x in enumerate(mu)
                if x
            )
            if log_b < math.log2(m) - 2:
                break
        minimal.append(mu)
        for p in PRIMES:
            vectors, a = krylov[p]
            if not (mu[0] or a[1]):
                raise ValueError(f"nu(0) vanishes mod {p}: P(H) has no exact image there")
            # mu(0) != 0: 0 is no root, H has no kernel component and P(H) = 0
            nu = np.zeros(len(vectors)) if mu[0] else _mod(a[1:] * field(p).inverse(a[1]), p)
            images[p].append(field(p).mm(nu[None], vectors)[0].reshape(h.shape))
    return images, minimal
