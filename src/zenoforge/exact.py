"""Exact linear algebra over a prime field, for Lie-algebra dimensions.

A float is an exact dyadic rational m 2^k with an integer |m| < 2^53, so
every registered model is exact input. Reduced modulo a prime p = 1 (mod 4),
in which a square root i of -1 stands for the imaginary unit, a complex
entry a + ib becomes a + i b exactly, and so does every product,
commutator and linear combination built from it.

Elements of F_p are held as float64 integers of magnitude at most p/2 + 1.
A dot product of ``_terms(p)`` such terms, plus one more entry, stays
below 2^53 (2^15 - 1 terms at the fixed primes, which are below 2^20; 7
near 2^26), so one float64 GEMM is exact in any summation order; every
product goes through ``_submul``, c -= a @ b in place, which splits longer
dot products and reduces c after each part. A result is reduced by x -
rint(x / p) p, which is exact below 2^53 and some 100 times faster than
``np.fmod``.

Row reduction is one engine, ``Echelon``: it keeps only the non-pivot
columns of its rows and updates them in place. ``closure_dimension``,
``null_space``, ``compress``'s Gram inverse and ``superproject``'s Krylov
runs all use it.

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


def _mod(x: np.ndarray, p: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """The residue of x mod p of magnitude at most p/2 + 1, for |x| < 2^53:
    rint(x / p) is off by at most one, and only next to a half-integer. In
    place in x through ``scratch``, an array of x's shape, when it is given."""
    q = np.multiply(x, 1.0 / p, out=np.empty(np.shape(x)) if scratch is None else scratch)
    np.rint(q, out=q)
    q *= p
    return np.subtract(x, q, out=q if scratch is None else x)


@functools.cache
def _terms(p: int) -> int:
    """How many products of entries of magnitude at most p/2 + 1 a dot
    product may sum, on top of one such entry, and stay below 2^53."""
    return 2**53 // (p // 2 + 2) ** 2 - 1


def _submul(c: np.ndarray, a: np.ndarray, b: np.ndarray, p: int) -> None:
    """c -= a @ b (mod p) in place, for entries of magnitude at most p/2 + 1.

    Each GEMM sums at most ``_terms(p)`` products of each dot product, so
    every sum, c's entry included, stays below 2^53 and is exact in any
    summation order; c is reduced after each GEMM through the GEMM's own
    output, the one temporary. c goes in blocks of max(k, ``_terms(p)`` /
    width) rows, k the terms of a dot product, so that output is never
    larger than b or ``_terms(p)`` entries. a and b must not share memory
    with c."""
    terms, inner = _terms(p), a.shape[-1]
    rows = max(inner, terms // max(c.shape[-1], 1), 1)
    for i in range(0, c.shape[-2], rows):
        block, left = c[..., i : i + rows, :], a[..., i : i + rows, :]
        for s in range(0, inner, terms):
            t = np.matmul(left[..., s : s + terms], b[..., s : s + terms, :])
            block -= t
            _mod(block, p, t)


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

    def mm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(a @ b) mod p for entries of magnitude at most p/2 + 1."""
        c = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1]))
        _submul(c, -a, b, self.p)
        return c


@functools.cache
def field(p: int) -> Field:
    """F_p for a prime p = 1 (mod 4), with i = g^((p-1)/4) for the least
    quadratic non-residue g."""
    if p % 4 != 1:
        raise ValueError(f"-1 has no square root mod {p}")
    g = next(g for g in range(2, p) if pow(g, (p - 1) // 2, p) == p - 1)
    return Field(p, pow(g, (p - 1) // 4, p))


class Echelon:
    """Rows in reduced row-echelon form mod p, stored as their non-pivot
    columns.

    Row i has a 1 at column ``pivots[i]`` and a 0 at every other pivot,
    which is implicit: only its entries at the columns ``free`` are kept,
    as row i of ``rest`` (r, width - r), the leading block of one buffer
    whose rows grow by doubling. A block c reduces against the rows as
    c[:, free] - c[:, pivots] rest, one GEMM over the non-pivot columns.
    ``add`` clears the new pivot columns from the old rows with one more
    GEMM, in place, and fills the holes they leave with the last free
    columns, so a round touches r (width - r) entries, not r width.

    A new row's pivot is its last nonzero column in the order of ``free``
    once it is reduced, and only the last free columns move. So the first columns of c, if no
    pivot falls there, keep their places at the start of ``free``, and a
    row's pivot lies past them unless the row vanishes past them:
    ``_inverse`` and ``_krylov`` record their row operations there.
    """

    def __init__(self, f: Field, width: int):
        self.f = f
        self.pivots = np.zeros(0, dtype=np.intp)
        self.free = np.arange(width)
        self._buffer = np.empty((0, width))

    @property
    def rest(self) -> np.ndarray:
        return self._buffer[: self.pivots.size, : self.free.size]

    @property
    def rows(self) -> np.ndarray:
        """The rows in full width, (r, width)."""
        r = self.pivots.size
        rows = np.zeros((r, r + self.free.size))
        rows[:, self.free] = self.rest
        rows[np.arange(r), self.pivots] = 1.0
        return rows

    def add(self, c: np.ndarray) -> np.ndarray:
        """Reduce the block c (m, width) against the rows, eliminate its
        survivors among themselves, and append them; returns the new rows
        in full width, which span a complement of the old span in the new
        one."""
        rest, free = self.rest, self.free
        x = np.take(c, free, axis=1)
        if rest.size:
            _submul(x, np.take(c, self.pivots, axis=1), rest, self.f.p)
        k, cols = _eliminate(x, self.f.p)
        new = x[:k]
        out = np.zeros((k, c.shape[1]))
        out[:, free] = new
        if not k:
            return out
        if rest.size:
            _submul(rest, np.take(rest, cols, axis=1), new, self.f.p)
        r, left = rest.shape[0], free.size - k
        holes = cols[cols < left]
        self.pivots = np.concatenate([self.pivots, free[cols]])
        if holes.size:  # the new pivot columns go, the last free ones move in
            taken = set(cols.tolist())
            tail = np.array([q for q in range(left, free.size) if q not in taken], dtype=np.intp)
            for a in (free, rest.T, new.T):
                a[holes] = a[tail]
        if r + k > self._buffer.shape[0]:  # a rank is at most the width
            grown = np.empty((min(2 * (r + k), r + free.size), left))
            grown[:r] = rest[:, :left]
            self._buffer = grown
        self._buffer[r : r + k, :left] = new[:, :left]
        self.free = free[:left]
        return out


def _eliminate(x: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """Row-reduce the block x (m, w) in place: returns the rank k and the
    pivot columns, x[:k] holding the reduced rows. Zero rows are dropped
    first. A block of at most ``_terms(p)`` entries, or a single row, is a
    leaf (``_gauss_jordan``); a larger one goes by halves: the second half
    is reduced against the first half's rows with one GEMM and eliminated,
    then cleared from the first half's rows with another. With wide rows
    the leaves are single rows, so no per-pivot work spans a block."""
    if x.shape[0] > 1:
        live = np.flatnonzero(x.any(axis=1))
        if live.size < x.shape[0]:  # moved up in leaf-sized blocks; row live[j] >= j is read first
            step = max(_terms(p) // max(x.shape[1], 1), 1)
            for i in range(0, live.size, step):
                x[i : i + live[i : i + step].size] = x[live[i : i + step]]
            x = x[: live.size]
    m, w = x.shape
    if m * w <= _terms(p) or m <= 1:
        return _gauss_jordan(x, p)
    half = m // 2
    k1, p1 = _eliminate(x[:half], p)
    second = x[half:]
    if k1:
        _submul(second, np.take(second, p1, axis=1), x[:k1], p)
    k2, p2 = _eliminate(second, p)
    if k2:
        if k1:
            _submul(x[:k1], np.take(x[:k1], p2, axis=1), second[:k2], p)
        x[k1 : k1 + k2] = second[:k2]
    return k1 + k2, np.concatenate([p1, p2])


def _gauss_jordan(x: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """``_eliminate``'s leaf, O(1) numpy calls per row: a row that is
    nonzero mod p when reached is normalised and cleared from the others
    by one rank-1 update of at most (p/2 + 1)^2 per entry. A leaf of more
    than one row has at most ``_terms(p)`` entries, so fewer pivots than
    that: x is reduced once, at the end. Rows come in reduced."""
    m, rows, cols, inverse = x.shape[0], [], [], 1.0 / p
    for i in range(m):
        row = x[i] - np.rint(x[i] * inverse) * p if rows else x[i]
        nonzero = row.nonzero()[0]
        if not nonzero.size:
            continue
        q = int(nonzero[-1])  # the last, so that add seldom moves a column
        row *= pow(int(row[q]), -1, p)
        row -= np.rint(row * inverse) * p
        if m > 1:
            column = x[:, q] - np.rint(x[:, q] * inverse) * p
            column[i] = 0.0
            x -= np.multiply.outer(column, row)
        x[i] = row
        rows.append(i)
        cols.append(q)
    if m > 1:
        x[: len(rows)] = _mod(x[rows], p)
    return len(rows), np.array(cols, dtype=np.intp)


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
    while new.shape[0] and basis.pivots.size < bound:
        new = basis.add(_commutators(s, new.reshape(-1, d, d), f.p))
    return int(basis.pivots.size)


def _commutators(s: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """[s_j, x_i] mod p for every generator s_j and direction x_i, as rows
    (j, i) of width d^2; one reduction each: 2 d (p/2 + 1)^2 < 2^53 for
    d < 2^14 at the primes below 2^20."""
    g, (m, d, _) = s.shape[0], x.shape
    out = np.empty((g, m, d, d))
    for j in range(g):
        sx = np.matmul(s[j], x)
        np.subtract(sx, (x.reshape(m * d, d) @ s[j]).reshape(m, d, d), out=out[j])
        _mod(out[j], p, sx)
    return out.reshape(g * m, d * d)


def null_space(a: np.ndarray, f: Field) -> np.ndarray:
    """Columns spanning {v : a v = 0} over F_p."""
    e = Echelon(f, a.shape[1])
    e.add(_mod(a, f.p))
    v = np.zeros((a.shape[1], e.free.size))
    v[e.free, np.arange(e.free.size)] = 1.0
    v[e.pivots] = -e.rest
    return v


def _inverse(a: np.ndarray, f: Field) -> np.ndarray:
    k = a.shape[0]
    e = Echelon(f, 2 * k)
    e.add(np.hstack([np.eye(k), a]))  # pivots in the a block while it is nonzero
    if e.pivots.size != k or e.pivots.min(initial=k) < k:
        raise ValueError(f"a {k}x{k} Gram matrix is singular mod {f.p}")
    return e.rows[np.argsort(e.pivots), :k]


def compress(h: np.ndarray, v: np.ndarray, w: np.ndarray, f: Field) -> np.ndarray:
    """(V^dag V)^-1 V^dag H V for the image v of V and the image w of V in
    the conjugate embedding, so that w^T is the image of V^dag. The left
    inverse depends on span(w) only, so w may be any basis of it."""
    gram = f.mm(w.T, v)
    return f.mm(_inverse(gram, f), f.mm(w.T, f.mm(h, v)))


def _krylov(hs, jumps, f: Field):
    """C's Krylov run mod p (``superproject``) on the image of hs[j], as a
    function of j: the vectors up to their first dependency, rows (k, d^2),
    and its coefficients a_0 .. a_k = 1, which an identity block before the
    vectors records."""
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
            row[0, k], row[0, n + 1 :] = 1.0, x.reshape(n)
            (new,) = krylov.add(row)  # the reduced row, scaled: its pivot is in x while x is nonzero
            if not new[n + 1 :].any():
                a = new[: k + 1]
                return np.reshape(vectors, (k, n)), _mod(a * f.inverse(a[k]), f.p)
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
