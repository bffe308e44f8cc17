"""Dynamical Lie-algebra dimensions.

The dynamical Lie algebra is the REAL span of i*(Hamiltonians) and their
iterated commutators, a subspace of u(d). Its real dimension equals the
complex dimension of the complex Lie algebra that the Hamiltonians generate
(u(d) is a real form of gl(d, C)), and that is the dimension over Q(i)
when the inputs are Gaussian rationals, as floats are.

``dfs_lie_dimension`` takes every printed dimension from the
exact closure over F_p of ``exact``: the inputs (controls, rates, Lindblad
operators) are read as exact dyadic rationals, P(H) and the DFS
compressions are computed from them mod p, and no tolerance decides
anything. At a prime whose generators are the images of the rational
ones, the closure's dimension is a lower bound of the rational dimension,
so a first prime that reaches the structural bound (d^2, or d^2 - 1 when
every generator's trace is exactly 0) proves the dimension; otherwise the
second prime runs and the larger of the two is reported. The images are
checked where they are computed: a DFS block's null space must have the
block's dimension, and P(H) comes with a proof of its Krylov minimal
polynomial over Q (``exact.superproject``), so its images at the two
primes are those of the rational P(H).

The dimension alone decides controllability: u(d) has dimension d^2, and
a real Lie subalgebra of u(d) of dimension d^2 - 1 is su(d). su(d) is
compact and simple, so it has no subalgebra of codimension 1; the
algebra's projection onto su(d) is then onto and one to one, and its graph
over su(d) = [su(d), su(d)] has no trace part. So a dimension of at least
d^2 - 1 means the algebra contains su(d), and d^2 means it is u(d).

Table I does not come from here: ``chain.sector_lie_dimension`` closes
the chain's spin-sector blocks one by one and proves each value at the
first prime (su(d_J) per block, no linked pair, the exact trace rank).
``dfs_lie_dimension`` on the full 2^N space serves ``lie-dim`` and is
its differential oracle for N <= 6.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from . import blas, exact
from .lindblad import LindbladSpec, detect_dfs
from .ops import hermitian

__all__ = ["dfs_lie_dimension", "lie_dimension"]


def _exact_dimension(d: int, generators_at, traceless: bool = False) -> int:
    """The dimension of the Lie algebra whose generators' images in F_p are
    ``generators_at(p)``, closed by ``exact.closure_dimension``.

    When the generators are the images of rational ones, each prime gives
    a lower bound of the dimension over Q, which is at most d^2, or
    d^2 - 1 when every generator's trace is exactly 0 (``traceless``, known
    only for float inputs and P(H)). A first prime that reaches that bound
    proves the dimension; below it, the second prime runs and the larger
    dimension is reported.
    """
    proof = d * d - traceless
    dim = 0
    with blas.one_thread():  # up to d = 64 a second BLAS thread only spins here
        for p in exact.PRIMES:
            gens = [g for g in generators_at(p) if g.any()]
            if gens:
                dim = max(dim, exact.closure_dimension(gens, exact.field(p)))
            if dim == proof:
                break
    return dim


def _traceless(mats) -> bool:
    """Whether every trace is exactly 0 (fsum rounds the exact sum once)."""
    return all(
        math.fsum(np.diagonal(m).real) == 0 and math.fsum(np.diagonal(m).imag) == 0
        for m in mats
    )


def _coprime(rates) -> list[int]:
    """The rates divided by their exact greatest common divisor: coprime
    integers. Neither P(H) nor a DFS block changes with a common factor of
    the rates, so the rates' scale cannot make them vanish mod p."""
    rates = [Fraction(r) for r in rates]
    common = Fraction(
        math.gcd(*(r.numerator for r in rates)), math.lcm(*(r.denominator for r in rates))
    )
    return [int(r / common) for r in rates]


def _rational(x: float) -> Fraction:
    """The rational nearest x with a denominator of at most 2^16."""
    return Fraction(x).limit_denominator(1 << 16)


def _block_bases(dfs, jumps, d: int, f: exact.Field):
    """For each block, the images v in F_p and w in the conjugate embedding
    of a basis of its span in C^d: the null space mod p of the stacked
    Lj - c_j and G - b, G = sum_j gamma_j Lj^dag Lj, which must have the
    block's dimension. Each c_j is read as a rational from the float label,
    b = sum_j gamma_j |c_j|^2 exactly. The jumps are mapped once
    (``Field.images``): Lj^dag's image is the transpose of Lj's conjugate
    image, and G's conjugate image is G^T."""
    ls, conj = f.images(np.reshape([l for _, l in jumps], (-1, d, d)))
    rates = np.array([f.scalar(Fraction(r)) for r, _ in jumps], dtype=float)
    g = np.tensordot(rates, f.mm(conj.transpose(0, 2, 1), ls), axes=1)
    for block in dfs:
        labels = [(_rational(z.real), _rational(z.imag)) for z in block.lindblad_eigenvalues]
        b = sum(Fraction(r) * (re * re + im * im) for (r, _), (re, im) in zip(jumps, labels))
        bases = []
        for l, gram, sign in ((ls, g, 1), (conj, g.T, -1)):
            cs = np.array([f.scalar(re, sign * im) for re, im in labels]).reshape(-1, 1, 1)
            rows = np.vstack([*(l - cs * np.eye(d)), gram - f.scalar(b) * np.eye(d)])
            v = exact.null_space(rows, f)
            if v.shape[1] != block.dim:
                raise ValueError(
                    f"a DFS block of dimension {block.dim} has an exact eigenspace of dimension "
                    f"{v.shape[1]} mod {f.p} for its labels "
                    + ", ".join(f"{re} + {im}i" for re, im in labels)
                )
            bases.append(v)
        yield bases


def _staged(mats, name: str, d: int | None = None) -> np.ndarray:
    """The exact Hermitian parts (``ops.hermitian``) of ``mats``, named
    "<name> k", stacked (n, d, d); each must be d x d, d the first's size
    unless given."""
    hs = [hermitian(m, f"{name} {k}") for k, m in enumerate(mats)]
    if d is None and not hs:
        raise ValueError(f"need at least one {name}")
    d = hs[0].shape[0] if d is None else d
    for k, h in enumerate(hs):
        if h.shape != (d, d):
            raise ValueError(f"{name} {k} has shape {h.shape}, not ({d}, {d})")
    return np.reshape(hs, (-1, d, d))


def dfs_lie_dimension(spec: LindbladSpec, controls) -> tuple[int, tuple[int, ...]]:
    """Exact Lie dimensions of the projected control system over the DFS's:
    the joint dimension over the whole steady manifold, and one dimension
    per ``detect_dfs`` block, in its order.

    Every dimension comes from the closure over F_p (``_exact_dimension``),
    on exact images of the inputs, never on rounded floats. For every DFS
    block the controls are compressed with the orthogonal left inverse,
    (V^dag V)^-1 V^dag H V, where V spans the block's exact eigenspace
    (``_block_bases``); ``detect_dfs`` supplies only the block dimensions
    and labels. The joint closure takes P(H) for a unital dissipator
    (``exact.superproject``), and otherwise the block-diagonal sums of the
    compressions, so that blocks the controls link count once; a single
    block's joint dimension is its block dimension, and no block gives 0.
    The rates enter divided by their greatest common divisor (``_coprime``),
    which changes neither P(H) nor a block.

    The floats are taken for the exact rationals they are. A control that
    was rounded, such as u X u^dag for a float unitary u, is a different
    matrix from the one it approximates, and generates its own algebra,
    often the generic one. ValueError is raised by a control that is not
    d x d, by labels that read as no rational with a denominator up to 2^16,
    by a prime at which a denominator or a rate vanishes, and by a P(H)
    that ``exact.superproject`` cannot prove.
    """
    dfs = detect_dfs(spec)
    d = spec.hamiltonian.shape[0]
    hs = _staged(controls, "control", d)
    terms = [t for t in spec.terms if t.rate > 0]
    jumps = list(zip(_coprime([t.rate for t in terms]), [t.op for t in terms]))

    @functools.cache
    def blocks_at(p):
        f = exact.field(p)
        images = f.map(hs)
        return [exact.compress(images, v, w, f) for v, w in _block_bases(dfs, jumps, d, f)]

    total = sum(b.dim for b in dfs)

    def sums_at(p):  # the block-diagonal sums of the compressions, stacked
        out = np.zeros((len(hs), total, total))
        at = 0
        for block in blocks_at(p):
            k = block.shape[-1]
            out[:, at : at + k, at : at + k] = block
            at += k
        return out

    block_dims = tuple(
        _exact_dimension(block.dim, lambda p, k=k: blocks_at(p)[k])
        for k, block in enumerate(dfs)
    )
    if jumps and spec.is_unital():
        projected, _ = exact.superproject(hs, jumps)
        return _exact_dimension(d, projected.get, _traceless(hs)), block_dims  # Tr P(H) = Tr H
    if len(dfs) == 1:
        return block_dims[0], block_dims
    return _exact_dimension(total, sums_at), block_dims


def lie_dimension(hamiltonians) -> int:
    """The exact dimension of Lie(i H_0, ..., i H_m) for Hermitian generators,
    read as the exact rationals their floats are (see ``dfs_lie_dimension``)."""
    hs = _staged(hamiltonians, "generator")
    return _exact_dimension(hs.shape[1], lambda p: exact.field(p).map(hs), _traceless(hs))
