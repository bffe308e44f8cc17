"""Dynamical Lie-algebra closures and controllability verdicts.

The dynamical Lie algebra is the REAL span of i*(Hamiltonians) and their
iterated commutators, a subspace of u(d). Its real dimension equals the
complex dimension of the complex Lie algebra that the Hamiltonians generate
(u(d) is a real form of gl(d, C)), and that is the dimension over Q(i)
when the inputs are Gaussian rationals, as floats are.

``dfs_lie_dimension`` takes every printed dimension and verdict from the
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
primes are those of the rational P(H). A real Lie subalgebra of u(d) of
dimension d^2 - 1 is su(d), so the dimension alone decides the verdict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import blas, exact
from .lindblad import DFSBlock, LindbladSpec, detect_dfs
from .ops import hermitian

__all__ = ["ControllabilityVerdict", "DFSLieReport", "dfs_lie_dimension", "lie_verdict"]


@dataclass(frozen=True)
class ControllabilityVerdict:
    dim: int
    contains_su: bool
    equals_u: bool


def _verdict(dim: int, d: int) -> ControllabilityVerdict:
    """The verdict of a Lie subalgebra of u(d) of dimension ``dim``: u(d) has
    dimension d^2, and su(d) is the only one of dimension d^2 - 1 (su(d) is
    compact and simple, so it has no subalgebra of codimension 1; the
    algebra's projection onto su(d) is then onto and one to one, and its
    graph over su(d) = [su(d), su(d)] has no trace part)."""
    return ControllabilityVerdict(dim, dim > 0 and dim >= d * d - 1, dim > 0 and dim == d * d)


@dataclass(frozen=True)
class DFSLieReport:
    """The closure over the whole steady manifold, one per DFS block, and
    the blocks themselves."""

    verdict: ControllabilityVerdict
    block_verdicts: tuple[ControllabilityVerdict, ...]
    dfs: tuple[DFSBlock, ...] = field(compare=False)

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(v.dim for v in self.block_verdicts)


def _exact_verdict(d: int, generators_at, traceless: bool = False) -> ControllabilityVerdict:
    """The verdict of the Lie algebra whose generators' images in F_p are
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
    return _verdict(dim, d)


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


def _block_basis(block, jumps, d: int, f: exact.Field) -> np.ndarray:
    """The block's span in C^d as the null space mod p of the stacked
    Lj - c_j and G - b, G = sum_j gamma_j Lj^dag Lj. Each c_j is read as a
    rational from the float label, b = sum_j gamma_j |c_j|^2 exactly; the
    null space must have the block's dimension."""
    labels = [(_rational(z.real), _rational(z.imag)) for z in block.lindblad_eigenvalues]
    b = sum(Fraction(r) * (re * re + im * im) for (r, _), (re, im) in zip(jumps, labels))
    ls = f.map(np.reshape([l for _, l in jumps], (-1, d, d)))
    lds = f.map(np.reshape([l.conj().T for _, l in jumps], (-1, d, d)))
    rates = np.array([f.scalar(Fraction(r)) for r, _ in jumps], dtype=float)
    g = np.tensordot(rates, f.mm(lds, ls), axes=1)
    cs = np.array([f.scalar(re, im) for re, im in labels]).reshape(-1, 1, 1)
    rows = np.vstack([*(ls - cs * np.eye(d)), g - f.scalar(b) * np.eye(d)])
    v = exact.null_space(rows, f)
    if v.shape[1] != block.dim:
        raise ValueError(
            f"a DFS block of dimension {block.dim} has an exact eigenspace of dimension "
            f"{v.shape[1]} mod {f.p} for its labels "
            + ", ".join(f"{re} + {im}i" for re, im in labels)
        )
    return v


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


def dfs_lie_dimension(spec: LindbladSpec, controls) -> DFSLieReport:
    """Exact Lie dimensions of the projected control system over the DFS's.

    Every dimension and verdict comes from the closure over F_p
    (``_exact_verdict``), on exact images of the inputs, never on rounded
    floats. For every DFS block the controls are compressed with the
    orthogonal left inverse, (V^dag V)^-1 V^dag H V, where V spans the
    block's exact eigenspace (``_block_basis``); ``detect_dfs`` supplies
    only the block dimensions and labels. The joint verdict closes P(H) for
    a unital dissipator (``exact.superproject``), and otherwise the
    block-diagonal sum of the compressions, so that blocks the controls
    link count once; a single block's joint verdict is its block verdict.
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
        out = []
        for block in dfs:
            v, w = _block_basis(block, jumps, d, f), _block_basis(block, jumps, d, f.conjugate)
            out.append([exact.compress(h, v, w, f) for h in f.map(hs)])
        return out

    block_verdicts = tuple(
        _exact_verdict(block.dim, lambda p, k=k: blocks_at(p)[k])
        for k, block in enumerate(dfs)
    )
    if jumps and spec.is_unital():
        projected, _ = exact.superproject(hs, jumps)
        joint = _exact_verdict(d, projected.get, _traceless(hs))  # Tr P(H) = Tr H
    elif len(dfs) == 1:
        joint = block_verdicts[0]
    elif not dfs:
        joint = _verdict(0, 0)  # no steady manifold to control
    else:
        import scipy.linalg

        joint = _exact_verdict(
            sum(b.dim for b in dfs),
            lambda p: [scipy.linalg.block_diag(*parts) for parts in zip(*blocks_at(p))],
        )
    return DFSLieReport(joint, block_verdicts, dfs)


def lie_verdict(hamiltonians) -> ControllabilityVerdict:
    """The exact verdict of Lie(i H_0, ..., i H_m) for Hermitian generators,
    read as the exact rationals their floats are (see ``dfs_lie_dimension``)."""
    hs = _staged(hamiltonians, "generator")
    return _exact_verdict(hs.shape[1], lambda p: exact.field(p).map(hs), _traceless(hs))
