"""Lindbladian superoperators, steady-state projections, and DFS detection.

Superoperators act on row-vectorized density matrices: ``vec(rho)`` stacks
rows (C order), so ``vec(A rho B) = kron(A, B.T) vec(rho)``. The generator
convention carries an effective rate ``2 gamma_j`` on the jump term:

    D(rho) = -sum_j gamma_j (Lj^dag Lj rho + rho Lj^dag Lj - 2 Lj rho Lj^dag)

and the full generator is ``rho -> -i[H, rho] + D(rho)``. H and the Lj are
complex (d, d) arrays; the generators and projectors are (d^2, d^2) arrays.
Only a propagated channel is wrapped, in ``Superoperator``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .ops import hermitian

__all__ = [
    "LindbladTerm",
    "LindbladSpec",
    "Superoperator",
    "DFSBlock",
    "vec",
    "unvec",
    "conjugation_superop",
    "hamiltonian_superop",
    "dissipator_matrix",
    "steady_superprojector",
    "detect_dfs",
    "dual_generator",
    "spec_to_json",
    "spec_from_json",
]

_ZERO_CUT = 1e-9  # cut below which a generator eigenvalue is zero, in the generator's unit
_DFS_TOL = 1e-8  # DFS null-space and verification tolerance


def vec(matrix: np.ndarray) -> np.ndarray:
    """Row-vectorize a d x d matrix into a length-d^2 vector."""
    return np.asarray(matrix, dtype=complex).reshape(-1)


def unvec(vector: np.ndarray, d: int | None = None) -> np.ndarray:
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if d is None:
        d = round(len(v) ** 0.5)
    if d * d != len(v):
        raise ValueError(f"length {len(v)} is not a perfect square")
    return v.reshape(d, d)


def conjugation_superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of rho -> a rho b under row vectorization."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex).T)


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Matrix of rho -> -i[h, rho]."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[0])
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def _coherent_bound(h: np.ndarray, name: str) -> float:
    """2 max|H|, the largest entry -i[H, .] can have; raises ValueError naming
    the operator when that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.max(np.abs(h), initial=0.0)
        bound = 2 * scale
    if not bound < np.inf:  # NaN fails too
        raise ValueError(f"{name} with max|H| = {scale:g} makes the generator not finite")
    return bound


def _read_only(a) -> np.ndarray:
    """A complex copy of ``a`` that cannot be written."""
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _ldexp(a: np.ndarray, n: int) -> np.ndarray:
    """a 2^n for a complex array: exact unless it over- or underflows."""
    return np.ldexp(a.real, n) + 1j * np.ldexp(a.imag, n)


@dataclass(frozen=True)
class LindbladTerm:
    """A rate and a Lindblad operator, kept as a read-only complex copy."""

    rate: float
    op: np.ndarray

    def __post_init__(self):
        if not 0 <= self.rate < np.inf:  # NaN fails too
            raise ValueError(f"rate must be finite and non-negative, got {self.rate}")
        object.__setattr__(self, "op", _read_only(self.op))


@dataclass(frozen=True)
class LindbladSpec:
    """A Hamiltonian (possibly zero), kept as a read-only copy of its exact
    Hermitian part (``ops.hermitian``), plus weighted Lindblad operators of
    the same size d. ``dims`` are the tensor factors' dimensions, whose
    product is d; (d,) by default."""

    hamiltonian: np.ndarray
    terms: tuple[LindbladTerm, ...] = ()
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        h = _read_only(hermitian(self.hamiltonian, "hamiltonian"))
        object.__setattr__(self, "hamiltonian", h)
        d = h.shape[0]
        dims = (d,) if self.dims is None else tuple(self.dims)
        positive = all(type(n) is int and n > 0 for n in dims)
        if not (dims and positive and math.prod(dims) == d):
            raise ValueError(f"dims {list(dims)} must be positive integers whose product is {d}")
        object.__setattr__(self, "dims", dims)
        # every entry of -i[H, .] is at most 2 max|H|; every entry of the
        # dissipator's matrix, of sum_j gamma_j Lj^dag Lj and of D(1) is at
        # most that plus the sum of 2 (d + 1) gamma_j max|Lj|^2
        bound = _coherent_bound(self.hamiltonian, "hamiltonian")
        for k, t in enumerate(self.terms):
            if t.op.shape != (d, d):
                raise ValueError(f"Lindblad term {k} has shape {t.op.shape}, not ({d}, {d})")
            with np.errstate(over="ignore", invalid="ignore"):
                scale = np.max(np.abs(t.op), initial=0.0)
                bound += 2 * (d + 1) * t.rate * scale**2
            if not bound < np.inf:  # NaN fails too
                raise ValueError(
                    f"rate {t.rate:g} with max|L| = {scale:g} gives a non-finite Lindblad generator"
                )

    def dissipative_part(self) -> "LindbladSpec":
        """The same terms with the Hamiltonian dropped."""
        return LindbladSpec(np.zeros_like(self.hamiltonian), self.terms, self.dims)

    def is_unital(self) -> bool:
        """Whether D(1) = -2 sum_j gamma_j [Lj^dag, Lj] vanishes, within 1e-10
        of the largest gamma_j max|Lj|^2; D(1) is linear in the rates, so the
        cut has no absolute floor, and it is taken on the unit jumps
        (``_unit_jumps``), so no product of a rate and a jump rounds to 0."""
        _, jumps = _unit_jumps(self)
        defect = sum((w * (u.conj().T @ u - u @ u.conj().T) for _, w, u in jumps), 0)
        scale = max((w * np.max(np.abs(u)) ** 2 for _, w, u in jumps), default=0.0)
        return bool(np.max(np.abs(defect)) <= 1e-10 * scale)


def _unit_jumps(spec: LindbladSpec) -> tuple[int, list[tuple[int, float, np.ndarray]]]:
    """The positive-rate terms as gamma_j D[Lj] = 2^k w_j D[Uj], with no
    product of a rate and a jump formed: Uj = Lj / 2^e_j for the least
    2^e_j >= max|Lj|, and w_j = gamma_j 4^e_j / 2^k in exponent arithmetic,
    where 2^(k-1) <= gamma_j 4^e_j < 2^k for the largest, so the largest w_j
    lies in [1/2, 1). Returns k and the triples (e_j, w_j, Uj); a zero Lj
    has w_j = 0. Every scaling is by a power of two, so it rounds nothing
    that does not under- or overflow."""
    out = []
    for t in spec.terms:
        if t.rate > 0:
            top = np.max(np.abs(t.op), initial=0.0)
            m, e = math.frexp(top)
            if m == 0.5:  # max|L| = 2^(e-1) exactly: divide by that
                e -= 1
            rm, re = math.frexp(t.rate)
            out.append((e, rm if top else 0.0, re + 2 * e, _ldexp(t.op, -e)))
    k = max((x for _, m, x, _ in out if m), default=0)
    return k, [(e, math.ldexp(m, x - k), u) for e, m, x, u in out]


@dataclass(frozen=True)
class Superoperator:
    """A propagated channel's (d^2, d^2) matrix on row-vectorized density matrices."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        _superop_dim(mat)
        object.__setattr__(self, "matrix", mat)


def _superop_dim(mat: np.ndarray) -> int:
    """d for a (d^2, d^2) array; ValueError for any other shape."""
    n = mat.shape[0] if mat.ndim == 2 else 0
    d = math.isqrt(n)
    if n == 0 or mat.shape != (n, n) or d * d != n:
        raise ValueError(f"superoperator must be d^2 x d^2, got {mat.shape}")
    return d


def _generator(coherent: np.ndarray, jumps) -> np.ndarray:
    """coherent + sum_j w_j (2 L (.) L^dag - L^dag L (.) - (.) L^dag L) over
    the pairs (w_j, L_j) of ``jumps``, as a (d^2, d^2) array."""
    mat = coherent
    for rate, l in jumps:
        eye = np.eye(len(l))
        ldl = l.conj().T @ l
        mat = mat + rate * (
            2.0 * conjugation_superop(l, l.conj().T)
            - conjugation_superop(ldl, eye)
            - conjugation_superop(eye, ldl)
        )
    return mat


def dissipator_matrix(spec: LindbladSpec) -> np.ndarray:
    """Vectorized (d^2, d^2) matrix of the full generator -i[H, .] + D."""
    return _generator(
        hamiltonian_superop(spec.hamiltonian), [(t.rate, t.op) for t in spec.terms]
    )


def steady_superprojector(spec: LindbladSpec) -> np.ndarray:
    """Spectral projection onto the kernel of the generator, along its range.

    Requires an attractive generator: zero eigenvalue semisimple, every
    other eigenvalue with strictly negative real part. The result is the
    infinite-time limit of the semigroup exp(t L) of the generator L and
    satisfies P^2 = P, but is not Hermitian as a matrix in general. Dense
    (d^2, d^2) array: the float oracle of ``exact.superproject``'s P(H) for
    a unital dissipator.

    P(cL) = P(L) for c > 0, so the zero cut has no absolute floor: it is
    1e-9 of the generator's unit s = max(2 max|H|, max_j gamma_j max|Lj|^2),
    applied to the generator times 2^-e, 2^e <= s < 2^(e+1). The generator
    is built at that scale from the unit jumps (``_unit_jumps``), which
    rounds nothing and brings the generator of a tiny or huge common rate
    to order 1, even where gamma_j max|Lj|^2 itself is not a float.
    """
    import scipy.linalg

    k, jumps = _unit_jumps(spec)
    coherent = _coherent_bound(spec.hamiltonian, "hamiltonian")
    dissipative = max((w * np.max(np.abs(u)) ** 2 for _, w, u in jumps), default=0.0)
    # s = max(coherent, 2^k dissipative), by its exponent; 2^-1 <= s < 1 at s = 0
    exponents = [math.frexp(coherent)[1]] if coherent else []
    if dissipative:
        exponents.append(math.frexp(dissipative)[1] + k)
    e = max(exponents, default=0) - 1
    gen = _generator(
        _ldexp(hamiltonian_superop(spec.hamiltonian), -e),
        [(math.ldexp(w, k - e), u) for _, w, u in jumps],
    )
    w, left, right = scipy.linalg.eig(gen, left=True, right=True)
    cut = _ZERO_CUT * max(math.ldexp(coherent, -e), math.ldexp(dissipative, k - e))
    zero = np.abs(w) <= cut
    if not zero.any():
        raise ValueError("generator has no steady state")
    if not np.all(w[~zero].real < -cut):
        raise ValueError("generator is not attractive: nonzero eigenvalue with Re >= 0")
    # P = R (L^H R)^-1 L^H from the unit right and left eigenvectors of the
    # zero cluster. A defective zero eigenvalue leaves L^H R (nearly)
    # singular, by its condition number or, as for an exact Jordan block,
    # with every singular value small.
    right, left = right[:, zero], left[:, zero]
    overlap = left.conj().T @ right
    s = np.linalg.svd(overlap, compute_uv=False)
    if s[-1] <= 1e-8 * max(s[0], 1.0):
        raise ValueError("zero eigenvalue of the generator is not semisimple")
    return right @ np.linalg.solve(overlap, left.conj().T)


@dataclass(frozen=True)
class DFSBlock:
    """One decoherence-free subspace: its dimension and joint eigenvalue data.
    The span is the common null space of the Lj - c_j and G - b."""

    dim: int
    lindblad_eigenvalues: tuple[complex, ...]  # c_j, one per positive-rate term
    damping_eigenvalue: float                   # b = sum_j gamma_j |c_j|^2


def _null_space(mat: np.ndarray, tol: float) -> np.ndarray:
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    return vh[s <= tol * max(s[0], 1.0)].conj().T


def _cluster(values: np.ndarray, tol: float) -> list[complex]:
    """Cluster complex values within ``tol``; returns cluster means."""
    out: list[list[complex]] = []
    for v in sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9))):
        for group in out:
            if abs(v - group[0]) <= tol:
                group.append(v)
                break
        else:
            out.append([v])
    return [complex(np.mean(g)) for g in out]


def detect_dfs(spec: LindbladSpec) -> tuple[DFSBlock, ...]:
    """Maximal orthogonal subspaces annihilated by the dissipative part.

    The Hamiltonian is ignored. A DFS block is a common eigenspace of the
    positive-rate Lindblad operators, L_j|psi> = c_j|psi>, on which
    G = sum_j gamma_j L_j^dag L_j acts as b = sum_j gamma_j |c_j|^2.
    Starting from the whole space, each block basis B is split eigenvalue
    by eigenvalue into the null spaces of (L_j - c_j) B, one operator after
    another, and then cut down to the null space of (G - b) B; every
    surviving block is verified against the defining conditions, and the
    blocks must be mutually orthogonal. All of this runs on the unit jumps
    U_j = L_j / 2^e_j and G / 2^k (``_unit_jumps``), so no cut depends on how
    gamma_j and L_j split the dissipator, and no product of a rate and a
    jump under- or overflows. The bases stay local: a block is returned as
    its dimension and labels c_j and b, where a part of c_j below 1e-8 2^e_j
    and a b below 1e-8 max|G| are exact zeros.
    """
    d = spec.hamiltonian.shape[0]
    k, active = _unit_jumps(spec)
    blocks: list[tuple[np.ndarray, tuple[complex, ...]]] = [(np.eye(d, dtype=complex), ())]
    for _, _, u in active:
        refined: list[tuple[np.ndarray, tuple[complex, ...]]] = []
        for sub, lams in blocks:
            comp = sub.conj().T @ u @ sub
            for lam in _cluster(np.linalg.eigvals(comp), 10 * _DFS_TOL):
                cand = sub @ _null_space(u @ sub - lam * sub, _DFS_TOL)
                if cand.shape[1] == 0:
                    continue
                lam_refined = complex(np.trace(cand.conj().T @ u @ cand) / cand.shape[1])
                refined.append((cand, lams + (lam_refined,)))
        blocks = refined

    # G / 2^k and its rounding scale as w_j |Uj|^2, so its cut and check are
    # relative to its largest entry, which is nonzero when some active Lj is
    g = sum((w * (u.conj().T @ u) for _, w, u in active), np.zeros((d, d)))
    g_scale = float(np.max(np.abs(g))) or 1.0

    def cut(x: float, scale: float) -> float:
        return 0.0 if abs(x) < _DFS_TOL * scale else x

    found: list[tuple[np.ndarray, DFSBlock]] = []
    for sub, lams in blocks:
        b = float(sum(w * abs(lam) ** 2 for (_, w, _), lam in zip(active, lams)))
        sub = sub @ _null_space((g @ sub - b * sub) / g_scale, _DFS_TOL)
        if sub.shape[1] == 0:
            continue
        # Verify the defining conditions on every basis vector.
        ok = all(
            np.max(np.abs(u @ sub - lam * sub)) <= 10 * _DFS_TOL
            for (_, _, u), lam in zip(active, lams)
        ) and np.max(np.abs(g @ sub - b * sub)) <= 10 * _DFS_TOL * g_scale
        if ok:
            labels = tuple(
                complex(math.ldexp(cut(lam.real, 1.0), e), math.ldexp(cut(lam.imag, 1.0), e))
                for (e, _, _), lam in zip(active, lams)
            )
            found.append((sub, DFSBlock(sub.shape[1], labels, math.ldexp(cut(b, g_scale), k))))

    def sort_key(block: DFSBlock):
        lam6 = tuple(
            (round(z.real, 6), round(z.imag, 6)) for z in block.lindblad_eigenvalues
        )
        return lam6 + ((round(block.damping_eigenvalue, 6), 0.0),)

    found.sort(key=lambda item: sort_key(item[1]))
    for i, (bi, _) in enumerate(found):
        for bj, _ in found[i + 1 :]:
            if np.max(np.abs(bi.conj().T @ bj)) > 10 * _DFS_TOL:
                raise ValueError("detected DFS blocks are not mutually orthogonal")
    return tuple(block for _, block in found)


def dual_generator(spec: LindbladSpec) -> np.ndarray:
    """Heisenberg-picture generator: A -> +i[H, A] - sum_j gamma_j
    (Lj^dag Lj A + A Lj^dag Lj - 2 Lj^dag A Lj), the Hilbert-Schmidt
    adjoint of the generator."""
    return dissipator_matrix(spec).conj().T


def _matrix_to_json(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _real_array(data) -> np.ndarray | None:
    """``data`` as a float array, or None if it is not an evenly nested
    array of real numbers."""
    try:
        arr = np.array(data)
    except ValueError:  # ragged nesting
        return None
    return arr.astype(float) if arr.dtype.kind in "iuf" else None


def _array_from_json(data, ndim: int, what: str) -> np.ndarray:
    """A float array of rank ``ndim`` from nested JSON lists of numbers."""
    arr = _real_array(data)
    if arr is None or arr.ndim != ndim:
        raise ValueError(f"{what} must be a {ndim}-D list of numbers")
    return arr


def _matrix_from_json(data, what: str = "matrix") -> np.ndarray:
    """A complex matrix from rows of [re, im] pairs."""
    pairs = _array_from_json(data, 3, what)
    if pairs.shape[2] != 2:
        raise ValueError(f"{what} entries must be [re, im] pairs")
    return pairs.view(complex)[..., 0]


def spec_to_json(spec: LindbladSpec) -> str:
    doc = {
        "dims": list(spec.dims),
        "hamiltonian": _matrix_to_json(spec.hamiltonian),
        "terms": [
            {"rate": float(t.rate), "op": _matrix_to_json(t.op)}
            for t in spec.terms
        ],
    }
    return json.dumps(doc)


def spec_from_json(text: str) -> LindbladSpec:
    doc = json.loads(text)
    dims = doc["dims"]
    if not isinstance(dims, list):  # LindbladSpec checks the entries
        raise ValueError(f"dims must be a list of positive integers, got {json.dumps(dims)}")
    h = _matrix_from_json(doc["hamiltonian"], "hamiltonian")
    if not isinstance(doc["terms"], list) or not all(isinstance(t, dict) for t in doc["terms"]):
        raise ValueError("terms must be a list of JSON objects")
    terms = tuple(
        LindbladTerm(
            float(_array_from_json(t["rate"], 0, "rate")),
            _matrix_from_json(t["op"], "op"),
        )
        for t in doc["terms"]
    )
    return LindbladSpec(h, terms, tuple(dims))
