"""Lindbladian superoperators, steady-state projections, and DFS detection.

Superoperators act on row-vectorized density matrices: ``vec(rho)`` stacks
rows (C order), so ``vec(A rho B) = kron(A, B.T) vec(rho)``. The generator
convention carries an effective rate ``2 gamma_j`` on the jump term:

    D(rho) = -sum_j gamma_j (Lj^dag Lj rho + rho Lj^dag Lj - 2 Lj rho Lj^dag)

and the full generator is ``rho -> -i[H, rho] + D(rho)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ops import HilbertSpace, Operator, expm, zero

__all__ = [
    "LindbladTerm",
    "LindbladSpec",
    "Superoperator",
    "DFSBlock",
    "DFSDecomposition",
    "vec",
    "unvec",
    "conjugation_superop",
    "hamiltonian_superop",
    "dissipator_matrix",
    "propagate",
    "steady_superprojector",
    "detect_dfs",
    "dual_generator",
    "spec_to_json",
    "spec_from_json",
]

_ZERO_CUT = 1e-9  # relative cut below which a generator eigenvalue is zero
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


def _coherent_bound(h: Operator, name: str) -> float:
    """2 max|H|, the largest entry -i[H, .] can have; raises ValueError naming
    the operator when that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.max(np.abs(h.matrix), initial=0.0)
        bound = 2 * scale
    if not bound < np.inf:  # NaN fails too
        raise ValueError(f"{name} with max|H| = {scale:g} makes the generator not finite")
    return bound


@dataclass(frozen=True)
class LindbladTerm:
    rate: float
    op: Operator

    def __post_init__(self):
        if not 0 <= self.rate < np.inf:  # NaN fails too
            raise ValueError(f"rate must be finite and non-negative, got {self.rate}")


@dataclass(frozen=True)
class LindbladSpec:
    """A Hamiltonian (possibly zero) plus weighted Lindblad operators."""

    hamiltonian: Operator
    terms: tuple[LindbladTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.hamiltonian.is_hermitian(1e-10):
            raise ValueError("hamiltonian is not Hermitian within 1e-10")
        d = self.space.dim
        # every entry of -i[H, .] is at most 2 max|H|; every entry of the
        # dissipator's matrix, of sum_j gamma_j Lj^dag Lj and of D(1) is at
        # most that plus the sum of 2 (d + 1) gamma_j max|Lj|^2
        bound = _coherent_bound(self.hamiltonian, "hamiltonian")
        for t in self.terms:
            if t.op.space.dim != d:
                raise ValueError("all Lindblad terms must share the Hamiltonian's space")
            with np.errstate(over="ignore", invalid="ignore"):
                scale = np.max(np.abs(t.op.matrix), initial=0.0)
                bound += 2 * (d + 1) * t.rate * scale**2
            if not bound < np.inf:  # NaN fails too
                raise ValueError(
                    f"rate {t.rate:g} with max|L| = {scale:g} gives a non-finite Lindblad generator"
                )

    @property
    def space(self) -> HilbertSpace:
        return self.hamiltonian.space

    def dissipative_part(self) -> "LindbladSpec":
        """The same terms with the Hamiltonian dropped."""
        return LindbladSpec(zero(self.space), self.terms)

    def is_unital(self) -> bool:
        """Whether D(1) = -2 sum_j gamma_j [Lj^dag, Lj] vanishes, within 1e-10
        of the largest gamma_j max|Lj|^2."""
        jumps = [(t.rate, t.op.matrix) for t in self.terms]
        defect = sum((r * (l.conj().T @ l - l @ l.conj().T) for r, l in jumps), 0)
        scale = max((r * np.max(np.abs(l)) ** 2 for r, l in jumps), default=0.0)
        return bool(np.max(np.abs(defect)) <= 1e-10 * max(1.0, scale))


@dataclass(frozen=True)
class Superoperator:
    """A d^2 x d^2 matrix acting on row-vectorized density matrices."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d2 = self.space.dim ** 2
        if mat.shape != (d2, d2):
            raise ValueError(f"superoperator shape {mat.shape}, expected {(d2, d2)}")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def identity(cls, space: HilbertSpace) -> "Superoperator":
        return cls(space, np.eye(space.dim ** 2))

    def apply(self, op: Operator) -> Operator:
        if op.space.dim != self.space.dim:
            raise ValueError("operator dimension does not match superoperator")
        return Operator(op.space, unvec(self.matrix @ vec(op.matrix), self.space.dim))

    def __matmul__(self, other: "Superoperator") -> "Superoperator":
        return Superoperator(self.space, self.matrix @ other.matrix)

    def is_trace_preserving(self, tol: float = 1e-9) -> bool:
        # Tr{S(rho)} = vec(I)^H S vec(rho) for all rho  <=>  S^H vec(I) = vec(I)
        d = self.space.dim
        tid = vec(np.eye(d))
        return bool(np.max(np.abs(self.matrix.conj().T @ tid - tid)) <= tol)


def dissipator_matrix(spec: LindbladSpec) -> Superoperator:
    """Vectorized matrix of the full generator -i[H, .] + D."""
    d = spec.space.dim
    mat = hamiltonian_superop(spec.hamiltonian.matrix)
    eye = np.eye(d)
    for term in spec.terms:
        l = term.op.matrix
        ldl = l.conj().T @ l
        mat = mat + term.rate * (
            2.0 * conjugation_superop(l, l.conj().T)
            - conjugation_superop(ldl, eye)
            - conjugation_superop(eye, ldl)
        )
    return Superoperator(spec.space, mat)


def propagate(spec: LindbladSpec, t: float) -> Superoperator:
    """The semigroup element exp(t L) for the generator of ``spec``."""
    if not 0 <= t < np.inf:  # NaN fails too
        raise ValueError(f"time must be finite and non-negative, got {t}")
    gen = dissipator_matrix(spec)
    return Superoperator(spec.space, expm(t * gen.matrix))


def _kernel_tolerance(values: np.ndarray, tol: float) -> float:
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    return tol * max(scale, 1.0)


def steady_superprojector(spec: LindbladSpec) -> Superoperator:
    """Spectral projection onto the kernel of the generator, along its range.

    Requires an attractive generator: zero eigenvalue semisimple, every
    other eigenvalue with strictly negative real part. The result is the
    infinite-time limit of ``propagate`` and satisfies P^2 = P, but is not
    Hermitian as a matrix in general. Dense (d^2 x d^2); for a unital
    dissipator ``zeno.superproject_hamiltonian`` applies P matrix-free.
    """
    gen = dissipator_matrix(spec).matrix
    w, left, right = scipy.linalg.eig(gen, left=True, right=True)
    cut = _kernel_tolerance(w, _ZERO_CUT)
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
    if s[-1] <= _kernel_tolerance(s, 1e-8):
        raise ValueError("zero eigenvalue of the generator is not semisimple")
    proj = right @ np.linalg.solve(overlap, left.conj().T)
    return Superoperator(spec.space, proj)


@dataclass(frozen=True)
class DFSBlock:
    """One decoherence-free subspace with its joint eigenvalue data."""

    basis: np.ndarray                      # d x k, orthonormal columns
    projector: Operator
    lindblad_eigenvalues: tuple[complex, ...]  # one per positive-rate term
    damping_eigenvalue: float                   # b = sum_j gamma_j |lambda_j|^2

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class DFSDecomposition:
    space: HilbertSpace
    blocks: tuple[DFSBlock, ...]

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(b.dim for b in self.blocks)


def _null_space(mat: np.ndarray, tol: float) -> np.ndarray:
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    return vh[s <= _kernel_tolerance(s, tol)].conj().T


def _canonical_basis(basis: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Deterministic orthonormal basis of span(basis), aligned with the
    computational axes whenever the span allows it."""
    d, k = basis.shape
    proj = basis @ basis.conj().T
    cols: list[np.ndarray] = []
    for i in range(d):
        v = proj[:, i].copy()
        for c in cols:
            v -= c * (c.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > tol:
            cols.append(v / norm)
        if len(cols) == k:
            break
    return np.column_stack(cols)


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


def detect_dfs(spec: LindbladSpec) -> DFSDecomposition:
    """Maximal orthogonal subspaces annihilated by the dissipative part.

    The Hamiltonian is ignored. A DFS block is a common eigenspace of the
    positive-rate Lindblad operators, L_j|psi> = c_j|psi>, on which
    G = sum_j gamma_j L_j^dag L_j acts as b = sum_j gamma_j |c_j|^2.
    Starting from the whole space, each block basis B is split eigenvalue
    by eigenvalue into the null spaces of (L_j - c_j) B, one operator after
    another, and then cut down to the null space of (G - b) B; every
    surviving block is verified against the defining conditions.
    """
    d = spec.space.dim
    active = [(t.rate, t.op.matrix) for t in spec.terms if t.rate > 0]
    blocks: list[tuple[np.ndarray, tuple[complex, ...]]] = [(np.eye(d, dtype=complex), ())]
    for _, l in active:
        refined: list[tuple[np.ndarray, tuple[complex, ...]]] = []
        for sub, lams in blocks:
            comp = sub.conj().T @ l @ sub
            for lam in _cluster(np.linalg.eigvals(comp), 10 * _DFS_TOL):
                cand = sub @ _null_space(l @ sub - lam * sub, _DFS_TOL)
                if cand.shape[1] == 0:
                    continue
                lam_refined = complex(np.trace(cand.conj().T @ l @ cand) / cand.shape[1])
                refined.append((cand, lams + (lam_refined,)))
        blocks = refined

    g = sum((r * (l.conj().T @ l) for r, l in active), np.zeros((d, d)))
    rates = [r for r, _ in active]
    final: list[DFSBlock] = []
    for sub, lams in blocks:
        b = float(sum(r * abs(lam) ** 2 for r, lam in zip(rates, lams)))
        sub = sub @ _null_space(g @ sub - b * sub, _DFS_TOL)
        if sub.shape[1] == 0:
            continue
        # Verify the defining conditions on every basis vector.
        ok = all(
            np.max(np.abs(l @ sub - lam * sub)) <= 10 * _DFS_TOL
            for (_, l), lam in zip(active, lams)
        ) and np.max(np.abs(g @ sub - b * sub)) <= 10 * _DFS_TOL
        if not ok:
            continue
        sub = _canonical_basis(sub)
        proj = Operator(spec.space, sub @ sub.conj().T)
        final.append(DFSBlock(sub, proj, tuple(lams), b))

    def sort_key(block: DFSBlock):
        lam6 = tuple(
            (round(z.real, 6), round(z.imag, 6)) for z in block.lindblad_eigenvalues
        )
        return lam6 + ((round(block.damping_eigenvalue, 6), 0.0),)

    final.sort(key=sort_key)
    for i, bi in enumerate(final):
        for bj in final[i + 1 :]:
            if np.max(np.abs(bi.basis.conj().T @ bj.basis)) > 10 * _DFS_TOL:
                raise ValueError("detected DFS blocks are not mutually orthogonal")
    return DFSDecomposition(spec.space, tuple(final))


def dual_generator(spec: LindbladSpec) -> Superoperator:
    """Heisenberg-picture generator: A -> +i[H, A] - sum_j gamma_j
    (Lj^dag Lj A + A Lj^dag Lj - 2 Lj^dag A Lj), the Hilbert-Schmidt
    adjoint of the generator."""
    return Superoperator(spec.space, dissipator_matrix(spec).matrix.conj().T)


def _matrix_to_json(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _array_from_json(data, ndim: int, what: str) -> np.ndarray:
    """A float array of rank ``ndim`` from nested JSON lists of numbers."""
    try:
        arr = np.array(data)
    except ValueError:  # ragged nesting
        arr = np.array(None)
    if arr.ndim != ndim or arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be a {ndim}-D list of numbers")
    return arr.astype(float)


def _matrix_from_json(data, what: str = "matrix") -> np.ndarray:
    """A complex matrix from rows of [re, im] pairs."""
    pairs = _array_from_json(data, 3, what)
    if pairs.shape[2] != 2:
        raise ValueError(f"{what} entries must be [re, im] pairs")
    return pairs.view(complex)[..., 0]


def spec_to_json(spec: LindbladSpec) -> str:
    doc = {
        "dims": list(spec.space.factor_dims),
        "hamiltonian": _matrix_to_json(spec.hamiltonian.matrix),
        "terms": [
            {"rate": float(t.rate), "op": _matrix_to_json(t.op.matrix)}
            for t in spec.terms
        ],
    }
    return json.dumps(doc)


def spec_from_json(text: str) -> LindbladSpec:
    doc = json.loads(text)
    dims = doc["dims"]
    if not isinstance(dims, list) or not all(type(n) is int and n > 0 for n in dims):
        raise ValueError(f"dims must be a list of positive integers, got {json.dumps(dims)}")
    space = HilbertSpace(tuple(dims))
    h = Operator(space, _matrix_from_json(doc["hamiltonian"], "hamiltonian"))
    if not isinstance(doc["terms"], list) or not all(isinstance(t, dict) for t in doc["terms"]):
        raise ValueError("terms must be a list of JSON objects")
    terms = tuple(
        LindbladTerm(
            float(_array_from_json(t["rate"], 0, "rate")),
            Operator(space, _matrix_from_json(t["op"], "op")),
        )
        for t in doc["terms"]
    )
    return LindbladSpec(h, terms)
