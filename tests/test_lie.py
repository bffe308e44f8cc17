from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import zenoforge.exact as exact
import zenoforge.lie as lie
from zenoforge.grape import ControlSystem
from zenoforge.lie import dfs_lie_dimension, lie_dimension
from zenoforge.lindblad import LindbladSpec, LindbladTerm, detect_dfs
from zenoforge.models import build_model
from zenoforge.ops import lowering_on, pauli_on

from conftest import (
    block_dims,
    dense_superprojection,
    dfs_span,
    heisenberg_bonds,
    integer_hermitian,
    label_rows,
    random_hermitian,
)

H0 = pauli_on(2, 0, "x") @ (pauli_on(2, 1, "x") + pauli_on(2, 1, "z"))
H1 = pauli_on(2, 0, "y") @ (pauli_on(2, 1, "x") - pauli_on(2, 1, "z"))


def atom_model(n):
    eye = np.eye(n + 1)
    terms = tuple(
        LindbladTerm(1.0, np.outer(eye[:, j], eye[:, n]))
        for j in range(n)
    )
    drift = (
        np.outer(eye[:, n], eye[:, 1])
        + np.outer(eye[:, 1], eye[:, n])
        + sum(
            np.outer(eye[:, j], eye[:, j + 1]) + np.outer(eye[:, j + 1], eye[:, j])
            for j in range(n - 1)
        )
    )
    control = (
        np.outer(eye[:, n], eye[:, n])
        + np.outer(eye[:, 0], eye[:, 0])
        - np.outer(eye[:, n], eye[:, 0])
        - np.outer(eye[:, 0], eye[:, n])
    )
    return LindbladSpec(np.zeros((n + 1, n + 1)), terms), drift, control


class TestLieVerdict:
    def test_commuting_two_qubit_pair_is_two_dimensional(self):
        assert lie_dimension([H0, H1]) == 2

    def test_projected_amp_damping_pair_gives_su2(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, 1j], [-1j, 0]], dtype=complex)
        assert lie_dimension([-sx, sy]) == 3

    def test_single_generator(self):
        assert lie_dimension([pauli_on(1, 0, "x")]) == 1

    def test_generator_order_invariance(self):
        gens = [H0, H1, pauli_on(2, 0, "z")]
        assert lie_dimension(gens) == lie_dimension(gens[::-1])

    def test_exact_unitary_conjugation_invariance(self):
        u = np.kron(_U, _U)  # dyadic entries: u H u^dag is exact in floats
        gens = [H0, H1, pauli_on(2, 0, "x")]
        conj = [u @ g @ u.conj().T for g in gens]
        assert lie_dimension(gens) == lie_dimension(conj)

    def test_full_algebra_is_reached(self, rng):
        gens = [random_hermitian(4, rng) for _ in range(2)]
        assert lie_dimension(gens) == 16  # generic pair generates u(4)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_single_nonzero_generator_spans_one_direction(self, seed):
        g = np.random.default_rng(seed)
        assert lie_dimension([random_hermitian(4, g)]) == 1

    def test_rejects_nonhermitian_and_empty(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            lie_dimension([np.triu(np.ones((4, 4)))])
        with pytest.raises(ValueError, match="^need at least one generator$"):
            lie_dimension([])
        assert lie_dimension([np.zeros((4, 4))]) == 0

    def test_non_traceless_generators_of_su2_close_to_u2(self):
        # su(d) is the only Lie subalgebra of u(d) of dimension d^2 - 1, so
        # the dimension alone is the verdict: a trace lifts su(2) to u(2)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        gens = [sx, sy + np.eye(2)]
        assert lie_dimension(gens) == 4


class TestControllabilityVerdict:
    """The verdict is the dimension: su(d) at d^2 - 1, u(d) at d^2."""

    def test_su2_detected(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, 1j], [-1j, 0]], dtype=complex)
        assert lie_dimension([sx, sy]) == 3

    def test_identity_only_span(self):
        assert lie_dimension([np.eye(3)]) == 1

    def test_dephasing_superprojected_pair_not_full(self):
        sxz = pauli_on(2, 0, "x") @ pauli_on(2, 1, "z")
        syz = -1.0 * (pauli_on(2, 0, "y") @ pauli_on(2, 1, "z"))
        assert lie_dimension([sxz, syz]) == 3  # far below su(4)'s 15

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 18, 19, 20])
    def test_atom_projected_pair_gives_full_unitary_algebra(self, n):
        spec, drift, control = atom_model(n)
        assert dfs_lie_dimension(spec, [drift, control]) == (n * n, (n * n,))


class TestDfsLieDimension:
    def test_amp_damping_block_dim_three(self):
        spec = LindbladSpec(np.zeros((4, 4)), (LindbladTerm(1.0, lowering_on(2, 1)),))
        assert dfs_lie_dimension(spec, [H0, H1]) == (3, (3,))  # su(2), joint = the block

    @pytest.mark.parametrize(
        "rate, scale", [(2.0**-700, 2.0**-300), (1e-200, 1e-100)], ids=["dyadic", "decimal"]
    )
    def test_underflowing_dissipator_keeps_its_verdict(self, rate, scale):
        # gamma max|L|^2 rounds to 0, yet the dissipator is rate 1's times a
        # positive factor: still not unital, with the same DFS and closure
        spec = LindbladSpec(np.zeros((4, 4)), (LindbladTerm(rate, scale * lowering_on(2, 1)),))
        assert not spec.is_unital()
        assert dfs_lie_dimension(spec, [H0, H1]) == (3, (3,))

    def test_dephasing_blocks_and_unital(self):
        spec = LindbladSpec(np.zeros((4, 4)), (LindbladTerm(1.0, pauli_on(2, 1, "z")),))
        # su(2) on each block, and one su(2) jointly: far below su(4)'s 15
        assert dfs_lie_dimension(spec, [H0, H1]) == (3, (3, 3))

    def test_non_unital_without_dfs_has_empty_algebra(self):
        low = lowering_on(1, 0)
        raising = low.conj().T
        spec = LindbladSpec(np.zeros((2, 2)), (LindbladTerm(1.0, low), LindbladTerm(2.0, raising)))
        assert dfs_lie_dimension(spec, [pauli_on(1, 0, "x")]) == (0, ())

    def test_no_jumps_block_is_the_whole_space(self):
        # no jump operator fixes the block's size: it is the spec's d
        controls = [pauli_on(1, 0, "x"), pauli_on(1, 0, "z")]
        assert dfs_lie_dimension(LindbladSpec(np.zeros((2, 2))), controls) == (3, (3,))


def on_dephasing(controls):
    return dfs_lie_dimension(build_model("two-qubit-dephasing").spec, controls)  # d = 4


def system_on_dephasing(controls):
    return ControlSystem(controls, build_model("two-qubit-dephasing").spec, 1.0)


def jumps_on_dephasing(ops):
    return LindbladSpec(np.zeros((4, 4)), tuple(LindbladTerm(1.0, op) for op in ops))


@pytest.mark.parametrize(
    "closure, mats, message",
    [
        (on_dephasing, [np.eye(2)] * 4, "control 0 has shape (2, 2), not (4, 4)"),
        (on_dephasing, [np.eye(8)], "control 0 has shape (8, 8), not (4, 4)"),
        (on_dephasing, [np.eye(2)], "control 0 has shape (2, 2), not (4, 4)"),
        (lie_dimension, [np.eye(2), np.eye(3)], "generator 1 has shape (3, 3), not (2, 2)"),
        (system_on_dephasing, [np.eye(4), np.eye(2)], "control 1 has shape (2, 2), not (4, 4)"),
        (jumps_on_dephasing, [np.eye(4), np.eye(8)],
         "Lindblad term 1 has shape (8, 8), not (4, 4)"),
    ],
    ids=["four-2x2-controls", "one-8x8-control", "one-2x2-control", "generators-2-and-3",
         "control-system", "lindblad-term"],
)
def test_mis_sized_matrices_are_named(closure, mats, message):
    with pytest.raises(ValueError) as info:
        closure(mats)
    assert str(info.value) == message


# Non-unital d = 5 spec with DFS blocks span{|0>, |1>} (L = 0) and
# span{|2>, |3>} (L = 1); |4> decays into |0>.
_LINKED_JUMP = np.diag([0.0, 0.0, 1.0, 1.0, 0.0]) + np.outer(np.eye(5)[0], np.eye(5)[4])
_LINKED_SPEC = LindbladSpec(np.zeros((5, 5)), (LindbladTerm(1.0, _LINKED_JUMP),))
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
# A unitary with dyadic entries, so that u X u^dag is exact in floats and the
# exact closure sees the linked blocks as linked.
_U = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) @ np.diag([1, 1j])


def _on_blocks(first, second):
    """The Hermitian first (+) second on the two DFS blocks, zero on |4>."""
    m = np.zeros((5, 5), dtype=complex)
    m[:2, :2], m[2:4, 2:4] = first, second
    return m


class TestLinkedBlocks:
    """Goursat's lemma: controls that act alike on two simple blocks, up to
    a unitary or a unitary with complex conjugation, generate one copy of
    su(2) there, not two; block traces add a u(1) each."""

    def test_spec_has_two_non_unital_blocks(self):
        assert not _LINKED_SPEC.is_unital()
        dfs = detect_dfs(_LINKED_SPEC)
        assert block_dims(dfs) == (2, 2)
        # the literal bases span the blocks: each satisfies its block's labels
        for block, basis in zip(dfs, (np.eye(5)[:, :2], np.eye(5)[:, 2:4])):
            assert np.max(np.abs(label_rows(_LINKED_SPEC, block) @ basis)) < 1e-12

    @pytest.mark.parametrize(
        "second, joint, blocks",
        [
            ((_X, _Z), 3, (3, 3)),
            ((_U @ _X @ _U.conj().T, _U @ _Z @ _U.conj().T), 3, (3, 3)),
            ((-_X, -_Z), 3, (3, 3)),
            ((_X, 2 * _Z), 6, (3, 3)),
        ],
        ids=["same", "unitary", "conjugate", "unlinked"],
    )
    def test_linked_blocks_count_once(self, second, joint, blocks):
        x2, z2 = second
        got = dfs_lie_dimension(_LINKED_SPEC, [_on_blocks(_X, x2), _on_blocks(_Z, z2)])
        assert got == (joint, blocks)

    def test_block_traces_add_a_center(self):
        eye = np.eye(2)
        got = dfs_lie_dimension(_LINKED_SPEC, [_on_blocks(_X, _X), _on_blocks(_Z + eye, _Z + eye)])
        assert got == (4, (4, 4))  # u(2) on each block, one u(2) jointly


# The float reference the exact closure's dimension is compared against: a
# modified Gram-Schmidt closure at tolerance 1e-6 on the 2d^2 embedding of
# complex matrices (real and imaginary part of every entry), and the verdict
# that checks every su(d) generator for membership after a rank test. That
# verdict is computed without the codimension-1 lemma, so comparing it with
# the dimension's (su(d) at d^2 - 1, u(d) at d^2) tests the lemma.


def _embed(mats: np.ndarray) -> np.ndarray:
    flat = mats.reshape(mats.shape[0], -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


@dataclass(frozen=True)
class OracleBasis:
    """HS-orthonormal matrices spanning the reference closure."""

    space_dim: int
    elements: np.ndarray  # (n, d, d)

    @property
    def dim(self) -> int:
        return self.elements.shape[0]


def oracle_closure(generators, tol=1e-6) -> OracleBasis:
    mats = [np.asarray(g, dtype=complex) for g in generators]
    d = mats[0].shape[0]
    cap = d * d
    elements = np.zeros((cap, d, d), dtype=complex)
    rows = np.zeros((cap, 2 * d * d))
    n = 0

    def try_add(row):
        nonlocal n
        if np.linalg.norm(row) < 1e-14:
            return
        for _ in range(2):
            row = row - rows[:n].T @ (rows[:n] @ row)
        norm = np.linalg.norm(row)
        if norm <= tol:
            return
        rows[n] = row / norm
        elements[n] = (rows[n][: d * d] + 1j * rows[n][d * d :]).reshape(d, d)
        n += 1

    for m in mats:
        try_add(_embed((1j * m)[None])[0])
    i = 1
    while i < n:
        x = elements[i]
        earlier = elements[:i]
        block = _embed(x[None] @ earlier - earlier @ x[None])
        n0 = n
        block -= (block @ rows[:n0].T) @ rows[:n0]
        for c in block:
            if np.linalg.norm(c) > 0.5 * tol:
                try_add(c)
            if n >= cap:
                return OracleBasis(d, elements[:n].copy())
        i += 1
    return OracleBasis(d, elements[:n].copy())


def oracle_residual(basis: OracleBasis, matrix: np.ndarray) -> float:
    rows = _embed(basis.elements)
    row = _embed(matrix[None])[0]
    return float(np.linalg.norm(row - rows.T @ (rows @ row)))


def _su_generators(d):
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            yield 1j * sym
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k], asym[k, j] = 1.0, -1.0
            yield asym
    for j in range(d - 1):
        diag = np.zeros((d, d), dtype=complex)
        diag[j, j], diag[j + 1, j + 1] = 1.0, -1.0
        yield 1j * diag


def oracle_verdict(basis: OracleBasis, tol=1e-7) -> tuple[int, bool, bool]:
    """(dim, contains su(d), equals u(d)) of the reference closure."""
    if not basis.dim:
        return 0, False, False
    d = basis.space_dim
    traces = np.trace(basis.elements, axis1=1, axis2=2)
    traceless = basis.elements - (traces[:, None, None] / d) * np.eye(d)
    contains_su = np.linalg.matrix_rank(_embed(traceless), tol=1e-9) >= d * d - 1
    if contains_su:
        contains_su = all(
            oracle_residual(basis, g / np.linalg.norm(g)) < tol for g in _su_generators(d)
        )
    return basis.dim, bool(contains_su), basis.dim == d * d


def float_generator_sets(desc):
    """The controls, then the float generator sets of the closures
    ``dfs_lie_dimension`` makes exactly, in its order: each DFS block's
    compressions B^dag H B, with B a float span read from the block's
    labels, and the joint set unless a single block is reused (P(H)
    for a unital dissipator, from the dense oracle up to d = 16 and from
    the closed form sigma_m . sigma_m+1 / 3 for the larger chains;
    otherwise the block-diagonal sums); zero generators dropped."""
    diss = desc.spec.dissipative_part()
    dfs = detect_dfs(diss)
    spans = [dfs_span(diss, block) for block in dfs]
    blocks = [[b.conj().T @ h @ b for h in desc.controls] for b in spans]
    sets = [list(desc.controls), *blocks]
    if diss.terms and diss.is_unital():
        if len(diss.hamiltonian) <= 16:
            sets.append([dense_superprojection(diss, h) for h in desc.controls])
        else:
            sets.append([b / 3 for b in heisenberg_bonds(desc.params["n_qubits"])])
    elif len(blocks) > 1:
        sets.append([scipy.linalg.block_diag(*parts) for parts in zip(*blocks)])
    sets = [[h for h in s if np.max(np.abs(h)) > 1e-12] for s in sets]
    assert all(sets)
    return sets


def exact_closures(desc, monkeypatch):
    """Every closure that ``lie_dimension`` of the controls and then
    ``dfs_lie_dimension`` make, as (d, generators_at, dim): the arguments
    of ``lie._exact_dimension`` and what it returned."""
    closures = []
    real_dimension = lie._exact_dimension

    def recording_dimension(d, generators_at, *rest):
        closures.append((d, generators_at, real_dimension(d, generators_at, *rest)))
        return closures[-1][2]

    with monkeypatch.context() as m:
        m.setattr(lie, "_exact_dimension", recording_dimension)
        lie.lie_dimension(desc.controls)
        dfs_lie_dimension(desc.spec, desc.controls)
    return closures


def closed_generator_sets(desc, monkeypatch):
    """The controls, then every float generator set whose closure
    ``dfs_lie_dimension`` makes exactly, each with its exact dimension."""
    dims = [dim for _, _, dim in exact_closures(desc, monkeypatch)]
    sets = float_generator_sets(desc)
    assert len(sets) == len(dims)
    return list(zip(sets, dims))


# Atom sizes at which the 2d^2 reference lets Hermitian rounding noise into
# its span: an element accepted with a Hermitian part near 1e-6 seeds
# commutators whose Hermitian parts grow to order one, the cap d^2 is
# reached with directions outside u(d), and the oracle's verdict reads
# contains su(d) False beside equals u(d) True. These sizes are compared in
# their own test.
REFERENCE_LEAKS = (13, 15, 17, 19)

MODELS_UP_TO_16 = [
    ("two-qubit-amp", {}),
    ("two-qubit-dephasing", {}),
    *[("n-level-atom", {"n_levels": n}) for n in range(2, 16) if n not in REFERENCE_LEAKS],
    ("ising-chain", {"n_qubits": 3}),
    ("ising-chain", {"n_qubits": 4}),
]

# Every set dfs_lie_dimension closes exactly, up to the 20-level atom.
FLOAT_CASES = [
    *MODELS_UP_TO_16,
    *[("n-level-atom", {"n_levels": n}) for n in (16, 18, 20)],
    ("ising-chain", {"n_qubits": 5}),  # the joint closure of P(H), dim 40
]


def assert_matches_oracle(generators, dim):
    reference = oracle_closure(generators)
    d = reference.space_dim
    assert dim == reference.dim
    assert (dim, dim >= d * d - 1, dim == d * d) == oracle_verdict(reference)


class TestExactAgainstOracle:
    @pytest.mark.parametrize("name, params", FLOAT_CASES, ids=[f"{m}-{p}" for m, p in FLOAT_CASES])
    def test_registered_models(self, name, params, monkeypatch):
        for generators, dim in closed_generator_sets(build_model(name, **params), monkeypatch):
            assert_matches_oracle(generators, dim)

    def test_table1_n6(self, monkeypatch):
        desc = build_model("ising-chain", n_qubits=6)
        for generators, dim in closed_generator_sets(desc, monkeypatch):
            assert_matches_oracle(generators, dim)
        assert dim == 129  # the last pair is P(H)'s

    @pytest.mark.parametrize("n_levels", REFERENCE_LEAKS)
    def test_atom_sizes_where_the_reference_leaks(self, n_levels, monkeypatch):
        desc = build_model("n-level-atom", n_levels=n_levels)
        (controls, dim), (block, block_dim) = closed_generator_sets(desc, monkeypatch)
        assert_matches_oracle(controls, dim)
        reference = oracle_closure(block)
        full = n_levels * n_levels
        assert block_dim == full  # u(n_levels)
        assert reference.dim == full
        elements = reference.elements
        hermitian = np.linalg.norm(elements + elements.conj().swapaxes(1, 2), axis=(1, 2)) / 2
        assert hermitian.max() > 0.5
        assert oracle_verdict(reference) == (full, False, True)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 5),
        st.integers(1, 3),
        st.sampled_from(["generic", "traceless", "diagonal", "block"]),
        st.integers(0, 2**32 - 1),
    )
    def test_random_integer_hermitian_sets(self, d, count, structure, seed):
        # integer entries make the exact path's input exact
        g = np.random.default_rng(seed)
        mats = [integer_hermitian(d, g) for _ in range(count)]
        if structure == "traceless":
            for m in mats:
                m[-1, -1] -= np.trace(m)
        elif structure == "diagonal":
            mats = [np.diag(np.diag(m)) for m in mats]
        elif structure == "block":  # first level apart from the rest
            apart = np.not_equal.outer(np.arange(d) == 0, np.arange(d) == 0)
            mats = [np.where(apart, 0, m) for m in mats]
        assert_matches_oracle(mats, lie_dimension(mats))


# Every registered model up to the 20-level atom and the Table I chain at
# N = 6, the sizes the oracle leaks at included.
PRIME_CASES = [
    *FLOAT_CASES,
    *[("n-level-atom", {"n_levels": n}) for n in REFERENCE_LEAKS],
    ("ising-chain", {"n_qubits": 6}),
]


class TestEachPrime:
    """A first prime that reaches the structural bound proves the dimension,
    and the second prime's images are then never closed: a fault in them
    would change no printed number. On every registered model each prime
    alone reaches the reported dimension."""

    @pytest.mark.parametrize("name, params", PRIME_CASES, ids=[f"{m}-{p}" for m, p in PRIME_CASES])
    def test_registered_models(self, name, params, monkeypatch):
        for d, generators_at, dim in exact_closures(build_model(name, **params), monkeypatch):
            for p in exact.PRIMES:
                gens = [g for g in generators_at(p) if g.any()]
                assert exact.closure_dimension(gens, exact.field(p)) == dim, (d, p)
