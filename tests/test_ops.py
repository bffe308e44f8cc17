import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenoforge.ops import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    commutator,
    expm,
    hs_inner,
    hs_norm,
    identity,
    lowering_on,
    pauli_on,
    qubits,
    tensor,
    zero,
)

from conftest import as_op, raising_on, random_hermitian, random_unitary


class TestHilbertSpace:
    def test_dim_is_product_of_factors(self):
        assert HilbertSpace((2, 3, 4)).dim == 24

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            HilbertSpace(())
        with pytest.raises(ValueError):
            HilbertSpace((2, 0))

    def test_operator_shape_must_match(self):
        with pytest.raises(ValueError):
            Operator(qubits(2), np.eye(3))


class TestPauli:
    def test_basis_convention_z_diagonal(self):
        # |0> carries eigenvalue -1; a flipped convention must fail here.
        sz = pauli_on(qubits(2), 0, "z")
        assert np.allclose(np.diag(sz.matrix), [-1, -1, +1, +1])

    def test_tensor_factorization(self):
        s = qubits(2)
        sx0, sx1 = pauli_on(s, 0, "x"), pauli_on(s, 1, "x")
        xx = np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]))
        assert np.allclose((sx1 @ sx0).matrix, xx)

    def test_pauli_algebra_on_site(self):
        s = qubits(2)
        lhs = commutator(pauli_on(s, 0, "x"), pauli_on(s, 0, "y"))
        assert np.allclose(lhs.matrix, 2j * pauli_on(s, 0, "z").matrix)

    @pytest.mark.parametrize("a", ["x", "y", "z"])
    @pytest.mark.parametrize("b", ["x", "y", "z"])
    def test_distinct_sites_commute(self, a, b):
        s = qubits(3)
        c = commutator(pauli_on(s, 0, a), pauli_on(s, 2, b))
        assert hs_norm(c) < 1e-14

    def test_site_and_dim_guards(self):
        with pytest.raises(ValueError):
            pauli_on(qubits(2), 2, "x")
        with pytest.raises(ValueError):
            pauli_on(HilbertSpace((2, 3)), 1, "z")

    def test_lowering_maps_one_to_zero(self):
        s = qubits(1)
        lo = lowering_on(s, 0)
        assert np.allclose(lo.matrix, [[0, 1], [0, 0]])  # |0><1|
        assert np.allclose(raising_on(s, 0).matrix, lo.matrix.conj().T)


class TestTensor:
    def test_identity_tensor_identity(self):
        one2 = identity(qubits(1))
        assert np.allclose(tensor(one2, one2).matrix, np.eye(4))

    def test_rank_of_sigma_x_tensor_projector(self):
        sx = as_op(np.array([[0, 1], [1, 0]], dtype=complex))
        proj = as_op(np.array([[1, 0], [0, 0]], dtype=complex))
        assert np.linalg.matrix_rank(tensor(sx, proj).matrix) == 2

    def test_mixed_product_rule(self, rng):
        a, b, c, d = (as_op(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) for _ in range(4))
        lhs = tensor(a, b) @ tensor(c, d)
        rhs = tensor(a @ c, b @ d)
        assert np.allclose(lhs.matrix, rhs.matrix)


class TestHsInner:
    def test_pauli_orthogonality(self):
        s = qubits(1)
        assert hs_inner(pauli_on(s, 0, "x"), pauli_on(s, 0, "y")) == pytest.approx(0)
        assert hs_inner(pauli_on(s, 0, "x"), pauli_on(s, 0, "x")) == pytest.approx(2)

    def test_unitary_distance_expansion(self, rng):
        d = 4
        u, v = random_unitary(d, rng), random_unitary(d, rng)
        lhs = hs_norm(as_op(u) - as_op(v)) ** 2
        rhs = 2 * d - 2 * np.real(np.trace(u.conj().T @ v))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_conjugate_symmetry_and_linearity(self, rng):
        a, b, c = (as_op(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) for _ in range(3))
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))
        lhs = hs_inner(a, 1.5 * b + (2 - 1j) * c)
        assert lhs == pytest.approx(1.5 * hs_inner(a, b) + (2 - 1j) * hs_inner(a, c))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hs_inner(as_op(np.eye(2)), as_op(np.eye(3)))


class TestExpm:
    def test_zero_gives_identity(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_pauli_exponential(self):
        sx = pauli_on(qubits(1), 0, "x")
        assert np.allclose(expm(1j * np.pi / 2 * sx).matrix, 1j * sx.matrix, atol=1e-12)

    def test_inverse_product(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.max(np.abs(expm(a) @ expm(-a) - np.eye(5))) < 1e-9

    def test_antihermitian_gives_unitary(self, rng):
        h = random_hermitian(6, rng)
        u = expm(1j * h)
        assert np.max(np.abs(u @ u.conj().T - np.eye(6))) < 1e-9

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            expm(np.array([[np.inf, 0], [0, 0]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_commutator_with_self_vanishes(seed):
    g = np.random.default_rng(seed)
    a = as_op(g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4)))
    assert hs_norm(commutator(a, a)) < 1e-12


class TestDensityMatrix:
    def test_valid_state(self):
        rho = DensityMatrix(qubits(1), np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert rho.trace() == pytest.approx(1)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(qubits(1), np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(qubits(1), np.diag([1.5, -0.5]))

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(qubits(1), np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_operators_are_immutable():
    op = identity(qubits(1))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 7


def test_zero_operator(rng):
    s = qubits(2)
    assert hs_norm(zero(s)) == 0
    assert np.allclose((zero(s) + identity(s)).matrix, np.eye(4))
