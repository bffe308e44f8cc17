import numpy as np
import pytest

from zenoforge.ops import HilbertSpace, Operator, expm, lowering_on, pauli_on, qubits, zero

from conftest import as_op, raising_on, random_hermitian


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
        x, y = pauli_on(s, 0, "x"), pauli_on(s, 0, "y")
        assert np.allclose((x @ y - y @ x).matrix, 2j * pauli_on(s, 0, "z").matrix)

    @pytest.mark.parametrize("a", ["x", "y", "z"])
    @pytest.mark.parametrize("b", ["x", "y", "z"])
    def test_distinct_sites_commute(self, a, b):
        s = qubits(3)
        p, q = pauli_on(s, 0, a), pauli_on(s, 2, b)
        assert np.max(np.abs((p @ q - q @ p).matrix)) < 1e-14

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


class TestHsInner:
    def test_pauli_orthogonality(self):
        s = qubits(1)
        x, y = pauli_on(s, 0, "x").matrix, pauli_on(s, 0, "y").matrix
        assert np.trace(x.conj().T @ y) == pytest.approx(0)
        assert np.trace(x.conj().T @ x) == pytest.approx(2)

    def test_dimension_mismatch(self):
        # Operator arithmetic checks the dimensions it combines
        with pytest.raises(ValueError):
            as_op(np.eye(2)) - as_op(np.eye(3))


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


def test_operators_are_immutable():
    op = Operator(qubits(1), np.eye(2))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 7


def test_zero_operator(rng):
    s = qubits(2)
    assert np.max(np.abs(zero(s).matrix)) == 0
    assert np.allclose((zero(s) + Operator(s, np.eye(4))).matrix, np.eye(4))
