import numpy as np
import pytest

from zenoforge.grape import ControlSystem
from zenoforge.lindblad import LindbladSpec, LindbladTerm
from zenoforge.ops import expm, lowering_on, pauli_on

from conftest import raising_on, random_hermitian


class TestPauli:
    def test_basis_convention_z_diagonal(self):
        # |0> carries eigenvalue -1; a flipped convention must fail here.
        sz = pauli_on(2, 0, "z")
        assert np.allclose(np.diag(sz), [-1, -1, +1, +1])

    def test_tensor_factorization(self):
        sx0, sx1 = pauli_on(2, 0, "x"), pauli_on(2, 1, "x")
        xx = np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]))
        assert np.allclose(sx1 @ sx0, xx)

    def test_pauli_algebra_on_site(self):
        x, y = pauli_on(2, 0, "x"), pauli_on(2, 0, "y")
        assert np.allclose(x @ y - y @ x, 2j * pauli_on(2, 0, "z"))

    @pytest.mark.parametrize("a", ["x", "y", "z"])
    @pytest.mark.parametrize("b", ["x", "y", "z"])
    def test_distinct_sites_commute(self, a, b):
        p, q = pauli_on(3, 0, a), pauli_on(3, 2, b)
        assert np.max(np.abs(p @ q - q @ p)) < 1e-14

    def test_site_and_size_guards(self):
        with pytest.raises(ValueError, match="out of range"):
            pauli_on(2, 2, "x")
        with pytest.raises(ValueError, match="out of range"):
            pauli_on(2, -1, "x")
        with pytest.raises(ValueError, match="at least one qubit"):
            pauli_on(0, 0, "z")
        with pytest.raises(ValueError, match="axis"):
            pauli_on(2, 0, "w")

    def test_operators_are_complex_arrays(self):
        for op in (pauli_on(3, 1, "x"), lowering_on(3, 2)):
            assert type(op) is np.ndarray and op.dtype == complex and op.shape == (8, 8)

    def test_lowering_maps_one_to_zero(self):
        lo = lowering_on(1, 0)
        assert np.allclose(lo, [[0, 1], [0, 0]])  # |0><1|
        assert np.allclose(raising_on(1, 0), lo.conj().T)


class TestHsInner:
    def test_pauli_orthogonality(self):
        x, y = pauli_on(1, 0, "x"), pauli_on(1, 0, "y")
        assert np.trace(x.conj().T @ y) == pytest.approx(0)
        assert np.trace(x.conj().T @ x) == pytest.approx(2)


class TestExpm:
    def test_zero_gives_identity(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_pauli_exponential(self):
        sx = pauli_on(1, 0, "x")
        assert np.allclose(expm(1j * np.pi / 2 * sx), 1j * sx, atol=1e-12)

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


def test_stored_operators_are_read_only_copies():
    def build(h, jump, control):
        term = LindbladTerm(1.0, jump)
        spec = LindbladSpec(h, (term,))
        return term, spec, ControlSystem((control,), spec, 1.0)

    def originals():
        return np.diag([1.0, -1.0]), lowering_on(1, 0), pauli_on(1, 0, "x")

    h, jump, control = originals()
    term, spec, system = build(h, jump, control)
    for stored in (spec.hamiltonian, term.op, system.controls[0]):
        with pytest.raises(ValueError, match="read-only"):
            stored[0, 0] = 7
    # the caller's own arrays stay theirs: editing them after construction
    # changes neither the spec nor the generators the system caches
    h[0, 0], jump[0, 1], control[0, 1] = 5.0, 3.0, 2.0
    want_term, want_spec, want_system = build(*originals())
    assert np.array_equal(spec.hamiltonian, want_spec.hamiltonian)
    assert np.array_equal(term.op, want_term.op)
    assert np.array_equal(system.controls[0], want_system.controls[0])
    for got, want in zip(system._generators, want_system._generators):
        assert np.array_equal(got, want)
