import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenoforge import exact
from zenoforge.lindblad import (
    LindbladSpec,
    LindbladTerm,
    detect_dfs,
    dissipator_matrix,
    hamiltonian_superop,
    steady_superprojector,
    unvec,
    vec,
)
from zenoforge.lie import dfs_lie_dimension
from zenoforge.models import build_model
from zenoforge.ops import expm, lowering_on, pauli_on
from zenoforge.zeno import (
    strong_damping_error,
    zeno_product,
)

from conftest import (
    dense_superprojection,
    dfs_span,
    integer_hermitian,
    label_rows,
    proven_superprojection,
    random_hermitian,
    random_unitary,
)

H0 = pauli_on(2, 0, "x") @ (pauli_on(2, 1, "x") + pauli_on(2, 1, "z"))
H1 = pauli_on(2, 0, "y") @ (pauli_on(2, 1, "x") - pauli_on(2, 1, "z"))
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, 1j], [-1j, 0]], dtype=complex)


def amp_spec(gamma=1.0, hamiltonian=None):
    h = hamiltonian if hamiltonian is not None else np.zeros((4, 4))
    return LindbladSpec(h, (LindbladTerm(gamma, lowering_on(2, 1)),))


def deph_spec(gamma=1.0):
    return LindbladSpec(np.zeros((4, 4)), (LindbladTerm(gamma, pauli_on(2, 1, "z")),))


def atom_spec(n_levels, gammas):
    eye = np.eye(n_levels + 1)
    terms = tuple(
        LindbladTerm(g, np.outer(eye[:, j], eye[:, n_levels]))
        for j, g in enumerate(gammas)
    )
    return LindbladSpec(np.zeros((n_levels + 1, n_levels + 1)), terms)


def compress_superop(mat, basis):
    """Block compression: S[(a,b),(c,e)] = <B_a| S(|B_c><B_e|) |B_b>."""
    d, k = basis.shape
    out = np.zeros((k * k, k * k), dtype=complex)
    for c in range(k):
        for e in range(k):
            x = np.outer(basis[:, c], basis[:, e].conj())
            y = unvec(mat @ vec(x), d)
            out[:, c * k + e] = (basis.conj().T @ y @ basis).reshape(-1)
    return out


AMP_BASIS = np.eye(4)[:, [0, 2]]  # |00>, |10>: qubit 2 in its ground state


def compress(h, spec, basis):
    """B^dag H B on the single DFS block of ``spec``, after checking that the
    literal basis B spans it: as many columns as the block's dimension, each
    satisfying the block's labels."""
    (block,) = detect_dfs(spec)
    assert basis.shape[1] == block.dim
    assert np.max(np.abs(label_rows(spec, block) @ basis)) < 1e-10
    return basis.conj().T @ h @ basis


class TestProjectHamiltonian:
    def test_amp_damping_drift_projects_to_minus_sx(self):
        assert np.allclose(compress(H0, amp_spec(), AMP_BASIS), -SX, atol=1e-10)

    def test_amp_damping_control_projects_to_plus_sy(self):
        assert np.allclose(compress(H1, amp_spec(), AMP_BASIS), SY, atol=1e-10)

    def test_atom_projections(self):
        n = 4
        spec = atom_spec(n, (1.0,) * n)
        eye = np.eye(n + 1)
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
        stable = eye[:, :n]
        hop = compress(drift, spec, stable)
        expected_hop = sum(
            np.outer(np.eye(n)[:, j], np.eye(n)[:, j + 1])
            + np.outer(np.eye(n)[:, j + 1], np.eye(n)[:, j])
            for j in range(n - 1)
        )
        assert np.allclose(hop, expected_hop, atol=1e-10)
        pinned = compress(control, spec, stable)
        assert np.allclose(pinned, np.diag([1.0] + [0.0] * (n - 1)), atol=1e-10)


class TestSuperprojectHamiltonian:
    """P(H) from the minimal polynomial that ``exact.superproject`` proves."""

    def test_dephasing_values(self):
        out0 = proven_superprojection(deph_spec(), H0)
        out1 = proven_superprojection(deph_spec(), H1)
        assert np.allclose(out0, pauli_on(2, 0, "x") @ pauli_on(2, 1, "z"), atol=1e-10)
        assert np.allclose(out1, -(pauli_on(2, 0, "y") @ pauli_on(2, 1, "z")), atol=1e-10)

    def test_identity_is_fixed(self):
        assert np.allclose(proven_superprojection(deph_spec(), np.eye(4)), np.eye(4))

    def test_nonunital_rejected(self, monkeypatch):
        # a non-unital dissipator never reaches P(H): its joint closure is
        # the single DFS block's
        def refuse(hs, jumps):
            raise AssertionError("P(H) taken under a non-unital dissipator")

        monkeypatch.setattr(exact, "superproject", refuse)
        assert dfs_lie_dimension(amp_spec(), [H0, H1]) == (3, (3,))

    def test_nonhermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            dfs_lie_dimension(deph_spec(), [np.triu(np.ones((4, 4)))])

    def test_unital_abelian_matches_block_sum(self):
        # P(H) = sum_i P_i H P_i for the Abelian dephasing interaction algebra
        spans = [dfs_span(deph_spec(), b) for b in detect_dfs(deph_spec())]
        projectors = [b @ b.conj().T for b in spans]
        for h in (H0, H1):
            lhs = proven_superprojection(deph_spec(), h)
            rhs = sum(p @ h @ p for p in projectors)
            assert np.max(np.abs(lhs - rhs)) < 1e-8


def random_unital_spec(d, kind, count, degenerate, g):
    """Jump operators that make the dissipator unital: Hermitian, normal,
    random unitaries, or a non-normal L paired with L^dag at equal rates.

    Hermitian and normal spectra sit on a jittered grid, at least 0.6
    apart: both P(H) paths lose about eps * |C| / gap digits to the
    spectral gap of C, so near-degenerate levels would measure that
    conditioning rather than the method. Unitary mixtures and pairs keep
    no gap, so a test bound that the gap affects must scale with it.
    ``degenerate`` draws every eigenvalue from two levels, so the commutant
    is larger than the scalars."""

    def spectrum(imag):
        levels = g.permutation(d) + g.uniform(-0.2, 0.2, d)
        if imag:
            levels = levels + 1j * (g.permutation(d) + g.uniform(-0.2, 0.2, d))
        return g.choice(levels[:2], d) if degenerate else levels

    terms = []
    for _ in range(count):
        rate = g.uniform(0.2, 2.0)
        if kind in ("hermitian", "normal"):
            u = random_unitary(d, g)
            ops = [u @ np.diag(spectrum(kind == "normal")) @ u.conj().T]
        elif kind == "unitary-mixture":
            ops = [random_unitary(d, g)]
        else:  # pair
            l = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
            ops = [l, l.conj().T]
        terms += [LindbladTerm(rate, m) for m in ops]
    return LindbladSpec(np.zeros((d, d)), tuple(terms))


class TestSuperprojectAgainstDense:
    @pytest.mark.parametrize(
        "name, size",
        [
            ("two-qubit-dephasing", {}),
            ("ising-chain", {"n_qubits": 3}),
            ("ising-chain", {"n_qubits": 4}),
        ],
    )
    def test_registered_unital_models(self, name, size):
        # every registered unital model up to d = 16: the proven nu, applied
        # in floats, against the dense oracle
        desc = build_model(name, **size)
        diss = desc.spec.dissipative_part()
        for h in (*desc.controls, np.eye(len(desc.spec.hamiltonian))):
            out = proven_superprojection(diss, h)
            assert np.max(np.abs(out - dense_superprojection(diss, h))) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 5),
        st.sampled_from(["hermitian", "normal", "unitary-mixture", "pair"]),
        st.integers(1, 3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    # a pair whose generator has an eigenvalue of -2.4e-4 against max|lambda|
    # = 5.38: P(1) misses 1 by 1.6e-12
    @example(d=2, kind="pair", count=1, degenerate=False, seed=1118)
    # L close to c 1: the generator is rounding noise, whose eigenvalues a
    # cut relative to max|lambda| alone would find nonzero and not attractive
    @example(d=2, kind="hermitian", count=1, degenerate=True, seed=2)
    def test_random_unital_specs(self, d, kind, count, degenerate, seed):
        # the dense oracle's P(H) under random float jumps, whose exact nu
        # has thousands of bits: idempotent, in the commutant of
        # {Lj, Lj^dag}, fixing the identity, and covariant
        g = np.random.default_rng(seed)
        spec = random_unital_spec(d, kind, count, degenerate, g)
        assert spec.is_unital()
        # a pair draw keeps no spectral gap, and the dense path loses about
        # eps max|lambda| / gap to the smallest nonzero |lambda| of the generator
        spectrum = np.abs(np.linalg.eigvals(dissipator_matrix(spec)))
        gaps = spectrum[spectrum > 1e-9 * spectrum.max()]
        loss = np.finfo(float).eps * spectrum.max() / gaps.min() if gaps.size else 0.0
        h = random_hermitian(d, g)
        out = dense_superprojection(spec, h)
        again = dense_superprojection(spec, out)
        assert np.max(np.abs(again - out)) < 1e-10
        for t in spec.terms:
            for l in (t.op, t.op.conj().T):
                assert np.max(np.abs(l @ out - out @ l)) < 1e-10
        fixed = dense_superprojection(spec, np.eye(d))
        assert np.max(np.abs(fixed - np.eye(d))) < max(1e-12, 10 * loss)
        # covariant: P_{U.U^dag}(U H U^dag) = U P(H) U^dag
        u = random_unitary(d, g)
        turned = LindbladSpec(
            np.zeros((d, d)),
            tuple(LindbladTerm(t.rate, u @ t.op @ u.conj().T) for t in spec.terms),
        )
        lhs = dense_superprojection(turned, u @ h @ u.conj().T)
        assert np.max(np.abs(lhs - u @ out @ u.conj().T)) < 1e-10

    def test_small_gap_against_exact(self, rng):
        # One Hermitian L: the commutant is the diagonal in L's eigenbasis.
        # Levels 1 and 1.125 give C the eigenvalue 1/64 against 16, which a
        # float cut must tell from 0; the exact P(H) is the closed form. U,
        # Hadamard/2 beside a 1 with its rows permuted, is orthogonal and
        # dyadic, so L and the closed form are exact in floats.
        hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
        u = scipy.linalg.block_diag(hadamard, 1.0)[rng.permutation(5)]
        l = u @ np.diag([0.0, 1.0, 1.125, 2.5, -1.5]) @ u.T
        assert np.array_equal(u @ u.T, np.eye(5))
        for _ in range(5):
            h = integer_hermitian(5, rng) / 4
            closed = u @ np.diag(np.diag(u.T @ h @ u)) @ u.T
            images, _ = exact.superproject([h], [(1.0, l)])
            for p in exact.PRIMES:
                assert not ((images[p][0] - exact.field(p).map(closed)) % p).any()


class TestZenoProduct:
    def test_zero_generator_returns_projector(self):
        p = steady_superprojector(amp_spec())
        out = zeno_product(p, np.zeros((16, 16)), 1.0, 7)
        assert np.max(np.abs(out - p)) < 1e-12

    def test_error_decreases_monotonically(self):
        # oracle: direct dense computation of both sides
        p = steady_superprojector(amp_spec())
        k = hamiltonian_superop(H0)
        target = expm(p @ k @ p) @ p
        errs = [
            np.linalg.norm(zeno_product(p, k, 1.0, n) - target, 2)
            for n in (1, 2, 4, 8, 16, 32, 64, 128, 256)
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        # first-order Trotter-Zeno rate: n * err stays bounded
        assert errs[-1] * 256 < 3.0
        # frozen from the dense oracle run (C/n with C ~ 2.8)
        assert errs[-1] == pytest.approx(1.1006e-2, rel=1e-3)

    def test_matches_projected_unitary_on_dfs_states(self):
        # frozen oracle value: max-entry deviation 3.55e-3 at n=256 (O(1/n) rate)
        basis = AMP_BASIS
        p = steady_superprojector(amp_spec())
        k = hamiltonian_superop(H0)
        u = expm(-1j * compress(H0, amp_spec(), basis))
        zp = zeno_product(p, k, 1.0, 256)
        worst = 0.0
        for i in range(2):
            for j in range(2):
                x = np.outer(basis[:, i], basis[:, j].conj())
                lhs = unvec(zp @ vec(x), 4)
                small = np.outer(np.eye(2)[:, i], np.eye(2)[:, j].conj())
                rhs = basis @ (u @ small @ u.conj().T) @ basis.conj().T
                worst = max(worst, np.max(np.abs(lhs - rhs)))
        assert worst < 4e-3

    def test_invalid_arguments(self):
        p = steady_superprojector(amp_spec())
        k = hamiltonian_superop(H0)
        with pytest.raises(ValueError):
            zeno_product(p, k, 1.0, 0)
        with pytest.raises(ValueError):
            zeno_product(p, k, -1.0, 4)

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_non_finite_time_rejected(self, t):
        p = steady_superprojector(amp_spec())
        with pytest.raises(ValueError, match="finite"):
            zeno_product(p, hamiltonian_superop(H0), t, 4)


class TestEq9BlockIdentity:
    def test_pkp_restricted_is_projected_commutator(self):
        p = steady_superprojector(amp_spec())
        for h in (H0, H1):
            k = hamiltonian_superop(h)
            block = compress_superop(p @ k @ p, AMP_BASIS)
            expected = hamiltonian_superop(compress(h, amp_spec(), AMP_BASIS))
            assert np.max(np.abs(block - expected)) < 1e-8


class TestStrongDampingError:
    def test_zero_coupling_gives_zero(self):
        assert strong_damping_error(amp_spec(1.0, H0), 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_error_halves_when_gamma_doubles(self):
        errs = [
            strong_damping_error(amp_spec(float(g), H0), 1.0, 1.0)
            for g in (10, 20, 40, 80)
        ]
        for a, b in zip(errs, errs[1:]):
            assert 2 / 1.5 < a / b < 2 * 1.5

    def test_gamma_100_magnitude(self):
        # frozen from the dense oracle evaluation
        err = strong_damping_error(amp_spec(100.0, H0), 1.0, 1.0)
        assert err == pytest.approx(0.0580525, rel=1e-4)
        assert err < 0.07

    def test_non_attractive_rejected(self):
        spec = LindbladSpec(H0)  # no dissipation at all
        with pytest.raises(ValueError):
            strong_damping_error(spec, 1.0, 1.0)

    @pytest.mark.parametrize("jump", [np.eye(4), np.zeros((4, 4))], ids=["identity", "zero"])
    def test_vanishing_dissipator_rejected(self, jump):
        # a positive rate whose jump operator gives D = 0 relaxes nothing either
        spec = LindbladSpec(H0, (LindbladTerm(1.0, jump),))
        with pytest.raises(ValueError, match="nothing relaxes"):
            strong_damping_error(spec, 1.0, 1.0)
