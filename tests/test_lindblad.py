import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenoforge.lindblad as lindblad
from zenoforge.lindblad import (
    LindbladSpec,
    LindbladTerm,
    Superoperator,
    conjugation_superop,
    detect_dfs,
    dissipator_matrix,
    dual_generator,
    spec_from_json,
    spec_to_json,
    steady_superprojector,
    unvec,
    vec,
)
from zenoforge.models import build_model, qubit2_reset_superop
from zenoforge.chain import collective_spin
from zenoforge.ops import expm, lowering_on, pauli_on

from conftest import block_dims, dfs_span, random_density, random_hermitian, random_unitary


def brute_force_generator(spec):
    """Independent oracle: apply the defining map to every matrix unit."""
    d = len(spec.hamiltonian)
    h = spec.hamiltonian
    cols = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            out = -1j * (h @ e - e @ h)
            for t in spec.terms:
                l = t.op
                ldl = l.conj().T @ l
                out = out - t.rate * (ldl @ e + e @ ldl - 2 * l @ e @ l.conj().T)
            cols.append(out.reshape(-1))
    return np.array(cols).T


def amp_damping_spec(gamma=1.0):
    return LindbladSpec(np.zeros((4, 4)), (LindbladTerm(gamma, lowering_on(2, 1)),), (2, 2))


def dephasing_spec(gamma=1.0):
    return LindbladSpec(np.zeros((4, 4)), (LindbladTerm(gamma, pauli_on(2, 1, "z")),), (2, 2))


def atom_spec(n_levels, gammas):
    # indices 0..N-1 are the stable levels, index N the unstable one
    eye = np.eye(n_levels + 1)
    terms = tuple(
        LindbladTerm(g, np.outer(eye[:, j], eye[:, n_levels]))
        for j, g in enumerate(gammas)
    )
    return LindbladSpec(np.zeros((n_levels + 1, n_levels + 1)), terms)


def collective_spec(n_qubits, gamma=1.0):
    terms = tuple(LindbladTerm(gamma, collective_spin(n_qubits, axis)) for axis in "xyz")
    return LindbladSpec(np.zeros((2**n_qubits, 2**n_qubits)), terms, (2,) * n_qubits)


class TestDissipatorMatrix:
    def test_matches_matrix_unit_oracle_amp_damping(self):
        spec = amp_damping_spec()
        assert np.allclose(
            dissipator_matrix(spec), brute_force_generator(spec), atol=1e-12
        )

    def test_matches_oracle_with_hamiltonian(self, rng):
        spec = LindbladSpec(
            random_hermitian(4, rng),
            (LindbladTerm(0.7, lowering_on(2, 1)), LindbladTerm(0.3, pauli_on(2, 0, "z"))),
        )
        assert np.allclose(
            dissipator_matrix(spec), brute_force_generator(spec), atol=1e-12
        )

    def test_amp_damping_kernel_multiplicity_four(self):
        w = np.linalg.eigvals(dissipator_matrix(amp_damping_spec()))
        assert int(np.sum(np.abs(w) < 1e-9)) == 4

    def test_empty_spec_gives_zero_matrix(self):
        spec = LindbladSpec(np.zeros((2, 2)))
        assert np.max(np.abs(dissipator_matrix(spec))) == 0

    def test_dephasing_spectrum_is_double_commutator(self):
        spec = dephasing_spec(gamma=1.0)
        mat = dissipator_matrix(spec)
        assert np.allclose(mat, brute_force_generator(spec), atol=1e-12)
        vals = sorted(set(np.round(np.linalg.eigvals(mat).real, 9)))
        assert vals == [-4.0, 0.0]

    def test_annihilates_trace_functional(self):
        # column sums contracted with vec(I) vanish: generator preserves trace
        for spec in (amp_damping_spec(), dephasing_spec(), atom_spec(3, (1, 2, 3))):
            mat = dissipator_matrix(spec)
            tid = vec(np.eye(len(spec.hamiltonian)))
            assert np.max(np.abs(mat.conj().T @ tid)) < 1e-10

    def test_rejects_nonhermitian_hamiltonian(self):
        with pytest.raises(ValueError):
            LindbladSpec(np.array([[0, 1], [0, 0]]))


class TestPropagate:
    @pytest.mark.parametrize("gt", [0.1, 1.0, 5.0])
    def test_two_qubit_amp_damping_closed_form(self, gt):
        gamma = 1.0
        spec = amp_damping_spec(gamma)
        p = np.kron(np.eye(2), np.diag([1.0, 0.0])).astype(complex)
        q = np.kron(np.eye(2), np.diag([0.0, 1.0])).astype(complex)
        l = lowering_on(2, 1)
        a = p + q * np.exp(-gamma * gt)
        analytic = conjugation_superop(a, a) + (
            1 - np.exp(-2 * gamma * gt)
        ) * conjugation_superop(l, l.conj().T)
        assert np.max(np.abs(expm(gt * dissipator_matrix(spec)) - analytic)) < 1e-8

    def test_n_level_atom_closed_form(self):
        gammas = (1.0, 0.7, 1.3)
        spec = atom_spec(3, gammas)
        total = sum(gammas)
        d = 4
        p = np.eye(d, dtype=complex)
        p[3, 3] = 0
        q = np.zeros((d, d), dtype=complex)
        q[3, 3] = 1
        for t in (0.3, 2.0):
            a = p + q * np.exp(-total * t)
            analytic = conjugation_superop(a, a) + (1 / total) * (
                1 - np.exp(-2 * total * t)
            ) * sum(
                g * conjugation_superop(term.op, term.op.conj().T)
                for g, term in zip(gammas, spec.terms)
            )
            assert np.max(np.abs(expm(t * dissipator_matrix(spec)) - analytic)) < 1e-8

    def test_trace_preserving_and_positive_on_random_states(self, rng):
        spec = amp_damping_spec(0.8)
        prop = expm(0.7 * dissipator_matrix(spec))
        tid = vec(np.eye(4))  # trace preserving: S^H vec(1) = vec(1)
        assert np.max(np.abs(prop.conj().T @ tid - tid)) <= 1e-9
        for _ in range(100):
            rho = random_density(4, rng)
            out = unvec(prop @ vec(rho), 4)
            assert abs(np.trace(out) - 1) < 1e-9
            assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-8


class TestSteadySuperprojector:
    def test_amp_damping_closed_form(self):
        spec = amp_damping_spec()
        p = np.kron(np.eye(2), np.diag([1.0, 0.0])).astype(complex)
        l = lowering_on(2, 1)
        analytic = conjugation_superop(p, p) + conjugation_superop(l, l.conj().T)
        assert np.max(np.abs(steady_superprojector(spec) - analytic)) < 1e-9

    def test_dephasing_closed_form(self):
        spec = dephasing_spec()
        p0 = np.kron(np.eye(2), np.diag([1.0, 0.0])).astype(complex)
        p1 = np.kron(np.eye(2), np.diag([0.0, 1.0])).astype(complex)
        analytic = conjugation_superop(p0, p0) + conjugation_superop(p1, p1)
        assert np.max(np.abs(steady_superprojector(spec) - analytic)) < 1e-9

    def test_atom_closed_form(self):
        gammas = (1.0, 0.7, 1.3)
        spec = atom_spec(3, gammas)
        total = sum(gammas)
        p = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex)
        analytic = conjugation_superop(p, p) + (1 / total) * sum(
            g * conjugation_superop(t.op, t.op.conj().T)
            for g, t in zip(gammas, spec.terms)
        )
        assert np.max(np.abs(steady_superprojector(spec) - analytic)) < 1e-9

    @pytest.mark.parametrize("rate", [1e-9, 1e-10, 1e-300, 1e-320])
    @pytest.mark.parametrize("make", [amp_damping_spec, dephasing_spec], ids=["amp", "dephasing"])
    def test_small_rate_gives_the_unit_rate_projector(self, make, rate):
        # P(cL) = P(L): weak relaxation is no zero eigenvalue
        p = steady_superprojector(make(rate))
        assert np.max(np.abs(p - steady_superprojector(make(1.0)))) < 1e-12

    def test_underflowing_dissipator_keeps_its_reset(self):
        # gamma max|L|^2 = 1e-400 is no float, but the dissipator is rate 1's
        # times a positive factor: the reset of qubit 2 is that of rate 1
        scaled = LindbladSpec(
            np.zeros((4, 4)), (LindbladTerm(1e-200, 1e-100 * lowering_on(2, 1)),), (2, 2)
        )
        p = qubit2_reset_superop(scaled)
        assert np.max(np.abs(p - qubit2_reset_superop(amp_damping_spec()))) < 1e-12
        assert np.trace(p).real == pytest.approx(1.0)  # rank 1: one steady state

    @pytest.mark.parametrize("rate, norm", [(1e300, 1e-160), (1e-300, 1e100), (1e-9, 1.0)])
    def test_rate_and_jump_norm_enter_as_gamma_c_squared(self, rate, norm):
        # rate gamma with jump c L is the dissipator of rate gamma c^2 with L
        p = steady_superprojector(
            LindbladSpec(np.zeros((4, 4)), (LindbladTerm(rate, norm * lowering_on(2, 1)),))
        )
        assert np.max(np.abs(p - steady_superprojector(amp_damping_spec()))) < 1e-12

    @pytest.mark.parametrize("scale", [1e-300, 1e-320, 1e100])
    def test_common_scale_of_hamiltonian_and_rates(self, scale):
        # a driven damped qubit beside an idle one: H and the rate scaled together
        p, unit = (
            steady_superprojector(
                LindbladSpec(c * pauli_on(2, 1, "x"), (LindbladTerm(c, lowering_on(2, 1)),))
            )
            for c in (scale, 1.0)
        )
        assert np.max(np.abs(p - unit)) < 1e-12

    def test_idempotent(self):
        for spec in (amp_damping_spec(), dephasing_spec()):
            p = steady_superprojector(spec)
            assert np.max(np.abs(p @ p - p)) < 1e-9

    def test_absorbs_propagation(self):
        spec = amp_damping_spec(1.0)
        p = steady_superprojector(spec)
        for t in (1.0, 10.0):
            e = expm(t * dissipator_matrix(spec))
            assert np.max(np.abs(p @ e - p)) < 1e-8
            assert np.max(np.abs(e @ p - p)) < 1e-8

    def test_propagator_converges_to_projector(self):
        spec = amp_damping_spec(1.0)
        p = steady_superprojector(spec)
        gen = dissipator_matrix(spec)
        errs = [np.max(np.abs(expm(t * gen) - p)) for t in (2.0, 8.0, 20.0)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 1e-8

    def test_rejects_non_attractive_generator(self):
        unitary_only = LindbladSpec(pauli_on(1, 0, "z"))
        with pytest.raises(ValueError, match="attractive|steady"):
            steady_superprojector(unitary_only)

    @pytest.mark.parametrize(
        "generator, message",
        [
            (-np.eye(4), "no steady state"),
            (np.diag([-1.0, -2.0, 0.0, 0.0]) + np.diag([0.0, 0.0, 1.0], 1), "not semisimple"),
        ],
        ids=["no-kernel", "jordan-block"],
    )
    def test_rejects_generator_without_semisimple_kernel(self, monkeypatch, generator, message):
        # no Lindbladian has these spectra: substitute the generator matrix
        monkeypatch.setattr(lindblad, "_generator", lambda coherent, jumps: generator)
        with pytest.raises(ValueError, match=message):
            steady_superprojector(LindbladSpec(np.zeros((2, 2))))

    def test_dfs_states_are_fixed_points(self):
        spec = amp_damping_spec()
        p = steady_superprojector(spec)
        basis = dfs_span(spec, detect_dfs(spec)[0])
        for i in range(basis.shape[1]):
            for j in range(basis.shape[1]):
                x = np.outer(basis[:, i], basis[:, j].conj())
                assert np.max(np.abs(unvec(p @ vec(x), 4) - x)) < 1e-8


class TestDetectDfs:
    def test_amp_damping_single_block(self):
        dfs = detect_dfs(amp_damping_spec())
        assert block_dims(dfs) == (2,)
        block = dfs[0]
        assert block.lindblad_eigenvalues == (0j,)
        assert block.damping_eigenvalue == pytest.approx(0.0, abs=1e-10)
        # spanned by |00> and |10>: rows 1 and 3 (qubit 2 excited) vanish
        assert np.max(np.abs(dfs_span(amp_damping_spec(), block)[[1, 3], :])) < 1e-10

    def test_dephasing_two_blocks(self):
        dfs = detect_dfs(dephasing_spec())
        assert block_dims(dfs) == (2, 2)
        lams = [b.lindblad_eigenvalues[0] for b in dfs]
        assert lams == [pytest.approx(-1), pytest.approx(+1)]
        # first block: qubit 2 in |0> (rows 0 and 2); second: |1> (rows 1, 3)
        first, second = (dfs_span(dephasing_spec(), b) for b in dfs)
        assert np.max(np.abs(first[[1, 3], :])) < 1e-10
        assert np.max(np.abs(second[[0, 2], :])) < 1e-10
        for b in dfs:
            assert b.damping_eigenvalue == pytest.approx(1.0)

    def test_atom_block_spans_stable_levels(self):
        spec = atom_spec(4, (1.0, 1.0, 1.0, 1.0))
        dfs = detect_dfs(spec)
        assert block_dims(dfs) == (4,)
        assert np.max(np.abs(dfs_span(spec, dfs[0])[4, :])) < 1e-10

    def test_projector_properties(self):
        # the two dephasing blocks' label spans split the space orthogonally
        spec = dephasing_spec()
        spans = [dfs_span(spec, b) for b in detect_dfs(spec)]
        p0, p1 = (b @ b.conj().T for b in spans)
        for p in (p0, p1):
            assert np.max(np.abs(p @ p - p)) < 1e-9
            assert np.max(np.abs(p - p.conj().T)) < 1e-9
        assert np.max(np.abs(p0 @ p1)) < 1e-9
        assert np.max(np.abs(p0 + p1 - np.eye(4))) < 1e-9

    def test_depolarizing_qubit_has_no_dfs(self):
        terms = tuple(LindbladTerm(1.0, pauli_on(1, 0, a)) for a in "xyz")
        dfs = detect_dfs(LindbladSpec(np.zeros((2, 2)), terms))
        assert dfs == ()

    def test_no_terms_whole_space(self):
        dfs = detect_dfs(LindbladSpec(np.zeros((2, 2))))
        assert block_dims(dfs) == (2,)

    def test_zero_rate_term_whole_space(self):
        dfs = detect_dfs(LindbladSpec(np.zeros((2, 2)), (LindbladTerm(0.0, lowering_on(1, 0)),)))
        assert block_dims(dfs) == (2,)
        block = dfs[0]
        assert block.lindblad_eigenvalues == ()
        assert block.damping_eigenvalue == 0.0

    @pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6])
    def test_near_miss_kernel_keeps_exact_dfs(self, eps):
        # span{|0>} is an exact DFS. ker L2 = span{|0>, |1> + eps|2>} is
        # tilted by eps away from ker L1 = span{|0>, |1>}.
        w = np.array([0.0, -eps, 1.0]) / np.sqrt(1.0 + eps**2)
        l1 = np.diag([0.0, 0.0, 1.0])
        l2 = np.outer(np.eye(3)[2], w)
        spec = LindbladSpec(np.zeros((3, 3)), (LindbladTerm(1.0, l1), LindbladTerm(1.0, l2)))
        dfs = detect_dfs(spec)
        assert block_dims(dfs) == (1,)
        assert np.allclose(np.abs(dfs_span(spec, dfs[0])[:, 0]), [1.0, 0.0, 0.0], atol=1e-10)

    def test_hamiltonian_is_ignored(self, rng):
        spec = LindbladSpec(
            random_hermitian(4, rng),
            (LindbladTerm(1.0, lowering_on(2, 1)),),
        )
        assert block_dims(detect_dfs(spec)) == (2,)

    @pytest.mark.parametrize("rate", [1.0, 1e-9, 1e-300, 1e12, 1e-310])
    def test_damping_check_scales_with_the_rate(self, rate):
        # L = [[1, 1], [0, 0]]: c = 0 on |0> - |1> is a DFS; c = 1 on |0> is
        # not, since G|0> = rate (|0> + |1>), a residual as small as the rate
        jump = np.array([[1.0, 1.0], [0.0, 0.0]])
        spec = LindbladSpec(np.zeros((2, 2)), (LindbladTerm(rate, jump),))
        dfs = detect_dfs(spec)
        assert block_dims(dfs) == (1,)
        assert abs(dfs[0].lindblad_eigenvalues[0]) < 1e-12
        basis = dfs_span(spec, dfs[0])
        assert np.allclose(np.abs(basis[:, 0]), [2**-0.5, 2**-0.5], atol=1e-10)

    @pytest.mark.parametrize("diag, dims", [(0.0, (1,)), (1.0, ())])
    def test_damping_check_scales_with_the_jump_norm(self, diag, dims):
        # 1e-5 L at rate 1e10 is the dissipator of L at rate 1: G is the same,
        # so the residual (G - b)|0> = |1> must not be cut as small
        jump = 1e-5 * np.array([[1.0, 1.0], [0.0, diag]])
        spec = LindbladSpec(np.zeros((2, 2)), (LindbladTerm(1e10, jump),))
        assert block_dims(detect_dfs(spec)) == dims

    def test_huge_rate_with_tiny_jump_gives_the_unit_blocks(self):
        # gamma = 1e300 with 1e-160 sigma-: G / gamma is subnormal, which a
        # scaling by the largest rate would overflow on division
        spec = LindbladSpec(np.zeros((4, 4)), (LindbladTerm(1e300, 1e-160 * lowering_on(2, 1)),))
        assert detect_dfs(spec) == detect_dfs(amp_damping_spec(1e-20))
        assert detect_dfs(spec) == (lindblad.DFSBlock(2, (0j,), 0.0),)

    @pytest.mark.parametrize(
        "scale, rate", [(1e-9, 1.0), (1e-9, 1e18), (1e-5, 1e10), (1e5, 1.0)]
    )
    def test_jump_scale_keeps_the_dfs(self, scale, rate):
        # scale L at any rate: |0> - |1> stays decoherence-free, with c = b = 0
        jump = scale * np.array([[1.0, 1.0], [0.0, 0.0]])
        dfs = detect_dfs(LindbladSpec(np.zeros((2, 2)), (LindbladTerm(rate, jump),)))
        assert block_dims(dfs) == (1,)
        assert dfs[0].lindblad_eigenvalues == (0j,)
        assert dfs[0].damping_eigenvalue == 0.0

    @pytest.mark.parametrize("gamma", [1.0, 1e6, 1e8, 1e10, 1.1e12])
    def test_common_rate_keeps_the_chain_block(self, gamma):
        # G's rounding grows with the rates; from 1e8 on it exceeds an absolute cut
        desc = build_model("ising-chain", n_qubits=4, gammas=(gamma,) * 3)
        dfs = detect_dfs(desc.spec.dissipative_part())
        assert block_dims(dfs) == (2,)
        assert dfs[0].damping_eigenvalue == pytest.approx(0.0, abs=1e-8 * gamma)


# Registered models with d <= 32 and their frozen DFS block dimensions.
FROZEN_DFS = [
    (("two-qubit-amp", {}), (2,)),
    (("two-qubit-dephasing", {}), (2, 2)),
    (("ising-chain", {"n_qubits": 3}), ()),
    (("ising-chain", {"n_qubits": 4}), (2,)),
    (("ising-chain", {"n_qubits": 5}), ()),
    (("ising-chain", {"n_qubits": 5, "gammas": (0.0, 0.0, 1.0)}), (1, 5, 10, 10, 5, 1)),
    (("n-level-atom", {"n_levels": 3}), (3,)),
    (("n-level-atom", {"n_levels": 8}), (8,)),
    (("n-level-atom", {"n_levels": 20}), (20,)),
]


class TestDetectDfsProperties:
    @pytest.mark.parametrize(
        "model, dims", FROZEN_DFS, ids=[f"{n}-{p}" for (n, p), _ in FROZEN_DFS]
    )
    def test_registered_models(self, model, dims):
        name, params = model
        spec = build_model(name, **params).spec
        dfs = detect_dfs(spec)
        assert block_dims(dfs) == dims
        gen = dissipator_matrix(spec.dissipative_part())
        for block in dfs:
            # every |psi_i><psi_j| inside one block is a steady state
            b = dfs_span(spec, block)
            units = np.einsum("ai,bj->ijab", b, b.conj()).reshape(-1, b.shape[0] ** 2)
            assert np.max(np.abs(gen @ units.T)) < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([m for m, _ in FROZEN_DFS if m[1].get("n_qubits", 0) < 5]),
        st.integers(0, 2**32 - 1),
    )
    def test_unitary_covariance(self, model, seed):
        name, params = model
        spec = build_model(name, **params).spec
        d = len(spec.hamiltonian)
        u = random_unitary(d, np.random.default_rng(seed))
        rotated = LindbladSpec(
            spec.hamiltonian,
            tuple(
                LindbladTerm(t.rate, u @ t.op @ u.conj().T)
                for t in spec.terms
            ),
        )
        before = detect_dfs(spec)
        after = detect_dfs(rotated)
        assert len(after) == len(before)
        for p, q in zip(before, after):
            b, c = u @ dfs_span(spec, p), dfs_span(rotated, q)
            assert np.max(np.abs(b @ b.conj().T - c @ c.conj().T)) < 1e-8


class TestSuperprojectorProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_projects_onto_fixed_points(self, d, n_jumps, seed, dissipative):
        # generic H and jump operators: a non-self-adjoint, attractive
        # generator; with all rates zero it is unitary and not attractive
        rng = np.random.default_rng(seed)
        terms = tuple(
            LindbladTerm(
                float(rng.uniform(0.2, 2.0)) if dissipative else 0.0,
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
            )
            for _ in range(n_jumps)
        )
        spec = LindbladSpec(random_hermitian(d, rng), terms)
        try:
            p = steady_superprojector(spec)
        except ValueError:
            p = None
        assert (p is not None) == dissipative
        if p is None:
            return
        e = expm(dissipator_matrix(spec))
        assert np.max(np.abs(p @ p - p)) < 1e-8
        assert np.max(np.abs(p @ e - p)) < 1e-8
        assert np.max(np.abs(e @ p - p)) < 1e-8


class TestDualGenerator:
    def test_pairing_identity(self, rng):
        spec = LindbladSpec(
            random_hermitian(4, rng),
            (LindbladTerm(0.9, lowering_on(2, 1)),),
        )
        primal = dissipator_matrix(spec)
        dual = dual_generator(spec)
        for _ in range(5):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            lhs = np.trace(unvec(dual @ vec(a), 4).conj().T @ rho)
            rhs = np.trace(a.conj().T @ unvec(primal @ vec(rho), 4))
            assert abs(lhs - rhs) < 1e-10

    def test_collective_decoherence_self_dual(self):
        spec = collective_spec(3)
        assert np.max(
            np.abs(dual_generator(spec) - dissipator_matrix(spec))
        ) < 1e-12

    def test_dual_annihilates_identity(self):
        for spec in (amp_damping_spec(), dephasing_spec()):
            dual = dual_generator(spec)
            assert np.max(np.abs(dual @ vec(np.eye(len(spec.hamiltonian))))) < 1e-12


class TestUnitality:
    def test_collective_is_unital(self):
        mat = dissipator_matrix(collective_spec(3))
        assert np.max(np.abs(mat @ vec(np.eye(8)))) < 1e-10

    def test_amp_damping_is_not_unital(self):
        mat = dissipator_matrix(amp_damping_spec())
        assert np.max(np.abs(mat @ vec(np.eye(4)))) > 0.1

    def test_is_unital_cases(self, rng):
        mixture = LindbladSpec(
            np.zeros((3, 3)),
            tuple(LindbladTerm(r, random_unitary(3, rng)) for r in (0.3, 1.7)),
        )
        jump = np.triu(rng.standard_normal((3, 3)), 1) + np.eye(3)  # not normal

        def pair(rate_adj):
            return LindbladSpec(np.zeros((3, 3)), (
                LindbladTerm(0.8, jump),
                LindbladTerm(rate_adj, jump.conj().T),
            ))

        unital = (collective_spec(3), dephasing_spec(), dephasing_spec(1e-300), mixture, pair(0.8))
        for spec in unital:
            assert spec.is_unital()
        # D(1) is linear in the rates: no absolute floor makes a small rate unital
        small = [
            spec
            for r in (1e-10, 1e-300)
            for spec in (amp_damping_spec(r), atom_spec(3, (r,) * 3))
        ]
        for spec in (amp_damping_spec(), pair(0.5), *small):
            assert not spec.is_unital()


class TestJsonRoundTrip:
    def test_round_trip(self):
        spec = atom_spec(3, (1.0, 0.5, 0.25))
        again = spec_from_json(spec_to_json(spec))
        assert again.dims == spec.dims
        assert np.allclose(again.hamiltonian, spec.hamiltonian)
        assert len(again.terms) == 3
        for a, b in zip(again.terms, spec.terms):
            assert a.rate == b.rate
            assert np.allclose(a.op, b.op)

    def test_schema_fields(self):
        import json

        doc = json.loads(spec_to_json(amp_damping_spec(2.0)))
        assert doc["dims"] == [2, 2]
        assert doc["terms"][0]["rate"] == 2.0
        assert isinstance(doc["hamiltonian"][0][0], list)


class TestSpecDims:
    def test_default_is_one_factor(self):
        assert LindbladSpec(np.zeros((6, 6))).dims == (6,)
        assert amp_damping_spec().dims == (2, 2)

    @pytest.mark.parametrize(
        "dims", [(2, 3), (), (4, 0), (-2, -2), (2.0, 2.0), (True, 4)],
        ids=["wrong-product", "empty", "zero", "negative", "floats", "bool"],
    )
    def test_rejects_dims_that_do_not_factor_d(self, dims):
        with pytest.raises(ValueError, match="must be positive integers whose product is 4"):
            LindbladSpec(np.zeros((4, 4)), (), dims)

    def test_dissipative_part_keeps_the_dims(self):
        spec = LindbladSpec(pauli_on(2, 0, "x"), amp_damping_spec().terms, (2, 2))
        part = spec.dissipative_part()
        assert part.dims == (2, 2) and not part.hamiltonian.any()


class TestSuperoperatorType:
    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (4,), (0, 0)])
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(ValueError, match="d\\^2 x d\\^2"):
            Superoperator(np.ones(shape))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            LindbladTerm(-1.0, pauli_on(1, 0, "x"))

    def test_infinite_rate_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            LindbladTerm(np.inf, pauli_on(1, 0, "x"))

    @pytest.mark.parametrize(
        "rates, scale",
        [((1e308,), 1.0), ((1e307,) * 3, 1.0), ((1.0,), 1e200), ((1.0,), np.nan)],
        ids=["one-rate", "summed-rates", "large-operator", "nan-operator"],
    )
    def test_overflowing_rate_rejected_without_warning(self, rates, scale):
        terms = tuple(LindbladTerm(r, lowering_on(2, k % 2) * scale) for k, r in enumerate(rates))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = re.escape(f"rate {rates[-1]:g} ") + ".*non-finite"
            with pytest.raises(ValueError, match=message):
                LindbladSpec(np.zeros((4, 4)), terms)

    def test_largest_finite_rate_accepted(self):
        # d = 4: the bound is 10 gamma max|L|^2
        spec = LindbladSpec(np.zeros((4, 4)), (LindbladTerm(1e307, lowering_on(2, 1)),))
        assert np.isfinite(dissipator_matrix(spec)).all()
