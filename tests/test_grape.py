import concurrent.futures
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from zenoforge import blas, grape
from zenoforge.channels import (
    choi,
    epsilon2,
    gate_error_report,
    reduced_error,
    superop_tensor,
    unitary_superop,
)
from zenoforge.grape import (
    ControlSystem,
    Eps1Target,
    Eps2Target,
    gamma_sweep,
    objective_and_gradient,
    optimize,
    propagate_schedule,
    random_schedule,
)
from zenoforge.lindblad import (
    LindbladSpec,
    LindbladTerm,
    dissipator_matrix,
    hamiltonian_superop,
    vec,
)
from zenoforge.models import HADAMARD, build_model, qubit2_reset_superop
from zenoforge.ops import hermitian, lowering_on, pauli_on

SRC = str(Path(grape.__file__).resolve().parents[1])
H0 = pauli_on(2, 0, "x") @ (pauli_on(2, 1, "x") + pauli_on(2, 1, "z"))
H1 = pauli_on(2, 0, "y") @ (pauli_on(2, 1, "x") - pauli_on(2, 1, "z"))


def two_qubit_system(gamma):
    spec = LindbladSpec(np.zeros((4, 4)), (LindbladTerm(gamma, lowering_on(2, 1)),))
    return ControlSystem((H0, H1), spec, 1.0)


def eps1_target():
    etilde = qubit2_reset_superop(build_model("two-qubit-amp").spec)
    goal = superop_tensor(unitary_superop(HADAMARD), 2, etilde, 2)
    return Eps1Target(goal, HADAMARD)


def forward_mode_kernel(system, schedule, target):
    """The former gradient kernel, kept as a test oracle: the dense slice
    exponentials and one expm_frechet per (slice, control), contracted as
    suffix @ dE @ prefix. Returns (E_T, gradient)."""
    base = dissipator_matrix(system.spec)
    controls = [hamiltonian_superop(c) for c in system.controls]
    amps = np.asarray(schedule, dtype=float)
    m, n = amps.shape
    dt = system.total_time / n
    dim = base.shape[0]
    props = np.empty((n, dim, dim), dtype=complex)
    derivs = np.empty((m, n, dim, dim), dtype=complex)
    for k in range(n):
        gen = dt * (base + sum(f * km for f, km in zip(amps[:, k], controls)))
        props[k] = scipy.linalg.expm(gen)
        for l in range(m):
            derivs[l, k] = scipy.linalg.expm_frechet(gen, dt * controls[l])[1]
    prefix = np.empty_like(props)
    suffix = np.empty_like(props)
    acc = np.eye(dim, dtype=complex)
    for k in range(n):
        prefix[k] = acc
        acc = props[k] @ acc
    e_total = acc
    acc = np.eye(dim, dtype=complex)
    for k in range(n - 1, -1, -1):
        suffix[k] = acc
        acc = acc @ props[k]
    _, cograd = target.value_and_cograd(e_total)
    grad = np.empty((m, n))
    for k in range(n):
        for l in range(m):
            grad[l, k] = np.real(np.sum(cograd * (suffix[k] @ derivs[l, k] @ prefix[k])))
    return e_total, grad


def complex_adjoint_kernel(system, schedule, target):
    """The former complex adjoint-mode kernel, kept as a test oracle: dense
    slice exponentials in the vec basis, a backward costate sweep and one
    adjoint expm_frechet per slice. Returns (E_T, gradient)."""
    base = dissipator_matrix(system.spec)
    controls = np.stack([hamiltonian_superop(c) for c in system.controls])
    n = schedule.shape[1]
    dt = system.total_time / n
    gens = dt * (base + sum(f[:, None, None] * km for f, km in zip(schedule, controls)))
    props = scipy.linalg.expm(gens)
    prefix = np.empty_like(props)
    e_total = np.eye(base.shape[0], dtype=complex)
    for k, prop in enumerate(props):
        prefix[k] = e_total
        e_total = prop @ e_total
    _, cograd = target.value_and_cograd(e_total)
    adjoints = np.empty_like(props)
    costate = cograd
    for k in range(n - 1, -1, -1):
        w = costate @ prefix[k].T
        adjoints[k] = scipy.linalg.expm_frechet(gens[k].conj().T, w.conj(), compute_expm=False)
        costate = props[k].T @ costate
    grad = np.tensordot(controls, adjoints.conj(), axes=([1, 2], [1, 2]))
    return e_total, dt * grad.real


def van_loan_frechet(a, e):
    """The former adjoint kernel, kept as a test oracle: L(A_k, E_k) is the
    upper-right block of expm([[A_k, E_k], [0, A_k]]) (Van Loan, IEEE TAC 23,
    395 (1978)), all slices in one batched scipy expm."""
    n, m, _ = a.shape
    blocks = np.zeros((n, 2 * m, 2 * m))
    blocks[:, :m, :m] = blocks[:, m:, m:] = a
    blocks[:, :m, m:] = e
    return scipy.linalg.expm(blocks)[:, :m, m:]


def relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


# a third control for the three-control cases
CONTROL_POOL = (H0, H1, pauli_on(2, 0, "z") @ pauli_on(2, 1, "x"))


def model_system(name, gamma, n_controls):
    if name == "no-terms":
        spec = LindbladSpec(np.zeros((4, 4)))
    else:
        spec = build_model(name, gamma=gamma).spec
    return ControlSystem(CONTROL_POOL[:n_controls], spec, 1.0)


def assert_gradients_agree(got, want):
    """|got - want| <= 1e-10 max(1, max|want|): relative, with an absolute
    floor for gradients that vanish up to roundoff."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


class TestPropagateSchedule:
    def test_zero_everything_gives_identity(self):
        system = ControlSystem((H0,), LindbladSpec(np.zeros((4, 4))), 1.0)
        sched = np.zeros((1, 5))
        assert np.allclose(propagate_schedule(system, sched).matrix, np.eye(16))

    def test_single_slice_matches_direct_exponential(self):
        from zenoforge.ops import expm

        system = ControlSystem((H0,), LindbladSpec(np.zeros((4, 4))), 1.0)
        sched = np.array([[0.7]])
        direct = expm(0.7 * hamiltonian_superop(H0))
        assert np.max(np.abs(propagate_schedule(system, sched).matrix - direct)) < 1e-12

    def test_piecewise_constant_consistency(self, rng):
        system = two_qubit_system(0.5)
        amps = rng.uniform(-1, 1, (2, 1))
        one = propagate_schedule(system, amps)
        four = propagate_schedule(system, np.repeat(amps, 4, axis=1))
        assert np.max(np.abs(one.matrix - four.matrix)) < 1e-12

    def test_cptp_for_random_schedules(self, rng):
        system = two_qubit_system(1.3)
        for _ in range(5):
            sched = random_schedule(system, 8, rng)
            prop = propagate_schedule(system, sched).matrix
            tid = vec(np.eye(4))
            assert np.max(np.abs(prop.conj().T @ tid - tid)) <= 1e-9
            assert np.linalg.eigvalsh(choi(prop)).min() >= -1e-8

    def test_rejects_bad_shapes_and_nonfinite(self):
        system = two_qubit_system(1.0)
        with pytest.raises(ValueError, match="schedule has 3 control rows, system has 2"):
            propagate_schedule(system, np.zeros((3, 4)))
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            propagate_schedule(system, np.array([[np.nan, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "schedule",
        [np.zeros((2, 3, 4)), [[0.1, 0.2], [0.3]], np.zeros((2, 3)) + 1j],
        ids=["3-d", "ragged", "complex"],
    )
    def test_rejects_non_real_or_high_rank_amplitudes(self, schedule):
        # numpy would fail later with its own message, or drop the imaginary part
        with pytest.raises(ValueError, match="^amplitudes must be a real array of rank at most 2$"):
            propagate_schedule(two_qubit_system(1.0), schedule)

    def test_rejects_schedule_without_slices(self):
        with pytest.raises(ValueError, match="a pulse schedule needs at least one slice"):
            propagate_schedule(two_qubit_system(1.0), np.zeros((2, 0)))

    def test_one_row_is_one_control(self):
        system = ControlSystem((H0,), two_qubit_system(1.0).spec, 1.0)
        row = [0.3, -0.2, 0.5]
        assert np.array_equal(
            propagate_schedule(system, row).matrix, propagate_schedule(system, [row]).matrix
        )

    @pytest.mark.parametrize("total_time", [0.5, 2.0])
    def test_slices_last_the_systems_time_over_their_number(self, rng, total_time):
        # the dense expm product with dt = T / n, at a T other than 1
        system = ControlSystem((H0, H1), two_qubit_system(1.5).spec, total_time)
        base = dissipator_matrix(system.spec)
        k0, k1 = (hamiltonian_superop(c) for c in (H0, H1))
        sched = rng.uniform(-2, 2, (2, 6))
        want = np.eye(16, dtype=complex)
        for f0, f1 in sched.T:
            want = scipy.linalg.expm(total_time / 6 * (base + f0 * k0 + f1 * k1)) @ want
        assert np.max(np.abs(propagate_schedule(system, sched).matrix - want)) <= 1e-13

    def test_rejects_overflowing_map(self):
        system = two_qubit_system(1.0)
        with pytest.raises(ValueError, match="not finite"):
            propagate_schedule(system, [[1e308, 0, 0], [0, 0, 0]])

    def test_overflowing_generator_reports_nonfinite_map(self):
        # the overflowed generator must reach the finiteness check, not be
        # mistaken for a non-Hermitian one; LindbladSpec rejects an
        # overflowing rate, so the overflow comes from a control
        spec = LindbladSpec(np.zeros((4, 4)), (LindbladTerm(1.0, lowering_on(2, 1)),))
        with np.errstate(all="ignore"):
            system = ControlSystem((H0, 1e308 * pauli_on(2, 0, "z")), spec, 1.0)
            with pytest.raises(ValueError, match="not finite"):
                propagate_schedule(system, np.zeros((2, 3)))

    def test_matches_dense_slice_product(self, rng):
        for name in ("two-qubit-amp", "two-qubit-dephasing", "no-terms"):
            system = model_system(name, 2.0, 3)
            sched = rng.uniform(-5, 5, (3, 7))
            want, _ = forward_mode_kernel(system, sched, Eps2Target(HADAMARD))
            assert np.max(np.abs(propagate_schedule(system, sched).matrix - want)) <= 1e-13


class TestHermitianBasis:
    @staticmethod
    def random_system(d, rng):
        """Random Hamiltonian and jumps (Hermitian, generic non-Hermitian and
        nilpotent non-normal), with one to three random Hermitian controls."""
        ginibre = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        jumps = (random_hermitian(d, rng), ginibre, np.triu(ginibre, 1))
        terms = tuple(
            LindbladTerm(rate, jump)
            for rate, jump in zip(rng.uniform(0.0, 3.0, 3), jumps)
        )
        spec = LindbladSpec(random_hermitian(d, rng), terms)
        controls = tuple(
            random_hermitian(d, rng) for _ in range(rng.integers(1, 4))
        )
        return ControlSystem(controls, spec, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_generators_are_real_and_products_agree(self, d, seed):
        rng = np.random.default_rng(seed)
        system = self.random_system(d, rng)
        basis, base, controls = system._generators
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(d * d))) <= 1e-14
        supers = [dissipator_matrix(system.spec)]
        supers += [hamiltonian_superop(c) for c in system.controls]
        for real, superop in zip([base, *controls], supers):
            rotated = basis.conj().T @ superop @ basis
            assert np.max(np.abs(rotated.imag)) <= 1e-12 * np.max(np.abs(rotated))
            assert real.dtype == float and np.array_equal(real, rotated.real)
        sched = rng.uniform(-3, 3, (system.n_controls, 6))
        want = np.eye(d * d, dtype=complex)
        dt = system.total_time / 6
        for k in range(6):
            gen = supers[0] + sum(f * km for f, km in zip(sched[:, k], supers[1:]))
            want = scipy.linalg.expm(dt * gen) @ want
        assert np.max(np.abs(propagate_schedule(system, sched).matrix - want)) <= 1e-12

    def test_kernel_arrays_are_real(self, rng):
        system = two_qubit_system(1.0)
        sched = rng.uniform(-1, 1, (2, 4))
        gens, tape, prefix, _ = grape._forward(system, sched)
        assert gens.dtype == tape.work.dtype == prefix.dtype == float
        assert objective_and_gradient(system, sched, Eps2Target(HADAMARD))[1].dtype == float

    def test_control_within_tolerance_propagates_as_its_hermitian_part(self):
        skew = H0 + 1e-11 * np.triu(np.ones((4, 4)), 1)
        spec, sched = two_qubit_system(1.0).spec, [[0.5]]
        maps = [
            propagate_schedule(ControlSystem((c,), spec, 1.0), sched).matrix
            for c in (skew, hermitian(skew, "control 0"))
        ]
        assert np.array_equal(*maps)

    def test_control_beyond_tolerance_rejected_by_name(self):
        skew = H0 + 1e-9 * np.max(np.abs(H0)) * np.triu(np.ones((4, 4)), 1)
        with pytest.raises(ValueError, match="control 0 .*Hermitian"):
            ControlSystem((skew,), two_qubit_system(1.0).spec, 1.0)


def expm_and_frechet(a, e):
    """exp(A_k) from the forward kernel and L(A_k, E_k) from the Frechet pass
    over its tape."""
    tape = grape._expm_stack(a)
    return tape.exp, grape._frechet_stack(tape, e)


class TestExpmStack:
    """grape._expm_stack and grape._frechet_stack against scipy.linalg.expm
    and the Van Loan block.

    The kernel scales by 2^-s, with s the smallest s >= 0 that brings
    alpha = max(|A^2|^(1/2), |A^3|^(1/3)) down to theta_18. The stacks are
    scaled to alpha = ratio * theta_18: 0.5 gives s = 0, 1 sits at the edge
    of the unscaled range, 2 gives s = 1, 96 and 1000 give s = 7 and 10.

    Over 10^4 draws of the two random tests, the worst relative error was
    105 u max(1, ratio) for exp and 79 u max(1, ratio) for L (u = 2^-53),
    both on the skew stacks at ratio 96 and 1000, where the oracles are the
    less accurate side; the tolerance is 400 u max(1, ratio). The error of
    the exponential grows with its norm, hence the factor."""

    @staticmethod
    def scaled(stack, ratio):
        square = stack @ stack
        alpha = max(
            np.abs(square).sum(axis=-2).max() ** 0.5,
            np.abs(square @ stack).sum(axis=-2).max() ** (1 / 3),
        )
        return stack * (ratio * grape._THETA18 / alpha)

    @staticmethod
    def assert_matches_oracles(a, e, ratio):
        tol = 400 * 2.0**-53 * max(1.0, ratio)
        exp, frechet = expm_and_frechet(a, e)
        assert relative_error(exp, scipy.linalg.expm(a)) <= tol
        assert relative_error(frechet, van_loan_frechet(a, e)) <= tol

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 20),
        st.sampled_from([4, 9, 16, 36]),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_random_stacks(self, n, m, ratio, seed):
        rng = np.random.default_rng(seed)
        a = self.scaled(rng.standard_normal((n, m, m)), ratio)
        self.assert_matches_oracles(a, rng.standard_normal((n, m, m)), ratio)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 20),
        st.sampled_from([4, 9, 16, 36]),
        st.sampled_from([96.0, 1000.0]),
        st.sampled_from(["skew", "negative"]),
        st.integers(0, 2**32 - 1),
    )
    def test_many_squarings(self, n, m, ratio, kind, seed):
        # normal stacks, like the coherent (skew) and dissipative (negative
        # semidefinite) parts of a generator: well-conditioned exponentials,
        # so that the oracles stay accurate at large norms
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, m, m))
        a = g - g.transpose(0, 2, 1) if kind == "skew" else -g @ g.transpose(0, 2, 1)
        self.assert_matches_oracles(self.scaled(a, ratio), rng.standard_normal((n, m, m)), ratio)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 20),
        st.sampled_from([4, 9, 16, 36]),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_adjoint_is_transposed_pass(self, n, m, ratio, seed):
        # the gradient's L(A^T, W) = L(A, W^T)^T, from the tape of A
        rng = np.random.default_rng(seed)
        a = self.scaled(rng.standard_normal((n, m, m)), ratio)
        w = rng.standard_normal((n, m, m))
        tape = grape._expm_stack(a)
        got = grape._frechet_stack(tape, w.transpose(0, 2, 1)).transpose(0, 2, 1)
        want = van_loan_frechet(a.transpose(0, 2, 1), w)
        assert relative_error(got, want) <= 400 * 2.0**-53 * max(1.0, ratio)

    def test_diagonal_stack_at_theta(self):
        # exp of a diagonal is exact to an ulp: the truncation error of T18
        # at the edge alpha = theta_18 must stay at the rounding level
        lam = grape._THETA18 * np.array([-1.0, -0.5, 0.5, 1.0])
        exp = grape._expm_stack(np.diag(lam)[None]).exp[0]
        assert relative_error(exp, np.diag(np.exp(lam))) <= 8 * 2.0**-53

    def test_zero_stack(self, rng):
        e = rng.standard_normal((3, 4, 4))
        exp, frechet = expm_and_frechet(np.zeros((3, 4, 4)), e)
        assert np.array_equal(exp, np.broadcast_to(np.eye(4), (3, 4, 4)))
        assert relative_error(frechet, e) <= 2.0**-52  # L(0, E) = E

    @pytest.mark.parametrize("m", [4, 9, 16])
    @pytest.mark.parametrize("c", [0.5, 50.0])
    def test_nilpotent_and_jordan_blocks(self, rng, m, c):
        # for the nilpotent N = c (superdiagonal), exp(lam I + N) and
        # L(lam I + N, E) are e^lam times the finite series exp(N) =
        # sum_k N^k / k! and L(N, E) = sum_k sum_(j<k) N^j E N^(k-1-j) / k!;
        # lam = 0 is the nilpotent block. Against these closed forms the
        # kernel's worst error over 300 draws of E per case was 3.6e-15 (exp)
        # and 1.1e-14 (L).
        powers = [np.linalg.matrix_power(c * np.eye(m, k=1), k) for k in range(m)]
        lams = np.array([0.0, -3.0, 2.0])
        a = lams[:, None, None] * np.eye(m) + powers[1]
        e = rng.standard_normal(a.shape)
        scale = np.exp(lams)[:, None, None]
        exp_n = sum(p / math.factorial(k) for k, p in enumerate(powers))
        frechet_n = sum(
            powers[j] @ e @ powers[k - 1 - j] / math.factorial(k)
            for k in range(1, 2 * m)
            for j in range(max(0, k - m), min(k, m))
        )
        exp, frechet = expm_and_frechet(a, e)
        assert relative_error(exp, scale * exp_n) <= 4e-14
        assert relative_error(frechet, scale * frechet_n) <= 4e-14

    @pytest.mark.parametrize("entry", [np.inf, np.nan, 1e200])
    def test_nonfinite_stack_or_overflowing_cube_is_nan(self, entry):
        a = np.zeros((2, 4, 4))
        a[1, 2, 2] = entry
        exp, frechet = expm_and_frechet(a, np.ones_like(a))
        assert np.isnan(exp).all() and np.isnan(frechet).all()

    def test_overflowing_exponential_is_not_finite(self):
        a = np.zeros((1, 4, 4))
        a[0, 2, 2] = 1e17  # e^(1e17) overflows in the squarings
        exp, frechet = expm_and_frechet(a, np.ones_like(a))
        assert not np.isfinite(exp).all() and not np.isfinite(frechet).all()

    def test_strong_damping_after_many_squarings(self):
        # s = 67: the damped direction underflows to 0, the others stay exact
        a = np.zeros((1, 4, 4))
        a[0, 2, 2] = -1e20
        tape = grape._expm_stack(a)
        assert tape.s == 67
        assert np.array_equal(tape.exp[0], np.diag([1.0, 1.0, 0.0, 1.0]))


def assert_matches_central_differences(system, target, rng):
    step = 1e-6
    for _ in range(3):
        sched = rng.uniform(-1, 1, (2, 5))
        _, grad = objective_and_gradient(system, sched, target)
        for l in range(2):
            for k in range(5):
                up = sched.copy()
                up[l, k] += step
                down = sched.copy()
                down[l, k] -= step
                vp, _ = objective_and_gradient(system, up, target)
                vm, _ = objective_and_gradient(system, down, target)
                fd = (vp - vm) / (2 * step)
                assert grad[l, k] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestGradients:
    @pytest.mark.parametrize("make_target", [eps1_target, lambda: Eps2Target(HADAMARD)])
    def test_matches_central_finite_differences(self, rng, make_target):
        assert_matches_central_differences(two_qubit_system(1.0), make_target(), rng)

    @pytest.mark.parametrize("make_target", [eps1_target, lambda: Eps2Target(HADAMARD)],
                             ids=["eps1", "eps2"])
    @pytest.mark.parametrize("total_time", [0.5, 2.0])
    def test_matches_central_differences_at_other_total_times(
        self, rng, total_time, make_target
    ):
        system = ControlSystem((H0, H1), two_qubit_system(1.0).spec, total_time)
        assert_matches_central_differences(system, make_target(), rng)

    @pytest.mark.parametrize("make_target", [eps1_target, lambda: Eps2Target(HADAMARD)],
                             ids=["eps1", "eps2"])
    @pytest.mark.parametrize(
        "name, gamma",
        [(name, gamma) for name in ("two-qubit-amp", "two-qubit-dephasing")
         for gamma in (0.0, 1e-8, 1.0, 100.0)] + [("no-terms", None)],
    )
    def test_matches_forward_mode_kernel(self, rng, name, gamma, make_target):
        target = make_target()
        for n_controls in (1, 2, 3):
            system = model_system(name, gamma, n_controls)
            for n_slices in (1, 5, 20):
                for scale in (1.0, 30.0):
                    sched = rng.uniform(-scale, scale, (n_controls, n_slices))
                    got = objective_and_gradient(system, sched, target)[1]
                    for oracle in (forward_mode_kernel, complex_adjoint_kernel):
                        assert_gradients_agree(got, oracle(system, sched, target)[1])

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["two-qubit-amp", "two-qubit-dephasing", "no-terms"]),
        st.floats(0.0, 100.0),
        st.integers(1, 3),
        st.integers(1, 20),
        st.floats(0.0, 30.0),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_forward_mode_kernel_on_random_schedules(
        self, name, gamma, n_controls, n_slices, scale, use_eps1, seed
    ):
        system = model_system(name, gamma, n_controls)
        sched = np.random.default_rng(seed).uniform(-scale, scale, (n_controls, n_slices))
        target = eps1_target() if use_eps1 else Eps2Target(HADAMARD)
        got = objective_and_gradient(system, sched, target)[1]
        for oracle in (forward_mode_kernel, complex_adjoint_kernel):
            assert_gradients_agree(got, oracle(system, sched, target)[1])

    def test_overflowing_probe_gives_nan_without_raising(self):
        # L-BFGS line searches may probe such points; the optimizer backs off
        system = two_qubit_system(1.0)
        sched = [[1e50, 0, 0], [0, 0, 0]]
        value, grad = objective_and_gradient(system, sched, Eps2Target(HADAMARD))
        assert np.isnan(value) and grad.shape == (2, 3) and np.all(np.isnan(grad))

    def test_gradient_vanishes_at_global_minimum(self, rng):
        system = two_qubit_system(1.0)
        sched = rng.uniform(-1, 1, (2, 6))
        reached = propagate_schedule(system, sched).matrix
        value, grad = objective_and_gradient(system, sched, Eps1Target(reached))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(grad)) < 1e-8


class TestSharedForwardPass:
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 100.0])
    def test_value_is_the_error_of_the_propagated_map(self, rng, gamma):
        system = two_qubit_system(gamma)
        sched = rng.uniform(-3, 3, (2, 7))
        e_total = propagate_schedule(system, sched).matrix
        value, _ = objective_and_gradient(system, sched, Eps2Target(HADAMARD))
        assert abs(value - epsilon2(e_total, HADAMARD)) <= 1e-14
        target = eps1_target()
        value, _ = objective_and_gradient(system, sched, target)
        assert abs(value - np.linalg.norm(e_total - target.goal) ** 2) <= 1e-14

    def test_dissipator_built_once_per_system(self, rng, monkeypatch):
        calls = []
        original = grape.dissipator_matrix

        def counting(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(grape, "dissipator_matrix", counting)
        systems = [two_qubit_system(1.0), two_qubit_system(100.0)]
        for system in systems:
            result = optimize(system, Eps2Target(HADAMARD), restarts=2, seed=4,
                              n_slices=5, max_iterations=30)
            assert result.n_evaluations > 2
            propagate_schedule(system, result.best_schedule)
            propagate_schedule(system, random_schedule(system, 5, rng))
        assert len(calls) == 2
        assert all(call is system.spec for call, system in zip(calls, systems))

    def test_systems_do_not_share_generators(self, rng):
        sched = rng.uniform(-1, 1, (2, 5))
        weak = two_qubit_system(1.0)
        weak_map = propagate_schedule(weak, sched).matrix
        strong = two_qubit_system(100.0)
        strong_map = propagate_schedule(strong, sched).matrix
        assert np.array_equal(propagate_schedule(weak, sched).matrix, weak_map)
        assert np.max(np.abs(weak_map - strong_map)) > 0.1
        for system, got in ((weak, weak_map), (strong, strong_map)):
            want, _ = forward_mode_kernel(system, sched, Eps2Target(HADAMARD))
            assert np.max(np.abs(got - want)) <= 1e-13


# A fresh process: 200 evaluations on the sweep-amp system (two-qubit-amp,
# gamma 1, 20 slices) at amplitudes whose slice exponentials take s = 4
# squarings; prints the minor page faults per evaluation.
PAGE_FAULT_SCRIPT = """
import resource
import numpy as np
from zenoforge import grape
from zenoforge.grape import ControlSystem, Eps2Target, objective_and_gradient
from zenoforge.models import HADAMARD, build_model

desc = build_model("two-qubit-amp", gamma=1.0)
system = ControlSystem(desc.controls, desc.spec, 1.0)
target = Eps2Target(HADAMARD)
rng = np.random.default_rng(0)
schedules = [rng.uniform(-40.0, 40.0, (2, 20)) for _ in range(10)]
assert {grape._expm_stack(grape._forward(system, s)[0]).s for s in schedules} == {4}
for sched in schedules:
    objective_and_gradient(system, sched, target)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for k in range(200):
    objective_and_gradient(system, schedules[k % 10], target)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 200)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="glibc's heap trimming is what this guards"
)
def test_evaluations_reuse_their_heap():
    """An evaluation allocates its tape once. Held in a dozen separate
    arrays, the tape makes glibc trim and regrow the heap on every call: a
    copy built that way took 268 minor page faults per evaluation on Linux
    x86-64 with glibc, against 0.005 with one allocation."""
    pytest.importorskip("resource")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PAGE_FAULT_SCRIPT], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) <= 20


class TestOptimize:
    def test_deterministic_given_seed(self):
        system = two_qubit_system(10.0)
        a = optimize(system, Eps2Target(HADAMARD), restarts=2, seed=11, n_slices=6, max_iterations=60)
        b = optimize(system, Eps2Target(HADAMARD), restarts=2, seed=11, n_slices=6, max_iterations=60)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_schedule, b.best_schedule)

    def test_best_value_is_min_over_restarts(self):
        system = two_qubit_system(10.0)
        target = Eps2Target(HADAMARD)
        result = optimize(system, target, restarts=3, seed=5, n_slices=6, max_iterations=40)
        runs = [grape._restart(system, target, 5, r, 6, 40) for r in range(3)]
        best = min(runs, key=lambda run: run.best_value)
        assert result.best_value == best.best_value
        assert np.array_equal(result.best_schedule, best.best_schedule)
        assert result.n_evaluations == sum(run.n_evaluations for run in runs)
        assert result.iterations == sum(run.iterations for run in runs)

    def test_dissipation_free_system_has_error_floor(self):
        # commuting controls: dim L = 2, Hadamard out of reach without noise
        system = two_qubit_system(0.0)
        result = optimize(system, Eps2Target(HADAMARD), restarts=3, seed=7, n_slices=8, max_iterations=150)
        assert result.best_value > 0.05

    def test_requires_restarts(self):
        with pytest.raises(ValueError):
            optimize(two_qubit_system(1.0), Eps2Target(HADAMARD), restarts=0)

    @pytest.mark.parametrize(
        "kwargs, message", [({"n_slices": 0}, "slice"), ({"n_slices": -2}, "slice"),
                            ({"seed": -1}, "seed")]
    )
    def test_rejects_bad_slices_and_seed(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            optimize(two_qubit_system(1.0), Eps2Target(HADAMARD), restarts=1, **kwargs)


BLAS = blas.thread_controls()
needs_openblas = pytest.mark.skipif(
    not BLAS, reason="no OpenBLAS is loaded in this process, so there is no thread count to cap"
)


def blas_counts():
    return [getter() for _, getter in BLAS]


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS at 2 threads for the test, whatever the machine's default."""
    before = blas_counts()
    for setter, _ in BLAS:
        setter(2)
    yield
    for (setter, _), count in zip(BLAS, before):
        setter(count)


@needs_openblas
class TestOneBlasThread:
    def test_every_library_reads_one_thread_inside(self, two_blas_threads):
        with blas.one_thread():
            assert blas_counts() == [1] * len(BLAS)

    def test_previous_counts_come_back(self, two_blas_threads):
        with blas.one_thread():
            pass
        assert blas_counts() == [2] * len(BLAS)
        with pytest.raises(RuntimeError, match="body"):
            with blas.one_thread():
                raise RuntimeError("body")
        assert blas_counts() == [2] * len(BLAS)

    def test_nothing_found_is_a_no_op(self, two_blas_threads, monkeypatch):
        monkeypatch.setattr(blas, "thread_controls", lambda: ())
        with blas.one_thread():
            assert blas_counts() == [2] * len(BLAS)


# A fresh process, started with two threads in every OpenBLAS, that checks
# inside every evaluation of an optimizer restart that each OpenBLAS then
# mapped (scipy's too, which loads with the restart) reads one thread, by a
# scan of its own. PREAMBLE runs before the restart.
RESTART_SCAN_SCRIPT = """
from zenoforge import blas, grape
from zenoforge.grape import ControlSystem, Eps2Target, optimize
from zenoforge.models import HADAMARD, build_model


def mapped_counts():
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line})
    return {path: [getter() for _, getter in blas._controls_of(path)] for path in paths}


PREAMBLE
seen = []
evaluate = grape.objective_and_gradient


def recording(*args):
    seen.append(mapped_counts())
    return evaluate(*args)


grape.objective_and_gradient = recording
desc = build_model("two-qubit-amp")
optimize(ControlSystem(desc.controls, desc.spec, 1.0), Eps2Target(HADAMARD), restarts=1,
         n_slices=4)
assert seen and all(c == [1] for counts in seen for c in counts.values()), seen
assert all(c == [2] for c in mapped_counts().values()), mapped_counts()
"""
# an exact Lie closure, which caps BLAS threads too, before scipy is imported
CLOSURE_FIRST = """
import sys
from zenoforge.lie import lie_dimension
from zenoforge.ops import PAULI
assert lie_dimension([PAULI["x"], PAULI["y"]]) == 3
assert "scipy" not in sys.modules
"""


def run_restart_scan(preamble):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    script = RESTART_SCAN_SCRIPT.replace("PREAMBLE", preamble)
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr


needs_maps = pytest.mark.skipif(
    not Path("/proc/self/maps").exists(), reason="no /proc/self/maps to scan"
)


@needs_maps
def test_blas_scan_in_a_restart_sees_scipys_openblas():
    """scipy's OpenBLAS is mapped only once scipy is imported, so a restart
    imports scipy.optimize before its scan."""
    run_restart_scan("")


@needs_maps
def test_blas_scan_after_a_closure_sees_scipys_openblas():
    """A scan made by an earlier closure, before scipy was loaded, must not
    stand in for the restart's own."""
    run_restart_scan(CLOSURE_FIRST)


@needs_maps
def test_blas_scan_is_kept_until_a_module_is_imported(monkeypatch):
    """A second entry with no new import does not read the maps again; an
    import, which may map another OpenBLAS, does."""
    first = blas.thread_controls()
    reads = []
    monkeypatch.setattr(blas, "open", lambda *a: reads.append(a) or open(*a), raising=False)
    assert blas.thread_controls() == first
    assert reads == []
    monkeypatch.setitem(sys.modules, "zenoforge_scan_probe", sys.modules["zenoforge.blas"])
    assert blas.thread_controls() == first
    assert reads == [("/proc/self/maps",)]


CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
# a script that runs a small sweep through the CLI, with no entry-point guard
SWEEP_SCRIPT = (
    "import sys\nfrom zenoforge.cli import main\n"
    'sys.exit(main(["sweep", "--gammas", "1,2", "--restarts", "1", "--slices", "3"]))'
)


@pytest.fixture
def pools(monkeypatch):
    """The process pools that gamma_sweep opens during the test."""
    made = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return made


class TestGammaSweep:
    def test_rows_equal_in_process_optimize(self, pools):
        target = Eps2Target(HADAMARD)
        rows = gamma_sweep(two_qubit_system, [1.0, 20.0], target, restarts=2, seed=9, n_slices=6)
        assert len(pools) == (CORES > 1)  # 4 jobs: a pool whenever there are two cores
        for row, gamma in zip(rows, [1.0, 20.0]):
            system = two_qubit_system(gamma)
            result = optimize(system, target, restarts=2, seed=9, n_slices=6)
            assert row.best_eps == result.best_value
            assert row.iterations == result.iterations
            e_total = propagate_schedule(system, result.best_schedule)
            assert row.reduced_error == reduced_error(e_total, HADAMARD)

    def test_no_worker_outlives_the_sweep(self, pools):
        gamma_sweep(two_qubit_system, [1.0, 20.0], Eps2Target(HADAMARD), restarts=1, n_slices=4)
        assert multiprocessing.active_children() == []
        # at a rate of 1e200 the first L-BFGS-B step overflows the amplitudes
        with pytest.raises(ValueError, match="amplitudes must be finite") as info:
            gamma_sweep(two_qubit_system, [1.0, 1e200], Eps2Target(HADAMARD), restarts=2,
                        n_slices=4)
        assert multiprocessing.active_children() == []
        if CORES > 1:
            assert len(pools) == 2
            assert "Traceback" in str(info.value.__cause__)  # raised in a worker

    @pytest.mark.skipif(CORES < 2, reason="one usable core: the sweep runs in process")
    def test_a_worker_dead_before_the_last_submit_is_reported(self, monkeypatch):
        # a stall between two submits lets the first worker die, so the
        # second submit raises where a result would otherwise be read
        class Broken(concurrent.futures.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                raise concurrent.futures.process.BrokenProcessPool("a child process died")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Broken)
        with pytest.raises(OSError, match="worker process died"):
            gamma_sweep(two_qubit_system, [1.0, 20.0], Eps2Target(HADAMARD), restarts=1,
                        n_slices=4)

    def test_worker_error_ends_the_cli_with_one_line(self):
        out = subprocess.run(
            [sys.executable, "-m", "zenoforge", "sweep", "--model", "two-qubit-amp",
             "--gammas", "1,1e200", "--restarts", "1", "--slices", "4"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=300,
        )
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr.splitlines() == ["error: amplitudes must be finite"]

    @pytest.mark.skipif(CORES < 2, reason="one usable core: the sweep runs in process")
    def test_dead_worker_ends_the_cli_with_one_line(self, tmp_path):
        # a spawn child re-imports an unguarded script, whose sweep then fails
        # to start a pool of its own during bootstrapping, so the child dies
        script = tmp_path / "unguarded.py"
        script.write_text(SWEEP_SCRIPT)
        out = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": SRC}, timeout=300,
        )
        errors = [line for line in out.stderr.splitlines() if line.startswith("error:")]
        assert out.returncode == 1 and out.stdout == ""
        assert len(errors) == 1 and "worker process died" in errors[0]
        assert 'if __name__ == "__main__":' in errors[0]

    def test_guarded_script_from_stdin_prints_the_sweep(self, tmp_path):
        # a spawn child could not re-import <stdin>, so its jobs run in process
        guarded = SWEEP_SCRIPT.replace("sys.exit", 'if __name__ == "__main__":\n    sys.exit')
        env = {**os.environ, "PYTHONPATH": SRC}
        stdin = subprocess.run([sys.executable, "-"], input=guarded, capture_output=True,
                               text=True, cwd=tmp_path, env=env, timeout=300)
        command = subprocess.run([sys.executable, "-c", SWEEP_SCRIPT], capture_output=True,
                                 text=True, cwd=tmp_path, env=env, timeout=300)
        assert stdin.returncode == command.returncode == 0
        assert stdin.stderr == ""
        assert stdin.stdout == command.stdout
        assert stdin.stdout.startswith("gamma,best_eps,reduced_error,restarts,iterations\n")

    def test_rows_and_improvement(self):
        rows = gamma_sweep(
            lambda g: two_qubit_system(g),
            [0.0, 20.0],
            Eps2Target(HADAMARD),
            restarts=2,
            seed=9,
            n_slices=8,
        )
        assert [r.gamma for r in rows] == [0.0, 20.0]
        assert rows[1].reduced_error < rows[0].reduced_error
        assert all(r.restarts == 2 for r in rows)

    def test_reduced_error_matches_gate_error_report(self):
        system = two_qubit_system(5.0)
        target = Eps2Target(HADAMARD)
        [row] = gamma_sweep(lambda g: system, [5.0], target, restarts=1, seed=4, n_slices=6)
        best = optimize(system, target, restarts=1, seed=4, n_slices=6).best_schedule
        report = gate_error_report(propagate_schedule(system, best), HADAMARD, np.eye(4))
        assert row.reduced_error == report.reduced_error

    def test_empty_gammas_rejected(self):
        with pytest.raises(ValueError):
            gamma_sweep(lambda g: two_qubit_system(g), [], Eps2Target(HADAMARD))

    def test_target_without_goal_unitary_rejected(self):
        with pytest.raises(ValueError, match="goal unitary"):
            gamma_sweep(lambda g: two_qubit_system(g), [1.0], Eps1Target(np.eye(16)))
