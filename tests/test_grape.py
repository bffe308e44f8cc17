import numpy as np
import pytest

from zenoforge.channels import choi, superop_tensor, unitary_superop
from zenoforge.grape import (
    ControlSystem,
    Eps1Target,
    Eps2Target,
    OptimizationResult,
    PulseSchedule,
    gamma_sweep,
    objective_and_gradient,
    optimize,
    propagate_schedule,
    random_schedule,
)
from zenoforge.lindblad import LindbladSpec, LindbladTerm, Superoperator, vec
from zenoforge.models import HADAMARD, build_model, qubit2_reset_superop
from zenoforge.ops import lowering_on, pauli_on, qubits, zero

S2 = qubits(2)
H0 = pauli_on(S2, 0, "x") @ (pauli_on(S2, 1, "x") + pauli_on(S2, 1, "z"))
H1 = pauli_on(S2, 0, "y") @ (pauli_on(S2, 1, "x") - pauli_on(S2, 1, "z"))


def two_qubit_system(gamma):
    spec = LindbladSpec(zero(S2), (LindbladTerm(gamma, lowering_on(S2, 1)),))
    return ControlSystem((H0, H1), spec, 1.0)


def eps1_target():
    etilde = qubit2_reset_superop(build_model("two-qubit-amp").spec)
    goal = superop_tensor(unitary_superop(HADAMARD), 2, etilde, 2)
    return Eps1Target(goal, HADAMARD)


class TestPropagateSchedule:
    def test_zero_everything_gives_identity(self):
        system = ControlSystem((H0,), LindbladSpec(zero(S2)), 1.0)
        sched = PulseSchedule(1.0, np.zeros((1, 5)))
        assert np.allclose(propagate_schedule(system, sched).matrix, np.eye(16))

    def test_single_slice_matches_direct_exponential(self):
        from zenoforge.ops import expm
        from zenoforge.zeno import coherent_generator

        system = ControlSystem((H0,), LindbladSpec(zero(S2)), 1.0)
        sched = PulseSchedule(1.0, np.array([[0.7]]))
        direct = expm(0.7 * coherent_generator(H0).matrix)
        assert np.max(np.abs(propagate_schedule(system, sched).matrix - direct)) < 1e-12

    def test_piecewise_constant_consistency(self, rng):
        system = two_qubit_system(0.5)
        amps = rng.uniform(-1, 1, (2, 1))
        one = propagate_schedule(system, PulseSchedule(1.0, amps))
        four = propagate_schedule(system, PulseSchedule(1.0, np.repeat(amps, 4, axis=1)))
        assert np.max(np.abs(one.matrix - four.matrix)) < 1e-12

    def test_cptp_for_random_schedules(self, rng):
        system = two_qubit_system(1.3)
        for _ in range(5):
            sched = random_schedule(system, 8, rng)
            prop = propagate_schedule(system, sched)
            assert prop.is_trace_preserving(1e-9)
            assert choi(prop.matrix).is_completely_positive(1e-8)

    def test_rejects_bad_shapes_and_nonfinite(self):
        system = two_qubit_system(1.0)
        with pytest.raises(ValueError):
            propagate_schedule(system, PulseSchedule(1.0, np.zeros((3, 4))))
        with pytest.raises(ValueError):
            PulseSchedule(1.0, np.array([[np.nan, 0.0]]))

    def test_rejects_schedule_without_slices(self):
        with pytest.raises(ValueError, match="slice"):
            PulseSchedule(1.0, np.zeros((2, 0)))


class TestGradients:
    @pytest.mark.parametrize("make_target", [eps1_target, lambda: Eps2Target(HADAMARD)])
    def test_matches_central_finite_differences(self, rng, make_target):
        system = two_qubit_system(1.0)
        target = make_target()
        step = 1e-6
        for _ in range(3):
            sched = PulseSchedule(1.0, rng.uniform(-1, 1, (2, 5)))
            _, grad = objective_and_gradient(system, sched, target)
            for l in range(2):
                for k in range(5):
                    up = sched.amplitudes.copy()
                    up[l, k] += step
                    down = sched.amplitudes.copy()
                    down[l, k] -= step
                    vp, _ = objective_and_gradient(system, PulseSchedule(1.0, up), target)
                    vm, _ = objective_and_gradient(system, PulseSchedule(1.0, down), target)
                    fd = (vp - vm) / (2 * step)
                    assert grad[l, k] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_gradient_vanishes_at_global_minimum(self, rng):
        system = two_qubit_system(1.0)
        sched = PulseSchedule(1.0, rng.uniform(-1, 1, (2, 6)))
        reached = propagate_schedule(system, sched).matrix
        value, grad = objective_and_gradient(system, sched, Eps1Target(reached))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(grad)) < 1e-8


class TestOptimize:
    def test_deterministic_given_seed(self):
        system = two_qubit_system(10.0)
        a = optimize(system, Eps2Target(HADAMARD), restarts=2, seed=11, n_slices=6, max_iterations=60)
        b = optimize(system, Eps2Target(HADAMARD), restarts=2, seed=11, n_slices=6, max_iterations=60)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_schedule.amplitudes, b.best_schedule.amplitudes)

    def test_traces_monotone_nonincreasing(self):
        system = two_qubit_system(10.0)
        result = optimize(system, Eps2Target(HADAMARD), restarts=2, seed=3, n_slices=6, max_iterations=60)
        for trace in result.traces:
            assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_best_value_is_min_over_restarts(self):
        system = two_qubit_system(10.0)
        result = optimize(system, Eps2Target(HADAMARD), restarts=3, seed=5, n_slices=6, max_iterations=40)
        finals = [t[-1] for t in result.traces if t]
        assert result.best_value == pytest.approx(min(finals), rel=1e-9)

    def test_dissipation_free_system_has_error_floor(self):
        # commuting controls: dim L = 2, Hadamard out of reach without noise
        system = two_qubit_system(0.0)
        result = optimize(system, Eps2Target(HADAMARD), restarts=3, seed=7, n_slices=8, max_iterations=150)
        assert result.best_value > 0.05

    def test_requires_restarts(self):
        with pytest.raises(ValueError):
            optimize(two_qubit_system(1.0), Eps2Target(HADAMARD), restarts=0)

    def test_amplitude_box_bounds_respected(self):
        system = two_qubit_system(5.0)
        result = optimize(
            system,
            Eps2Target(HADAMARD),
            restarts=1,
            seed=2,
            n_slices=6,
            max_iterations=40,
            amplitude_bound=0.3,
        )
        assert np.max(np.abs(result.best_schedule.amplitudes)) <= 0.3 + 1e-12
        with pytest.raises(ValueError):
            optimize(system, Eps2Target(HADAMARD), amplitude_bound=-1.0)


class TestGammaSweep:
    def test_rows_and_improvement(self):
        rows = gamma_sweep(
            lambda g: two_qubit_system(g),
            [0.0, 20.0],
            lambda system: Eps2Target(HADAMARD),
            restarts=2,
            seed=9,
            n_slices=8,
        )
        assert [r.gamma for r in rows] == [0.0, 20.0]
        assert rows[1].reduced_error < rows[0].reduced_error
        assert all(r.restarts == 2 for r in rows)

    def test_empty_gammas_rejected(self):
        with pytest.raises(ValueError):
            gamma_sweep(lambda g: two_qubit_system(g), [], lambda s: Eps2Target(HADAMARD))
