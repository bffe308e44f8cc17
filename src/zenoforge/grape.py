"""Piecewise-constant pulse optimization of gate errors over dissipative
bilinear control systems.

The total time is divided into equidistant slices with constant fields.
Every generator here preserves Hermiticity, so in an orthonormal Hermitian
operator basis {B_a} it is a real matrix: with Q the unitary whose columns
are vec(B_a), D and the control superoperators K_l become the real
Re(Q^H D Q) and Re(Q^H K_l Q), computed once per system. One forward pass
exponentiates the real stack of slice generators A_k = dt (D + sum_l f_lk K_l)
and multiplies the propagators; the targets see E_T = Q (E_{n-1} ... E_0) Q^H.
Exact gradients come from a backward costate sweep (adjoint-mode GRAPE),
which needs the adjoint Frechet derivative L(A_k^T, W_k) of every slice.
Both stacks, the slice exponentials and these derivatives, come from one
batched kernel: a degree-18 Taylor polynomial with scaling and squaring
(Bader, Blanes & Casas, Mathematics 7, 1174 (2019)) whose Frechet derivative
is carried through the same recurrences on dual numbers (Al-Mohy & Higham,
SIAM J. Matrix Anal. Appl. 30, 1639 (2009)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.optimize

from .channels import _eps2_weight, choi, reduced_channel, unitary_superop
from .lie import _element
from .lindblad import (
    LindbladSpec,
    Superoperator,
    _coherent_bound,
    dissipator_matrix,
    hamiltonian_superop,
)
from .ops import Operator

__all__ = [
    "ControlSystem",
    "PulseSchedule",
    "OptimizationResult",
    "Eps1Target",
    "Eps2Target",
    "SweepRow",
    "propagate_schedule",
    "objective_and_gradient",
    "optimize",
    "gamma_sweep",
    "random_schedule",
]


@dataclass(frozen=True)
class ControlSystem:
    """Modulated control Hamiltonians over a fixed dissipative background.

    ``spec.hamiltonian`` is the unmodulated drift (zero when the drift is
    treated as a control, as in the gate-optimization study)."""

    controls: tuple[Operator, ...]
    spec: LindbladSpec
    total_time: float

    def __post_init__(self):
        if not 0 < self.total_time < np.inf:  # NaN fails too
            raise ValueError("total time must be positive and finite")
        if not self.controls:
            raise ValueError("need at least one control Hamiltonian")
        d = self.spec.space.dim
        for c in self.controls:
            if c.space.dim != d:
                raise ValueError("controls must live on the system space")
            if not c.is_hermitian(1e-10):
                raise ValueError("controls must be Hermitian")
        object.__setattr__(self, "controls", tuple(self.controls))

    @property
    def n_controls(self) -> int:
        return len(self.controls)

    @cached_property
    def _generators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The basis change Q, the real dissipator D and the stacked real
        control superoperators K_l in the Hermitian basis."""
        d = self.spec.space.dim
        # columns vec(B_a) for lie's orthonormal Hermitian basis B_a = -i _element(e_a):
        # E_jj, (E_jk + E_kj)/sqrt2 and i(E_jk - E_kj)/sqrt2 for j < k
        basis = np.stack([-1j * _element(e, d) for e in np.eye(d * d)], axis=-1)
        basis = basis.reshape(d * d, d * d)
        base = _to_real_basis(basis, dissipator_matrix(self.spec).matrix)
        for l, c in enumerate(self.controls):
            _coherent_bound(c, f"control {l}")
        controls = np.stack(
            [_to_real_basis(basis, hamiltonian_superop(c.matrix)) for c in self.controls]
        )
        return basis, base, controls


def _to_real_basis(basis: np.ndarray, superop: np.ndarray) -> np.ndarray:
    """Q^H S Q for a Hermiticity-preserving S, whose imaginary part is rounding."""
    mat = basis.conj().T @ superop @ basis
    # an overflowed (non-finite) generator passes here and fails the finiteness checks
    if np.max(np.abs(mat.imag)) > 1e-12 * np.max(np.abs(mat)):
        raise ValueError(
            "generator does not preserve Hermiticity within 1e-12: "
            "the Hamiltonian and the controls must be Hermitian"
        )
    return mat.real


@dataclass(frozen=True)
class PulseSchedule:
    """Amplitudes f[l, k] for control l on slice k."""

    total_time: float
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.atleast_2d(np.asarray(self.amplitudes, dtype=float))
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        if amps.shape[1] == 0:
            raise ValueError("a pulse schedule needs at least one slice")
        if not 0 < self.total_time < np.inf:  # NaN fails too
            raise ValueError("total time must be positive and finite")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_slices(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def slice_duration(self) -> float:
        return self.total_time / self.n_slices


def random_schedule(
    system: ControlSystem, n_slices: int, rng: np.random.Generator
) -> PulseSchedule:
    """Initial guess: i.i.d. uniform amplitudes in [-1, 1] scaled by 1/T."""
    amps = rng.uniform(-1.0, 1.0, size=(system.n_controls, n_slices)) / system.total_time
    return PulseSchedule(system.total_time, amps)


# The degree-18 Taylor polynomial of exp in five products (Bader, Blanes &
# Casas, Mathematics 7, 1174 (2019)): with A2 = A A, A3 = A2 A, A6 = A3 A3,
# row i of _T18 holds the coefficients of A, A2, A3, A6 in B_(i+1), and
# _T18_IDENTITY the identity parts of B3 and B4. Then A9 = B1 B5 + B4 and
# T18(A) = B2 + (B3 + A9) A9.
_T18 = np.array([
    [-0.10036558103014462001, -0.00802924648241156960, -0.00089213849804572995, 0.0],
    [0.39784974949964507614, 1.36783778460411719922, 0.49828962252538267755,
     -0.00063789819459472330],
    [1.68015813878906197182, 0.05717798464788655127, -0.00698210122488052084,
     0.00003349750170860705],
    [-0.06764045190713819075, 0.06759613017704596460, 0.02955525704293155274,
     -0.00001391802575160607],
    [0.0, -0.09233646193671185927, -0.01693649390020817171, -0.00001400867981820361],
])
_T18_IDENTITY = np.array([-10.9676396052962062593, -0.09043168323908105619])
# T18 has a backward error below the unit roundoff while |A| <= _THETA18
_THETA18 = 1.090863719290036


def _dual_matmul(z1: np.ndarray, z2: np.ndarray, out: np.ndarray | None = None):
    """Stacked product of z = [X] (plain) or z = [X, Y] (the dual X + eps Y):
    (X1 + eps Y1)(X2 + eps Y2) = X1 X2 + eps (X1 Y2 + Y1 X2)."""
    out = np.matmul(z1[0], z2, out=out)
    if len(z1) == 2:
        out[1] += z1[1] @ z2[0]
    return out


def _expm_stack(a: np.ndarray, e: np.ndarray | None = None):
    """exp(A_k) of a real (n, m, m) stack; given E, (exp(A_k), L(A_k, E_k)).

    One scaling 2^-s for the whole stack, then T18 and s squarings, all as
    stacked matmuls. The Frechet derivative L is the eps part of the same
    recurrences on dual numbers; with the same s it has the same backward
    error bound (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30, 1639
    (2009)). A non-finite or overflowing stack comes out non-finite without a
    numpy warning."""
    n, m, _ = a.shape
    with np.errstate(all="ignore"):
        # One workspace for A, A2, A3, A6 and B1..B5, so that a call makes a
        # single large allocation, which the heap keeps for the next call.
        work = np.empty((9, 1 if e is None else 2, n, m, m))
        pows, b = work[:4], work[4:]
        pows[0, 0] = a
        if e is not None:
            pows[0, 1] = e
        _dual_matmul(pows[0], pows[0], out=pows[1])
        _dual_matmul(pows[1], pows[0], out=pows[2])
        # alpha = max(|A2|^(1/2), |A3|^(1/3)) <= |A| bounds the backward error
        # of T18 as |A| does (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31,
        # 970 (2009), Thm 4.2); it is not finite when A is, or when A3 overflows.
        norms = np.abs(pows[1:3, 0]).sum(axis=-2).max(axis=(1, 2))  # 1-norms
        alpha = max(norms[0] ** 0.5, norms[1] ** (1 / 3))
        if not np.isfinite(alpha):
            nan = np.full(a.shape, np.nan)
            return nan if e is None else (nan, nan)
        s = math.ceil(math.log2(alpha / _THETA18)) if alpha > _THETA18 else 0
        for k in range(3):
            np.ldexp(pows[k], -s * (k + 1), out=pows[k])
        _dual_matmul(pows[2], pows[2], out=pows[3])
        np.matmul(_T18, pows.reshape(4, -1), out=b.reshape(5, -1))
        diagonals = b.reshape(5, -1, n, m * m)[2:4, 0, :, :: m + 1]
        diagonals += _T18_IDENTITY[:, None, None]
        a9 = _dual_matmul(b[0], b[4]) + b[3]
        z = b[1] + _dual_matmul(b[2] + a9, a9)
        for _ in range(s):
            z = _dual_matmul(z, z)
    return z[0] if e is None else (z[0], z[1])


def _forward(system: ControlSystem, schedule: PulseSchedule):
    """Real stacked slice generators A_k, their exponentials E_k and the prefix
    products P_k = E_{k-1} ... E_0 in the Hermitian basis, and the total map
    E_T in the vec basis."""
    amps = schedule.amplitudes
    if amps.shape[0] != system.n_controls:
        raise ValueError(
            f"schedule has {amps.shape[0]} control rows, "
            f"system has {system.n_controls}"
        )
    basis, base, controls = system._generators
    gens = schedule.slice_duration * (
        base + sum(f[:, None, None] * km for f, km in zip(amps, controls))
    )
    props = _expm_stack(gens)
    prefix = np.empty_like(props)
    total = np.eye(base.shape[0])
    for k, prop in enumerate(props):
        prefix[k] = total
        total = prop @ total
    return gens, props, prefix, basis @ total @ basis.conj().T


def propagate_schedule(system: ControlSystem, schedule: PulseSchedule) -> Superoperator:
    """Ordered product of slice exponentials exp(dt (K(f_k) + D))."""
    total = _forward(system, schedule)[3]
    if not np.all(np.isfinite(total)):
        raise ValueError("propagated map is not finite: amplitudes too large")
    return Superoperator(system.spec.space, total)


@dataclass(frozen=True)
class Eps1Target:
    """Minimize ||E_T - goal||_HS^2 against a full goal map."""

    goal: np.ndarray
    goal_unitary: np.ndarray | None = None

    def value_and_cograd(self, e_total: np.ndarray):
        """Value and cograd with d(value) = Re sum(cograd * dE)."""
        diff = e_total - self.goal
        value = float(np.linalg.norm(diff) ** 2)
        return value, 2.0 * diff.conj()


@dataclass(frozen=True)
class Eps2Target:
    """Minimize the Choi-based subsystem bound toward a system-1 unitary."""

    goal_unitary: np.ndarray
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def value_and_cograd(self, e_total: np.ndarray):
        """Value and cograd with d(value) = Re sum(cograd * dE)."""
        d = round(e_total.shape[0] ** 0.5)
        j = choi(e_total).matrix
        if d not in self._weights:
            self._weights[d] = _eps2_weight(self.goal_unitary, d)
        one_minus_w = self._weights[d]
        value = float(np.real(np.trace(j @ j @ one_minus_w)))
        gj = one_minus_w @ j + j @ one_minus_w
        # d(value) = Re Tr{gj dJ} with dJ = reshuffle(dE)/d: permute gj back
        g4 = gj.reshape(d, d, d, d)
        return value, g4.transpose(2, 0, 3, 1).reshape(d * d, d * d) / d


def objective_and_gradient(
    system: ControlSystem, schedule: PulseSchedule, target
) -> tuple[float, np.ndarray]:
    """Objective and its exact gradient w.r.t. every slice amplitude."""
    gens, props, prefix, e_total = _forward(system, schedule)
    value, cograd = target.value_and_cograd(e_total)
    if not np.isfinite(props).all():  # an overflowing L-BFGS probe: no gradient
        return value, np.full(schedule.amplitudes.shape, np.nan)
    # In the Hermitian basis E_T = Q T Q^H with T real, so d(value) =
    # sum(G * dT) for G = Re(Q^T cograd conj(Q)). Costate G_k = S_k^T G with
    # S_k = E_{n-1} ... E_{k+1}: d(value) = sum(W_k * dE_k) for W_k = G_k P_k^T,
    # and <W, L(A, X)> = <L(A^T, W), X> turns this into dt sum(K_l * L(A_k^T, W_k))
    # for every l.
    basis, _, controls = system._generators
    n = len(gens)
    weights = np.empty_like(gens)
    costate = (basis.T @ cograd @ basis.conj()).real
    for k in range(n - 1, -1, -1):
        weights[k] = costate @ prefix[k].T
        costate = props[k].T @ costate
    adjoints = _expm_stack(gens.transpose(0, 2, 1), weights)[1]
    grad = controls.reshape(len(controls), -1) @ adjoints.reshape(n, -1).T
    return value, schedule.slice_duration * grad


@dataclass(frozen=True)
class OptimizationResult:
    best_schedule: PulseSchedule
    best_value: float
    traces: tuple[tuple[float, ...], ...]
    n_evaluations: int
    converged: bool
    iterations: int


def optimize(
    system: ControlSystem,
    target,
    restarts: int = 10,
    seed: int = 0,
    n_slices: int = 20,
    max_iterations: int = 500,
) -> OptimizationResult:
    """Multi-restart quasi-Newton minimization of the gate error.

    Deterministic given ``seed``: restart r draws its initial pulse from
    default_rng([seed, r]). Returns the best schedule over restarts.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if n_slices < 1:
        raise ValueError("a pulse schedule needs at least one slice")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    m = system.n_controls
    best_value = np.inf
    best_x = None
    traces = []
    total_evals = 0
    total_iters = 0
    any_converged = False

    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        x0 = random_schedule(system, n_slices, rng).amplitudes.reshape(-1)
        evals = 0
        trace: list[float] = []

        def fun(x):
            nonlocal evals
            evals += 1
            sched = PulseSchedule(system.total_time, x.reshape(m, n_slices))
            v, g = objective_and_gradient(system, sched, target)
            return v, g.reshape(-1)

        def callback(intermediate_result):
            trace.append(intermediate_result.fun)

        res = scipy.optimize.minimize(
            fun,
            x0,
            jac=True,
            method="L-BFGS-B",
            callback=callback,
            options={
                "maxiter": max_iterations,
                "gtol": 1e-8,
                "ftol": 1e-12,
            },
        )
        total_evals += evals
        total_iters += int(res.nit)
        any_converged = any_converged or bool(res.success)
        traces.append(tuple(trace))
        if res.fun < best_value:
            best_value = float(res.fun)
            best_x = res.x

    best = PulseSchedule(system.total_time, best_x.reshape(m, n_slices))
    return OptimizationResult(
        best, best_value, tuple(traces), total_evals, any_converged, total_iters
    )


@dataclass(frozen=True)
class SweepRow:
    gamma: float
    best_eps: float
    reduced_error: float
    restarts: int
    iterations: int


def gamma_sweep(
    system_builder: Callable[[float], ControlSystem],
    gammas,
    target_builder: Callable[[ControlSystem], object],
    restarts: int = 10,
    seed: int = 0,
    n_slices: int = 20,
) -> list[SweepRow]:
    """Optimize at each noise strength and score the reduced gate error.

    System 2 starts in the totally mixed state; the reduced error compares
    the system-1 map against the target's goal unitary in squared HS norm.
    """
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise ValueError("gamma list must be non-empty")
    rows = []
    for gamma in gammas:
        system = system_builder(float(gamma))
        target = target_builder(system)
        goal_unitary = target.goal_unitary
        if goal_unitary is None:
            raise ValueError("sweep target must carry the goal unitary")
        result = optimize(
            system, target, restarts=restarts, seed=seed, n_slices=n_slices
        )
        d1 = goal_unitary.shape[0]
        d2 = system.spec.space.dim // d1
        e_total = propagate_schedule(system, result.best_schedule)
        reduced = reduced_channel(e_total, np.eye(d2) / d2)
        red_err = float(
            np.linalg.norm(reduced.matrix - unitary_superop(goal_unitary)) ** 2
        )
        rows.append(
            SweepRow(float(gamma), result.best_value, red_err, restarts, result.iterations)
        )
    return rows
