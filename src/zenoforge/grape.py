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

Each L-BFGS-B restart runs with one thread in every loaded OpenBLAS: its
products are too small for a second thread to pay, which would only spin.
``gamma_sweep`` spends the other cores on its independent (gamma, restart)
jobs instead: a spawn pool with one worker per core of the affinity mask,
results gathered in job order, so the rows are those of ``optimize`` at
each gamma. One job, one usable core or a script read from stdin runs in
this process. As with every spawn pool, a script file that calls
``gamma_sweep`` must guard its entry point with ``if __name__ == "__main__":``.
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable

import numpy as np
import scipy.optimize

from .channels import _eps2_weight, choi, reduced_error
from .lindblad import (
    LindbladSpec,
    Superoperator,
    _coherent_bound,
    dissipator_matrix,
    hamiltonian_superop,
)
from .ops import Operator, hermitian

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
    """Modulated control Hamiltonians over a fixed dissipative background,
    kept as their exact Hermitian parts (``ops.hermitian``).

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
        if any(c.space.dim != d for c in self.controls):
            raise ValueError("controls must live on the system space")
        controls = tuple(
            Operator(c.space, hermitian(c, f"control {l}")) for l, c in enumerate(self.controls)
        )
        object.__setattr__(self, "controls", controls)

    @property
    def n_controls(self) -> int:
        return len(self.controls)

    @cached_property
    def _generators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The basis change Q, the real dissipator D and the stacked real
        control superoperators K_l in the Hermitian basis."""
        d = self.spec.space.dim
        # Q: columns vec(B_a) (row-major) of the orthonormal Hermitian basis
        # E_jj, (E_jk + E_kj)/sqrt2 and i(E_jk - E_kj)/sqrt2 for j < k
        units = np.eye(d * d).reshape(d, d, d * d)  # units[j, k] = vec(E_jk)
        j, k = np.triu_indices(d, 1)
        sym, asym = units[j, k] + units[k, j], units[j, k] - units[k, j]
        parts = [units[range(d), range(d)], sym / np.sqrt(2.0), 1j * asym / np.sqrt(2.0)]
        basis = np.concatenate(parts).T.copy()
        base = _to_real_basis(basis, dissipator_matrix(self.spec).matrix)
        for l, c in enumerate(self.controls):
            _coherent_bound(c, f"control {l}")
        controls = np.stack(
            [_to_real_basis(basis, hamiltonian_superop(c.matrix)) for c in self.controls]
        )
        return basis, base, controls


def _to_real_basis(basis: np.ndarray, superop: np.ndarray) -> np.ndarray:
    """Q^H S Q for a Hermiticity-preserving S, whose imaginary part is rounding:
    LindbladSpec and ControlSystem keep exactly Hermitian H and controls."""
    return (basis.conj().T @ superop @ basis).real


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
    """Ordered product of slice exponentials exp(dt (K(f_k) + D)).

    The product must be a channel, and no entry of a channel's matrix exceeds
    1 in modulus: |<i|E(|k><l|)|j>| <= ||E(|k><l|)||_1 <= 1. A larger or
    non-finite entry means the slice exponentials lost all accuracy."""
    gens, _, _, total = _forward(system, schedule)
    largest = np.max(np.abs(total))
    if not largest <= 1 + 1e-8:  # NaN fails too
        raise ValueError(
            f"propagated map is not finite or not a channel (max|E_T| = {largest:g}) "
            f"for slice generators up to max|A| = {np.max(np.abs(gens)):g}: "
            "the Hamiltonian, the controls or the amplitudes are too large"
        )
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


# the thread-count setters of plain OpenBLAS, scipy-openblas and its 64-bit
# integer build; each getter has the same name with "get"
_BLAS_THREAD_SETTERS = (
    "openblas_set_num_threads",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


@cache
def _blas_thread_controls() -> tuple[tuple[Callable, Callable], ...]:
    """The thread-count setter and getter of every OpenBLAS mapped into this
    process; none off Linux or with another BLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            getter = getattr(lib, name.replace("_set_", "_get_"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Run the body with one thread in every OpenBLAS, then restore each
    library's previous count. L-BFGS-B's small products gain nothing from a
    second thread, which only spins."""
    controls = _blas_thread_controls()
    previous = [getter() for _, getter in controls]
    for setter, _ in controls:
        setter(1)
    try:
        yield
    finally:
        for (setter, _), count in zip(controls, previous):
            setter(count)


def _restart(
    system: ControlSystem, target, seed: int, r: int, n_slices: int, max_iterations: int
) -> OptimizationResult:
    """One L-BFGS-B run from the initial pulse drawn by default_rng([seed, r])."""
    m = system.n_controls
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

    with _one_blas_thread():
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
    schedule = PulseSchedule(system.total_time, res.x.reshape(m, n_slices))
    return OptimizationResult(
        schedule, float(res.fun), (tuple(trace),), evals, bool(res.success), int(res.nit)
    )


def _best(runs: list[OptimizationResult]) -> OptimizationResult:
    """The first run with the lowest value, with the traces and totals of all."""
    best_value, best = np.inf, None
    for run in runs:
        if run.best_value < best_value:
            best_value, best = run.best_value, run
    return OptimizationResult(
        best.best_schedule,
        best_value,
        tuple(trace for run in runs for trace in run.traces),
        sum(run.n_evaluations for run in runs),
        any(run.converged for run in runs),
        sum(run.iterations for run in runs),
    )


_MAX_ITERATIONS = 500  # L-BFGS-B iterations per restart


def _check_restarts(restarts: int, seed: int, n_slices: int):
    if restarts < 1:
        raise ValueError("need at least one restart")
    if n_slices < 1:
        raise ValueError("a pulse schedule needs at least one slice")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def optimize(
    system: ControlSystem,
    target,
    restarts: int = 10,
    seed: int = 0,
    n_slices: int = 20,
    max_iterations: int = _MAX_ITERATIONS,
) -> OptimizationResult:
    """Multi-restart quasi-Newton minimization of the gate error.

    Deterministic given ``seed``: restart r draws its initial pulse from
    default_rng([seed, r]). Returns the best schedule over restarts.
    """
    _check_restarts(restarts, seed, n_slices)
    return _best([
        _restart(system, target, seed, r, n_slices, max_iterations) for r in range(restarts)
    ])


def _run_restarts(jobs: list[tuple]) -> list[OptimizationResult]:
    """``_restart(*job)`` for every job, in job order: on a spawn pool with
    one worker per usable core, or in this process for one job, one core or
    a main module with no file (read from stdin), which a child cannot import.

    A worker's exception is raised here with its own type, once the pool has
    cancelled the jobs not yet started and joined its workers; a worker that
    dies raises OSError."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cores, len(jobs))
    main = getattr(sys.modules["__main__"], "__file__", None)
    if workers <= 1 or (main is not None and not os.path.isfile(main)):
        return [_restart(*job) for job in jobs]
    # imported here, so that importing zenoforge loads no process machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
        futures = [pool.submit(_restart, *job) for job in jobs]
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            raise OSError(
                "a sweep worker process died; a script that runs a sweep must guard its "
                'entry point with if __name__ == "__main__":'
            ) from exc
        finally:
            pool.shutdown(cancel_futures=True)


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
    target,
    restarts: int = 10,
    seed: int = 0,
    n_slices: int = 20,
) -> list[SweepRow]:
    """Optimize ``target`` at each noise strength and score the best schedule
    by ``channels.reduced_error`` against the target's goal unitary.

    The target (Eps1Target or Eps2Target) is the same at every gamma; it must
    carry the goal unitary on system 1. Every (gamma, restart) pair is one
    independent job; the rows equal those of ``optimize`` at each gamma.
    The builder runs here; the systems and the target reach the pool's
    workers by pickle.
    """
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise ValueError("gamma list must be non-empty")
    if target.goal_unitary is None:
        raise ValueError("sweep target must carry the goal unitary")
    _check_restarts(restarts, seed, n_slices)
    systems = [system_builder(gamma) for gamma in gammas]
    jobs = [(system, target, seed, r, n_slices, _MAX_ITERATIONS) for system in systems
            for r in range(restarts)]
    runs = _run_restarts(jobs)
    rows = []
    for k, (gamma, system) in enumerate(zip(gammas, systems)):
        result = _best(runs[k * restarts : (k + 1) * restarts])
        e_total = propagate_schedule(system, result.best_schedule)
        red_err = reduced_error(e_total, target.goal_unitary)
        rows.append(SweepRow(gamma, result.best_value, red_err, restarts, result.iterations))
    return rows
