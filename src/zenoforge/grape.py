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
which needs the adjoint Frechet derivative L(A_k^T, W_k) = L(A_k, W_k^T)^T
of every slice. The forward kernel, a degree-18 Taylor polynomial with
scaling and squaring over the whole stack (Bader, Blanes & Casas,
Mathematics 7, 1174 (2019)), keeps its intermediates on a tape: the scaled
powers, the polynomial's products and every squaring. The Frechet pass is
the eps half of the same recurrences on A + eps E, read off that tape with
the forward's scaling (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30,
1639 (2009)), so no plain product is computed twice. Tape and pass share
one allocation per evaluation.

Each L-BFGS-B restart runs with one thread in every loaded OpenBLAS
(``blas.one_thread``): its products are too small for a second thread to
pay, which would only spin. ``gamma_sweep`` spends the other cores on its
independent (gamma, restart) jobs instead: a spawn pool with one worker per
core of the affinity mask, results gathered in job order, so the rows are
those of ``optimize`` at each gamma. One job, one usable core or a script
read from stdin runs in this process. As with every spawn pool, a script
file that calls ``gamma_sweep`` must guard its entry point with
``if __name__ == "__main__":``.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import blas
from .channels import _eps2_weight, choi, reduced_error
from .lindblad import (
    LindbladSpec,
    Superoperator,
    _coherent_bound,
    _read_only,
    _real_array,
    dissipator_matrix,
    hamiltonian_superop,
)
from .ops import hermitian

__all__ = [
    "ControlSystem",
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
    kept as read-only copies of their exact Hermitian parts
    (``ops.hermitian``), each of the spec's size d.

    ``spec.hamiltonian`` is the unmodulated drift (zero when the drift is
    treated as a control, as in the gate-optimization study)."""

    controls: tuple[np.ndarray, ...]
    spec: LindbladSpec
    total_time: float

    def __post_init__(self):
        if not 0 < self.total_time < np.inf:  # NaN fails too
            raise ValueError("total time must be positive and finite")
        if not self.controls:
            raise ValueError("need at least one control Hamiltonian")
        d = self.spec.hamiltonian.shape[0]
        controls = tuple(hermitian(c, f"control {l}") for l, c in enumerate(self.controls))
        for l, c in enumerate(controls):
            if c.shape != (d, d):
                raise ValueError(f"control {l} has shape {c.shape}, not ({d}, {d})")
        object.__setattr__(self, "controls", tuple(map(_read_only, controls)))

    @property
    def n_controls(self) -> int:
        return len(self.controls)

    @cached_property
    def _generators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The basis change Q, the real dissipator D and the stacked real
        control superoperators K_l in the Hermitian basis."""
        d = self.spec.hamiltonian.shape[0]
        # Q: columns vec(B_a) (row-major) of the orthonormal Hermitian basis
        # E_jj, (E_jk + E_kj)/sqrt2 and i(E_jk - E_kj)/sqrt2 for j < k
        units = np.eye(d * d).reshape(d, d, d * d)  # units[j, k] = vec(E_jk)
        j, k = np.triu_indices(d, 1)
        sym, asym = units[j, k] + units[k, j], units[j, k] - units[k, j]
        parts = [units[range(d), range(d)], sym / np.sqrt(2.0), 1j * asym / np.sqrt(2.0)]
        basis = np.concatenate(parts).T.copy()
        base = _to_real_basis(basis, dissipator_matrix(self.spec))
        for l, c in enumerate(self.controls):
            _coherent_bound(c, f"control {l}")
        controls = np.stack(
            [_to_real_basis(basis, hamiltonian_superop(c)) for c in self.controls]
        )
        return basis, base, controls


def _to_real_basis(basis: np.ndarray, superop: np.ndarray) -> np.ndarray:
    """Q^H S Q for a Hermiticity-preserving S, whose imaginary part is rounding:
    LindbladSpec and ControlSystem keep exactly Hermitian H and controls."""
    return (basis.conj().T @ superop @ basis).real


def _amplitudes(system: ControlSystem, schedule) -> np.ndarray:
    """A pulse schedule as the float array f[l, k] of control l on slice k,
    whose n slices each last system.total_time / n."""
    amps = _real_array(schedule)
    if amps is None or amps.ndim > 2:
        raise ValueError("amplitudes must be a real array of rank at most 2")
    amps = np.atleast_2d(amps)
    if not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes must be finite")
    if amps.shape[1] == 0:
        raise ValueError("a pulse schedule needs at least one slice")
    if amps.shape[0] != system.n_controls:
        raise ValueError(
            f"schedule has {amps.shape[0]} control rows, system has {system.n_controls}"
        )
    return amps


def random_schedule(
    system: ControlSystem, n_slices: int, rng: np.random.Generator
) -> np.ndarray:
    """Initial guess: i.i.d. uniform amplitudes in [-1, 1] scaled by 1/T."""
    return rng.uniform(-1.0, 1.0, size=(system.n_controls, n_slices)) / system.total_time


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


# The tape's (n, m, m) slots in order: the scaled powers A, A2, A3, A6,
# B1..B5, A9, C = B3 + A9, Z_0 = T18(A) and its s squarings Z_1..Z_s; the
# Frechet pass's own slots follow.
_B, _A9, _C, _Z0 = 4, 9, 10, 11
_EPS_SLOTS = 14  # dA..dA6, dB1..dB5, dA9, dC, two dZ and one product


class _Tape(NamedTuple):
    """The intermediates of exp(A_k) over a stack, in ``work``: the one
    allocation of an evaluation, (_Z0 + 1 + s + _EPS_SLOTS, n, m, m)."""

    work: np.ndarray
    s: int

    @property
    def exp(self) -> np.ndarray:
        return self.work[_Z0 + self.s]


def _expm_stack(a: np.ndarray) -> _Tape:
    """exp(A_k) of a real (n, m, m) stack, with the tape that ``_frechet_stack``
    reads.

    One scaling 2^-s for the whole stack, then T18 and s squarings, all as
    stacked matmuls into one workspace, sized once s is known. A single
    allocation per call is deliberate: the heap keeps one block for the
    next call, while a dozen separate arrays of this size make glibc trim
    and regrow the heap, a page fault per 4 KB on every evaluation. A
    non-finite or overflowing stack comes out non-finite without a numpy
    warning."""
    n, m, _ = a.shape
    with np.errstate(all="ignore"):
        a2 = a @ a
        a3 = a2 @ a
        # alpha = max(|A2|^(1/2), |A3|^(1/3)) <= |A| bounds the backward error
        # of T18 as |A| does (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31,
        # 970 (2009), Thm 4.2); it is not finite when A is, or when A3 overflows.
        # The 1-norms' column sums come from a product with ones, which is
        # several times faster than numpy's sum over the middle axis.
        ones = np.ones(m)
        alpha = max((ones @ np.abs(a2)).max() ** 0.5, (ones @ np.abs(a3)).max() ** (1 / 3))
        if not np.isfinite(alpha):
            return _Tape(np.full((_Z0 + 1 + _EPS_SLOTS, n, m, m), np.nan), 0)
        s = math.ceil(math.log2(alpha / _THETA18)) if alpha > _THETA18 else 0
        work = np.empty((_Z0 + 1 + s + _EPS_SLOTS, n, m, m))
        pows, b, z = work[:_B], work[_B:_A9], work[_Z0 : _Z0 + s + 1]
        for k, power in enumerate((a, a2, a3)):
            np.ldexp(power, -s * (k + 1), out=pows[k])
        np.matmul(pows[2], pows[2], out=pows[3])
        np.matmul(_T18, pows.reshape(4, -1), out=b.reshape(5, -1))
        b.reshape(5, n, m * m)[2:4, :, :: m + 1] += _T18_IDENTITY[:, None, None]
        a9, c = work[_A9], work[_C]
        np.matmul(b[0], b[4], out=a9)
        a9 += b[3]
        np.add(b[2], a9, out=c)
        np.matmul(c, a9, out=z[0])
        z[0] += b[1]
        for j in range(s):
            np.matmul(z[j], z[j], out=z[j + 1])
    return _Tape(work, s)


def _frechet_stack(tape: _Tape, e: np.ndarray) -> np.ndarray:
    """L(A_k, E_k), the Frechet derivatives of exp at the stack of ``tape``
    in the directions E_k: a view into the tape's workspace.

    This is the eps part of the forward recurrences on A + eps E: every
    product X1 X2 becomes X1 Y2 + Y1 X2 with X1, X2 read from the tape, so
    no plain product, norm or scaling is computed again. With the forward
    pass's s it has the backward error bound of exp (Al-Mohy & Higham, SIAM
    J. Matrix Anal. Appl. 30, 1639 (2009))."""
    x, s = tape.work, tape.s
    eps = x[_Z0 + 1 + s :]
    dpows, db, da9, dc, dz, tmp = eps[:4], eps[4:9], eps[9], eps[10], eps[11:13], eps[13]

    def product(x1, y1, x2, y2, out):  # out = X1 Y2 + Y1 X2
        np.matmul(x1, y2, out=out)
        out += np.matmul(y1, x2, out=tmp)

    with np.errstate(all="ignore"):
        np.ldexp(e, -s, out=dpows[0])
        product(x[0], dpows[0], x[0], dpows[0], dpows[1])
        product(x[1], dpows[1], x[0], dpows[0], dpows[2])
        product(x[2], dpows[2], x[2], dpows[2], dpows[3])
        np.matmul(_T18, dpows.reshape(4, -1), out=db.reshape(5, -1))
        product(x[_B], db[0], x[_B + 4], db[4], da9)
        da9 += db[3]
        np.add(db[2], da9, out=dc)
        product(x[_C], dc, x[_A9], da9, dz[0])
        dz[0] += db[1]
        for j in range(s):
            product(x[_Z0 + j], dz[j % 2], x[_Z0 + j], dz[j % 2], dz[(j + 1) % 2])
    return dz[s % 2]


def _forward(system: ControlSystem, schedule):
    """Real stacked slice generators A_k, the tape of their exponentials E_k
    and the prefix products P_k = E_{k-1} ... E_0 in the Hermitian basis,
    and the total map E_T in the vec basis."""
    amps = _amplitudes(system, schedule)
    basis, base, controls = system._generators
    n, dim = amps.shape[1], base.shape[0]
    # every slice's dt (D + sum_l f_lk K_l) in one GEMM
    gens = (amps.T @ controls.reshape(len(controls), -1)).reshape(n, dim, dim)
    gens += base
    gens *= system.total_time / n
    tape = _expm_stack(gens)
    prefix = np.empty((n + 1, dim, dim))
    prefix[0] = np.eye(dim)
    for k, prop in enumerate(tape.exp):  # np.dot: a third of matmul's call overhead
        np.dot(prop, prefix[k], out=prefix[k + 1])
    return gens, tape, prefix[:n], basis @ prefix[n] @ basis.conj().T


def propagate_schedule(system: ControlSystem, schedule) -> Superoperator:
    """Ordered product of slice exponentials exp(dt (K(f_k) + D)) over the
    amplitude array f[l, k], with dt = system.total_time / n_slices.

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
    return Superoperator(total)


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
        j = choi(e_total)
        if d not in self._weights:
            self._weights[d] = _eps2_weight(self.goal_unitary, d)
        one_minus_w = self._weights[d]
        value = float(np.real(np.trace(j @ j @ one_minus_w)))
        gj = one_minus_w @ j + j @ one_minus_w
        # d(value) = Re Tr{gj dJ} with dJ = reshuffle(dE)/d: permute gj back
        g4 = gj.reshape(d, d, d, d)
        return value, g4.transpose(2, 0, 3, 1).reshape(d * d, d * d) / d


def objective_and_gradient(
    system: ControlSystem, schedule, target
) -> tuple[float, np.ndarray]:
    """Objective and its exact gradient w.r.t. every slice amplitude."""
    gens, tape, prefix, e_total = _forward(system, schedule)
    value, cograd = target.value_and_cograd(e_total)
    props = tape.exp
    if not np.isfinite(props).all():  # an overflowing L-BFGS probe: no gradient
        return value, np.full((system.n_controls, len(gens)), np.nan)
    # In the Hermitian basis E_T = Q T Q^H with T real, so d(value) =
    # sum(G * dT) for G = Re(Q^T cograd conj(Q)). Costate G_k = S_k^T G with
    # S_k = E_{n-1} ... E_{k+1}: d(value) = sum(W_k * dE_k) for W_k = G_k P_k^T,
    # and <W, L(A, X)> = <L(A^T, W), X> turns this into dt sum(K_l * L(A_k^T, W_k))
    # for every l. L(A^T, W) = L(A, W^T)^T, so the Frechet pass runs on the
    # forward tape in the directions W_k^T = P_k G_k^T, and the transpose
    # moves onto K_l. The costates are kept transposed: G_(k-1)^T = G_k^T E_k.
    basis, _, controls = system._generators
    n = len(gens)
    costates = np.empty_like(prefix)
    costates[-1] = (basis.T @ cograd @ basis.conj()).real.T
    for k in range(n - 1, 0, -1):
        np.dot(costates[k], props[k], out=costates[k - 1])
    adjoints = _frechet_stack(tape, np.matmul(prefix, costates))
    grad = controls.transpose(0, 2, 1).reshape(len(controls), -1) @ adjoints.reshape(n, -1).T
    return value, (system.total_time / n) * grad


@dataclass(frozen=True)
class OptimizationResult:
    best_schedule: np.ndarray  # the amplitude array f[l, k] of the best value
    best_value: float
    n_evaluations: int
    converged: bool
    iterations: int


def _restart(
    system: ControlSystem, target, seed: int, r: int, n_slices: int, max_iterations: int
) -> OptimizationResult:
    """One L-BFGS-B run from the initial pulse drawn by default_rng([seed, r])."""
    # before one_thread(), so that its scan sees scipy's own OpenBLAS
    import scipy.optimize

    m = system.n_controls
    rng = np.random.default_rng([seed, r])
    x0 = random_schedule(system, n_slices, rng).reshape(-1)

    def fun(x):
        v, g = objective_and_gradient(system, x.reshape(m, n_slices), target)
        return v, g.reshape(-1)

    with blas.one_thread():
        res = scipy.optimize.minimize(
            fun,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": max_iterations,
                "gtol": 1e-8,
                "ftol": 1e-12,
            },
        )
    x = res.x.reshape(m, n_slices)
    return OptimizationResult(x, float(res.fun), int(res.nfev), bool(res.success), int(res.nit))


def _best(runs: list[OptimizationResult]) -> OptimizationResult:
    """The first run with the lowest value, with the totals of all."""
    best_value, best = np.inf, None
    for run in runs:
        if run.best_value < best_value:
            best_value, best = run.best_value, run
    return OptimizationResult(
        best.best_schedule,
        best_value,
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
