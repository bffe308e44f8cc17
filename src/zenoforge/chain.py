"""N-qubit Ising chain under collective decoherence.

Model builders, the DFS dimension combinatorics d_{J,N}, the 3x3 action of
the (self-dual) collective generator on nearest-neighbor couplings, the
inductive generation schedule for rotationally symmetric two- and
three-body operators, and the large-N dimension estimate.

Two- and three-body operators are named by their sites; every commutator
identity is checked on their dense realizations, each built once per
schedule.

Table I's dim_L_DFS is ``sector_lie_dimension``: per spin J, the blocks
A_J of P(drift) and P(control) mod p from integer S+ and ZZ, with no 2^N
operator (cf. Zeier and Schulte-Herbrueggen, J. Math. Phys. 52, 113510):
1. P(H) = sum_J 1_(2J+1) (x) A_J (Schur-Weyl): the algebra is in sum u(d_J).
2. A traceless block part closing to d_J^2 - 1 mod p proves su(d_J).
3. Equal-size blocks with no intertwiner mod p are unlinked (Goursat).
4. The exact rank of Tr(Pi_J H) over Q adds the centre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations

import numpy as np

from . import blas, exact
from .lindblad import LindbladSpec, LindbladTerm
from .ops import _qubit_dim, pauli_on

__all__ = [
    "CollectiveSpec",
    "two_body",
    "three_body",
    "collective_spin",
    "build_chain",
    "dfs_dimension",
    "allowed_spins",
    "dual_action_matrix",
    "generate_inventory_schedule",
    "four_body_identities",
    "asymptotic_dim",
    "sector_lie_dimension",
    "CommutatorIdentity",
]


@dataclass(frozen=True)
class CollectiveSpec:
    """Chain size and collective decoherence rates."""

    n_qubits: int
    gamma_x: float = 1.0
    gamma_y: float = 1.0
    gamma_z: float = 1.0

    def __post_init__(self):
        if self.n_qubits < 3:
            raise ValueError("the chain model needs at least 3 qubits")
        if min(self.gamma_x, self.gamma_y, self.gamma_z) < 0:
            raise ValueError("rates must be non-negative")
        if max(self.gamma_x, self.gamma_y, self.gamma_z) <= 0:
            raise ValueError("at least one rate must be positive")


@dataclass(frozen=True)
class two_body:
    """H_mn = sigma(m) . sigma(n), sites 0-based with m < n."""

    m: int
    n: int

    def __post_init__(self):
        if not 0 <= self.m < self.n:
            raise ValueError(f"need 0 <= m < n, got ({self.m}, {self.n})")

    def realize(self, n_qubits: int) -> np.ndarray:
        d = _qubit_dim(n_qubits)
        out = np.zeros((d, d), dtype=complex)
        for axis in "xyz":
            out += pauli_on(n_qubits, self.m, axis) @ pauli_on(n_qubits, self.n, axis)
        return out


@dataclass(frozen=True)
class three_body:
    """H_ijk = sigma(i) . (sigma(j) x sigma(k)); odd permutations flip sign."""

    i: int
    j: int
    k: int

    def __post_init__(self):
        if len({self.i, self.j, self.k}) != 3 or min(self.i, self.j, self.k) < 0:
            raise ValueError(f"need three distinct sites, got {(self.i, self.j, self.k)}")

    def realize(self, n_qubits: int) -> np.ndarray:
        si, sj, sk = (
            {axis: pauli_on(n_qubits, site, axis) for axis in "xyz"}
            for site in (self.i, self.j, self.k)
        )
        d = _qubit_dim(n_qubits)
        out = np.zeros((d, d), dtype=complex)
        for a, b, c in ("xyz", "yzx", "zxy"):  # cyclic (a, b, c): eps_abc = 1
            out += si[a] @ (sj[b] @ sk[c] - sj[c] @ sk[b])
        return out

    def sorted_key(self) -> tuple[int, int, int]:
        return tuple(sorted((self.i, self.j, self.k)))


def collective_spin(n: int, axis: str) -> np.ndarray:
    """S_alpha = (1/2) sum_k sigma_alpha^(k) on n qubits."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return 0.5 * sum(pauli_on(n, k, axis) for k in range(n))


def build_chain(spec: CollectiveSpec) -> tuple[LindbladSpec, np.ndarray, np.ndarray]:
    """Ising drift, first-bond control, and the collective dissipator."""
    n = spec.n_qubits
    drift = sum(pauli_on(n, i, "z") @ pauli_on(n, i + 1, "z") for i in range(n - 1))
    control = pauli_on(n, 0, "z") @ pauli_on(n, 1, "z")
    rates = {"x": spec.gamma_x, "y": spec.gamma_y, "z": spec.gamma_z}
    terms = tuple(LindbladTerm(rates[axis], collective_spin(n, axis)) for axis in "xyz")
    return LindbladSpec(np.zeros((2**n, 2**n)), terms, (2,) * n), drift, control


def dfs_dimension(j, n: int) -> int:
    """d_{J,N} = (2J+1) N! / ((N/2+J+1)! (N/2-J)!), exactly in integers."""
    twoj = round(2 * j)
    if abs(2 * j - twoj) > 1e-12 or twoj < 0:
        raise ValueError(f"J must be a non-negative half-integer, got {j}")
    if (n - twoj) % 2 != 0 or twoj > n:
        raise ValueError(f"(J, N) = ({j}, {n}) has invalid parity")
    k = (n - twoj) // 2  # K = N/2 - J
    return math.comb(n + 1, k) * (n + 1 - 2 * k) // (n + 1)


def allowed_spins(n: int) -> list[float]:
    """Total spins J for N qubits, largest first."""
    return [(n - 2 * k) / 2 for k in range(n // 2 + 1)]


def dual_action_matrix(gamma_x: float, gamma_y: float, gamma_z: float) -> np.ndarray:
    """Action of the collective generator on the couplings
    (sigma_x sigma_x, sigma_y sigma_y, sigma_z sigma_z) of one bond."""
    gx, gy, gz = gamma_x, gamma_y, gamma_z
    return -2.0 * np.array(
        [
            [gy + gz, -gz, -gy],
            [-gz, gz + gx, -gx],
            [-gy, -gx, gx + gy],
        ]
    )


def asymptotic_dim(n: int) -> float:
    """Large-N estimate 4^N / (sqrt(pi) N^(3/2)) of sum_J d_{J,N}^2."""
    if n < 1:
        raise ValueError("need n >= 1")
    return 4.0**n / (math.sqrt(math.pi) * n**1.5)


def _weights(n: int) -> list[np.ndarray]:
    """The basis states x with w sites in |1> (site 0 the leading bit), by
    w: the states of weight m = w - n/2, increasing."""
    ones = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).sum(1)
    return [np.flatnonzero(ones == w) for w in range(n + 1)]


def _raising(n: int, states: list[np.ndarray], w: int) -> np.ndarray:
    """S+ from weight w to w + 1 as a 0/1 matrix; S- back is its transpose."""
    index = np.zeros(2**n, dtype=np.intp)
    index[states[w + 1]] = np.arange(states[w + 1].size)
    out = np.zeros((states[w + 1].size, states[w].size))
    for bit in (1 << s for s in range(n)):
        cols = np.flatnonzero(states[w] & bit == 0)
        out[index[states[w][cols] | bit], cols] = 1.0
    return out


def _bonds(n: int, x: np.ndarray) -> np.ndarray:
    """The diagonals of the drift sum_i Z_i Z_(i+1) and the control Z_0 Z_1
    at the states x, (2, x.size); zero for n = 1, which has no bond."""
    z = 2 * ((x[:, None] >> np.arange(n - 1, -1, -1)) & 1) - 1  # z[:, i] of site i
    bonds = z[:, :-1] * z[:, 1:]
    return np.stack([bonds.sum(1), bonds[:, 0] if n > 1 else 0 * x]).astype(float)


def _sectors(n: int, f: exact.Field):
    """(J, states, V, blocks) per spin J, largest first: V spans W_J = ker S+
    on the weight-J ``states``; ``blocks`` are drift's and control's A_J,
    the mean over k of the compressions through V_k = S-^k V. As V_k^T V_k
    = c_k V^T V, that is one ``exact.compress`` through V of
    sum_k S+^k H S-^k / ((2J + 1) c_k), summed from the lowest weight up."""
    states = _weights(n)
    for j in allowed_spins(n):
        w, twoj = round(n / 2 + j), round(2 * j)
        v = exact.null_space(_raising(n, states, w), f) if w < n else np.ones((1, 1))
        if v.shape[1] != dfs_dimension(j, n):
            raise ValueError(f"N={n}: W_J of J={Fraction(j)} has dimension {v.shape[1]} mod {f.p}")
        mean = 0.0
        for k in range(twoj, -1, -1):  # weight J - k
            c = math.factorial(k) * math.factorial(twoj) // math.factorial(twoj - k)
            if k < twoj:
                up = _raising(n, states, w - k - 1)
                mean = f.mm(f.mm(up, mean), up.T)
            diagonal = f.reduce(pow((twoj + 1) * c, -1, f.p) * _bonds(n, states[w - k]))
            mean = f.reduce(mean + diagonal[:, :, None] * np.eye(diagonal.shape[1]))
        yield j, states[w], v, exact.compress(mean, v, v, f)  # V is real: its own conjugate


def _intertwiners(a: np.ndarray, b: np.ndarray, f: exact.Field) -> int:
    """dim {X : X a_k = s b_k X for all k} mod p, summed over s = 1 and -1:
    the inner and (the blocks being real) outer isomorphisms of a link."""
    eye, total = np.eye(a.shape[-1]), 0
    for s in (1, -1):
        rows = np.vstack([np.kron(eye, x.T) - s * np.kron(y, eye) for x, y in zip(a, b)])
        total += exact.null_space(rows, f).shape[1]
    return total


def _trace_rank(n: int) -> int:
    """The rank over Q of Tr(Pi_J H), J by H = drift, control. Pi_J's
    diagonal is d_J / C(n, w) on the weight-w states, |w - n/2| <= J: it
    commutes with the site permutations, transitive on those states."""
    sums = [_bonds(n, x).sum(1).astype(int).tolist() for x in _weights(n)]
    rows = [
        [
            sum(Fraction(dfs_dimension(j, n) * sums[w][k], math.comb(n, w))
                for w in range(round(n / 2 - j), round(n / 2 + j) + 1))
            for k in (0, 1)
        ]
        for j in allowed_spins(n)
    ]
    return any(map(any, rows)) + any(a * d != b * c for (a, b), (c, d) in combinations(rows, 2))


def sector_lie_dimension(n: int) -> int:
    """The exact dimension of the Lie algebra L of P(drift) and P(control)
    on the N = n chain's DFS's (proof in the module docstring): [L, L] is
    the sum of su(d_J) over the blocks with d_J >= 2, and L / [L, L] has
    the trace rank's dimension. Raises ValueError when the first prime
    leaves a block below su(d_J) or two blocks of one size may be linked."""
    f = exact.field(exact.PRIMES[0])
    dim, seen = _trace_rank(n), {}
    with blas.one_thread():  # blocks up to d = 48 at N = 9: a second thread only spins
        for j, _, _, blocks in _sectors(n, f):
            d = blocks.shape[-1]
            if d < 2:
                continue
            trace = np.trace(blocks, axis1=1, axis2=2)[:, None, None] * pow(d, -1, f.p)
            traceless = f.reduce(blocks - f.reduce(trace) * np.eye(d))
            closed = exact.closure_dimension(traceless, f)
            if closed < d * d - 1:
                raise ValueError(
                    f"N={n}: the J={Fraction(j)} block closes to dimension {closed} mod {f.p}, "
                    f"below su({d})'s {d * d - 1}; dim_L_DFS is not proven"
                )
            for other, b in seen.get(d, []):
                if linked := _intertwiners(traceless, b, f):
                    raise ValueError(
                        f"N={n}: the J={Fraction(j)} and J={Fraction(other)} blocks of size {d} "
                        f"have {linked} intertwiners mod {f.p}; dim_L_DFS is not proven"
                    )
            seen.setdefault(d, []).append((j, traceless))
            dim += d * d - 1
    return dim


@dataclass(frozen=True)
class CommutatorIdentity:
    """A dense-verified identity i[A, B] = C and the operators it gains."""

    label: str
    residual: float
    gained: tuple[two_body | three_body, ...]


_IDENTITY_TOL = 1e-9  # largest entry of i[A, B] - C that a dense check accepts


def _verify(label, a, b, rhs, gained) -> CommutatorIdentity:
    lhs = 1j * (a @ b - b @ a)
    residual = float(np.max(np.abs(lhs - rhs)))
    if residual > _IDENTITY_TOL:
        raise AssertionError(f"identity {label} fails dense check: {residual:.2e}")
    return CommutatorIdentity(label, residual, tuple(gained))


def _realizer(n: int):
    """h(m, n) -> dense H_mn and h(i, j, k) -> dense H_ijk on n qubits,
    each realized on first use and then reused."""

    @cache
    def h(*sites):
        op = two_body(*sites) if len(sites) == 2 else three_body(*sites)
        return op.realize(n)

    return h


def generate_inventory_schedule(n: int) -> list[CommutatorIdentity]:
    """Inductive schedule generating all two- and three-body operators.

    Starting from the (unscaled) projected chain couplings
    ht0 = sum_m H_{m,m+1} and ht1 = H_{01}, emits commutator identities,
    each verified dense within ``_IDENTITY_TOL``, whose gains accumulate to all
    C(N,2) two-body and C(N,3) three-body operators. Note the first
    commutator comes out as i[ht0, ht1] = -2 H_{012}.
    """
    if n < 3:
        raise ValueError("the schedule needs at least 3 qubits")
    h = _realizer(n)
    ht0 = sum(h(m, m + 1) for m in range(n - 1))
    out = []

    # Base case: everything on the first three qubits.
    out.append(_verify("i[ht0, ht1]", ht0, h(0, 1), -2.0 * h(0, 1, 2), (three_body(0, 1, 2),)))
    first = 4.0 * h(0, 2) - 4.0 * h(1, 2)
    out.append(_verify("i[H01, H012]", h(0, 1), h(0, 1, 2), first, ()))
    out.append(
        _verify(
            "i[i[H01, H012], H012]",
            first,
            h(0, 1, 2),
            16.0 * h(0, 2) + 16.0 * h(1, 2) - 32.0 * h(0, 1),
            (two_body(0, 2), two_body(1, 2)),
        )
    )

    # Induction: reach one more qubit per round (0-based new site = `new`).
    for new in range(3, n):
        prev, prev2 = new - 1, new - 2
        # Step 1: extend to the new qubit through the drift sum.
        out.append(
            _verify(
                f"step1 n={new}",
                h(prev2, prev),
                ht0,
                -2.0 * h(new - 3, prev2, prev) + 2.0 * h(prev2, prev, new),
                (three_body(prev2, prev, new),),
            )
        )
        # Step 2: the two bonds touching the new qubit from its neighbors.
        pair = 4.0 * h(prev2, new) - 4.0 * h(prev, new)
        out.append(_verify(f"step2a n={new}", h(prev2, prev), h(prev2, prev, new), pair, ()))
        out.append(
            _verify(
                f"step2b n={new}",
                pair,
                h(prev2, prev, new),
                16.0 * h(prev2, new) + 16.0 * h(prev, new) - 32.0 * h(prev2, prev),
                (two_body(prev2, new), two_body(prev, new)),
            )
        )
        # Step 3: walk the new bond down to qubit 0.
        for m in range(new - 3, -1, -1):
            out.append(
                _verify(
                    f"step3a n={new} m={m}",
                    h(m, m + 1),
                    h(m + 1, new),
                    2.0 * h(m, m + 1, new),
                    (three_body(m, m + 1, new),),
                )
            )
            out.append(
                _verify(
                    f"step3b n={new} m={m}",
                    h(m, m + 1),
                    h(m, m + 1, new),
                    4.0 * h(m, new) - 4.0 * h(m + 1, new),
                    (two_body(m, new),),
                )
            )
        # Step 4: all remaining three-body operators touching the new qubit.
        for m1, m2 in combinations(range(new), 2):
            out.append(
                _verify(
                    f"step4 n={new} ({m1},{m2})",
                    h(m1, m2),
                    h(m2, new),
                    2.0 * h(m1, m2, new),
                    (three_body(m1, m2, new),),
                )
            )
    return out


def inventory(identities) -> tuple[set, set]:
    """Distinct two- and three-body operators gained by a schedule,
    seeded with the generators' own bond H_{01}."""
    twos = {(0, 1)}
    threes = set()
    for ident in identities:
        for op in ident.gained:
            if isinstance(op, two_body):
                twos.add((op.m, op.n))
            elif isinstance(op, three_body):
                threes.add(op.sorted_key())
    return twos, threes


def four_body_identities(n: int):
    """Dense checks that commutators only reach differences of four-body
    operators: i[H_ij, H_jkl] and i[H_ijk, H_ij H_kl] on sites 0..3."""
    if n < 4:
        raise ValueError("need at least 4 qubits")
    h = _realizer(n)
    first = _verify(
        "i[Hij, Hjkl]",
        h(0, 1),
        h(1, 2, 3),
        2.0 * (h(0, 2) @ h(1, 3)) - 2.0 * (h(0, 3) @ h(1, 2)),
        (),
    )
    second = _verify(
        "i[Hijk, Hij Hkl]",
        h(0, 1, 2),
        h(0, 1) @ h(2, 3),
        4.0 * h(1, 3) - 4.0 * h(0, 3) + 2.0 * (h(0, 3) @ h(1, 2)) - 2.0 * (h(0, 2) @ h(1, 3)),
        (),
    )
    return [first, second]
