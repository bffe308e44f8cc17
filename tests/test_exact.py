"""The exact closure over F_p: the float -> F_p map, row reduction, the
closure's invariances, P(H) by the Krylov minimal polynomial, exact DFS
compressions, and the N=8 J=2 block, whose exact closure is su(20)."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenoforge.lie as lie
from zenoforge import exact
from zenoforge.chain import CollectiveSpec, build_chain, collective_spin, two_body
from zenoforge.lie import dfs_lie_dimension
from zenoforge.lindblad import LindbladSpec, LindbladTerm
from zenoforge.models import build_model

from conftest import (
    dense_superprojection,
    gauss_jordan_mod,
    heisenberg_bonds,
    integer_hermitian,
    proven_superprojection,
)

P0, P1 = exact.PRIMES
# the largest prime below 2^26 that is 1 mod 4: a GEMM of entries up to p/2 + 1
# may sum only 7 products there, so short rows cross every split
P26 = 67108837


def as_fraction_mod(x: float, p: int) -> int:
    q = Fraction(x)
    return q.numerator * pow(q.denominator, -1, p) % p


def unimodular(d, g):
    """An integer matrix of determinant 1 and its integer inverse."""
    upper = np.triu(g.integers(-2, 3, (d, d)), 1) + np.eye(d, dtype=int)
    lower = np.tril(g.integers(-2, 3, (d, d)), -1) + np.eye(d, dtype=int)
    s = upper @ lower
    return s.astype(float), np.rint(np.linalg.inv(s))


def dim_at(p, mats):
    f = exact.field(p)
    return exact.closure_dimension([f.map(m) for m in mats], f)


class TestField:
    def test_primes_are_one_mod_four_with_a_square_root_of_minus_one(self):
        for p in exact.PRIMES:
            f = exact.field(p)
            assert p % 4 == 1 and f.i * f.i % p == p - 1
            assert all(p % q for q in range(2, 1025))  # p < 2^20: no factor below 2^10

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    def test_floats_map_exactly(self, xs):
        for p in exact.PRIMES:
            got = exact.field(p).map(np.array(xs)) % p
            assert got.tolist() == [as_fraction_mod(x, p) for x in xs]

    def test_complex_entries_map_through_the_square_root_of_minus_one(self):
        f = exact.field(P0)
        z = np.array([0.5 - 3j, 1e-300j, -2.0**60 + 0.25j])
        want = [(as_fraction_mod(w.real, P0) + f.i * as_fraction_mod(w.imag, P0)) % P0 for w in z]
        assert (f.map(z) % P0).tolist() == want
        assert (f.conjugate.map(z) % P0).tolist() == (f.map(z.conj()) % P0).tolist()

    def test_images_are_the_two_embeddings(self):
        f = exact.field(P1)
        z = np.array([[0.5 - 3j, 1e-300j], [-2.0**60 + 0.25j, 7.0]])
        image, conjugate = f.images(z)
        assert np.array_equal(image % P1, f.map(z) % P1)
        assert np.array_equal(conjugate % P1, f.conjugate.map(z) % P1)
        with pytest.raises(ValueError, match="finite"):
            f.images(np.array([1j, np.nan]))

    def test_non_finite_input_and_vanishing_denominators_raise(self):
        f = exact.field(P0)
        with pytest.raises(ValueError, match="finite"):
            f.map(np.array([1.0, np.inf]))
        with pytest.raises(ValueError, match="vanishes"):
            f.scalar(Fraction(1, P0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_null_space_is_exact_and_rows_reduced(self, rows, cols, seed):
        g = np.random.default_rng(seed)
        f = exact.field(P1)
        a = f.map(g.integers(-3, 4, (rows, cols)) * (g.random((rows, 1)) < 0.7))
        e = exact.Echelon(f, cols)
        e.add(a)
        assert np.array_equal(e.rows[:, e.pivots] % P1, np.eye(e.pivots.size))
        v = exact.null_space(a, f)
        assert v.shape == (cols, cols - e.pivots.size)
        assert not (f.mm(a, v) % P1).any()

    def test_long_dot_products_are_split(self):
        f = exact.field(P0)
        n = 2**15 + 5
        a = np.full((1, n), float(P0 // 2))
        assert f.mm(a, a.T)[0, 0] % P0 == n * (P0 // 2) ** 2 % P0

    @pytest.mark.parametrize("inner", [1, 6, 7, 8, 14, 15, 47])
    def test_products_near_2_26_stay_exact(self, inner):
        # entries of the largest magnitude p/2 + 1 that a residue takes:
        # every 7-term sum plus an entry is just below 2^53, and the
        # deferred reductions of Field.mm and Echelon meet all of them
        assert exact._terms(P26) == 7
        f = exact.field(P26)
        g = np.random.default_rng(inner)
        big = P26 // 2 + 1
        a = g.choice([-big, big], (37, inner)).astype(float)
        b = g.choice([-big, big], (inner, 29)).astype(float)
        got = f.mm(a, b)
        want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % P26 for col in b.T] for row in a]
        assert (got % P26).tolist() == want
        assert np.abs(got).max() <= big
        e = exact.Echelon(f, 29)
        block = np.vstack([g.choice([-big, big], (11, 29)), got])
        e.add(block)
        oracle = gauss_jordan_mod(block.astype(int).tolist(), P26)
        assert e.pivots.size == len(oracle)
        assert np.abs(e.rows).max() <= big
        assert e.add(f.map(np.array(oracle, dtype=float))).shape[0] == 0


def planted(data, p):
    """A block of rows mod p with a planted rank, r << width or r ~ width,
    zero and duplicate rows mixed in, and how it is split into ``add`` calls."""
    width = data.draw(st.integers(1, 28), label="width")
    low, high = st.integers(0, min(3, width)), st.integers(max(width - 2, 0), width)
    rank = data.draw(st.one_of(low, high), label="rank")
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    f = exact.field(p)
    left = f.map(g.integers(-(p // 2), p // 2 + 1, (data.draw(st.integers(rank, rank + 6)), rank)))
    right = f.map(g.integers(-(p // 2), p // 2 + 1, (rank, width)))
    rows = f.mm(left, right)
    extra = [np.zeros((data.draw(st.integers(0, 3)), width))]
    if rows.shape[0]:
        pick = g.integers(0, rows.shape[0], data.draw(st.integers(0, 4)))
        extra.append(_mod_p(rows[pick] * g.integers(1, 4, (pick.size, 1)), p))
    rows = np.vstack([rows, *extra])
    rows = rows[g.permutation(rows.shape[0])]
    cuts = sorted(data.draw(st.lists(st.integers(0, rows.shape[0]), max_size=3), label="cuts"))
    return rows, np.split(rows, cuts)


def _mod_p(x, p):
    return exact.field(p).map(np.asarray(x, dtype=float))


class TestEchelon:
    """The engine against plain Gauss-Jordan on Python integers."""

    @pytest.mark.parametrize("rank, width", [(30, 700), (64, 600)])
    def test_wide_blocks_are_split_by_halves(self, rank, width):
        # 70 rows of 600 or more columns exceed a leaf at P0 (2^15 entries)
        f = exact.field(P0)
        g = np.random.default_rng(rank)
        left = f.map(g.integers(-(P0 // 2), P0 // 2 + 1, (70, rank)))
        a = f.mm(left, f.map(g.integers(-(P0 // 2), P0 // 2 + 1, (rank, width))))
        assert a.size > exact._terms(P0)
        e = exact.Echelon(f, width)
        assert e.add(a).shape == (rank, width)
        oracle = gauss_jordan_mod(a.astype(int).tolist(), P0)
        assert len(oracle) == rank
        assert np.array_equal(e.rows[:, e.pivots] % P0, np.eye(rank))
        assert e.add(f.map(np.array(oracle, dtype=float))).shape[0] == 0

    @pytest.mark.parametrize("p", [P0, P26])
    def test_an_identity_block_records_the_first_dependency(self, p):
        # rows (e_k, x_k) for n + 1 random x_k in n dimensions: every pivot
        # stays in the x block until the last row, whose x part vanishes and
        # whose identity part is the dependency; _krylov and _inverse rely on it
        f, n = exact.field(p), 9
        xs = f.map(np.random.default_rng(p).integers(-(p // 2), p // 2 + 1, (n + 1, n)))
        e = exact.Echelon(f, 2 * n + 1)
        for k, x in enumerate(xs):
            row = np.zeros((1, 2 * n + 1))
            row[0, k], row[0, n + 1 :] = 1.0, x
            (new,) = e.add(row)
            assert new[n + 1 :].any() == (k < n)
        assert e.pivots[:n].min() > n and e.pivots[n] <= n
        assert not (f.mm(new[None, : n + 1], xs) % p).any()
        a = f.map(np.random.default_rng(1).integers(-9, 10, (n, n)))
        inverse = exact._inverse(a, f)
        assert np.array_equal(f.mm(inverse, a) % p, np.eye(n))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([P0, P26]), st.data())
    def test_matches_the_reference_elimination(self, p, data):
        a, blocks = planted(data, p)
        f = exact.field(p)
        e = exact.Echelon(f, a.shape[1])
        added = sum(e.add(block).shape[0] for block in blocks)
        oracle = gauss_jordan_mod(a.astype(int).tolist(), p)
        assert e.pivots.size == added == len(oracle)
        rows, half = e.rows, p // 2 + 1
        assert np.array_equal(rows[:, e.pivots] % p, np.eye(e.pivots.size))
        assert np.abs(rows).max(initial=0) <= half
        v = exact.null_space(a, f)
        assert v.shape == (a.shape[1], a.shape[1] - len(oracle))
        assert not (f.mm(a, v) % p).any()
        # equal rank and the oracle's span inside the engine's: equal spans
        assert e.add(f.map(np.array(oracle, dtype=float).reshape(-1, a.shape[1]))).shape[0] == 0


def sparse_groups(g, p, width, groups, rank, zeros, bridges):
    """Rows mod p whose supports fall in disjoint column groups, rank + 3
    rows a group, each mixing at most two of ``rank`` sparse basis rows of
    its group. ``bridges`` of these rows get one more entry anywhere, so a
    few supports overlap, and ``zeros`` zero rows follow. Added group by
    group, the old rows are zero at most new pivots."""
    f, out = exact.field(p), []
    for cols in np.array_split(np.arange(width), groups):
        basis = np.zeros((rank, width))
        basis[:, cols] = g.integers(-(p // 2), p // 2 + 1, (rank, cols.size))
        basis[:, cols] *= g.random((rank, cols.size)) < 0.25
        mix = np.zeros((rank + 3, rank))
        for row in mix:
            row[g.choice(rank, min(2, rank), replace=False)] = g.integers(1, 5, min(2, rank))
        out.append(f.map(mix) @ basis)
    rows = np.vstack(out)
    pick = g.choice(rows.shape[0], bridges, replace=False)
    rows[pick, g.integers(0, width, bridges)] += 1.0
    return f.map(np.vstack([rows, np.zeros((zeros, width))]))


class TestRowSkip:
    """``_submul`` updates only the rows where a is nonzero, gathering them
    from a large block of which at most half are live: the engine still
    matches plain Gauss-Jordan on both sides of that rule."""

    @staticmethod
    def check(a, blocks, p):
        f = exact.field(p)
        e = exact.Echelon(f, a.shape[1])
        added = sum(e.add(block).shape[0] for block in blocks)
        oracle = gauss_jordan_mod(a.astype(int).tolist(), p)
        assert e.pivots.size == added == len(oracle)
        rows = e.rows
        assert np.array_equal(rows[:, e.pivots] % p, np.eye(e.pivots.size))
        assert np.abs(rows).max(initial=0) <= p // 2 + 1
        assert e.add(f.map(np.array(oracle, dtype=float).reshape(-1, a.shape[1]))).shape[0] == 0
        v = exact.null_space(a, f)
        assert v.shape == (a.shape[1], a.shape[1] - len(oracle))
        assert not (f.mm(a, v) % p).any()
        assert np.abs(v).max(initial=0) <= p // 2 + 1

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([P0, P26]), st.booleans(), st.data())
    def test_sparse_blocks_match_the_reference_elimination(self, p, wide, data):
        width = data.draw(st.integers(150, 200) if wide else st.integers(4, 40), label="width")
        groups = data.draw(st.integers(1, 4), label="groups")
        rank = data.draw(st.integers(1, max(1, min(40, width // groups))), label="rank")
        g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        zeros = data.draw(st.integers(0, 40), label="zeros")
        a = sparse_groups(g, p, width, groups, rank, zeros, data.draw(st.integers(0, 3)))
        a = a[np.argsort(g.random(a.shape[0]) + np.arange(a.shape[0]) // (rank + 3))]
        cuts = sorted(data.draw(st.lists(st.integers(0, a.shape[0]), max_size=4), label="cuts"))
        self.check(a, np.split(a, cuts), p)

    @pytest.mark.parametrize("width, gathered", [(160, True), (40, False)])
    def test_each_side_of_the_gather_rule(self, monkeypatch, width, gathered):
        # two groups added one after the other: the first group's rows are
        # zero at the second's pivots but where bridged; at width 160 their
        # rest has some 40 x 120 >= 2^12 entries, at width 40 at most 8 x 32
        g = np.random.default_rng(width)
        rank = 40 if gathered else 8
        a = sparse_groups(g, P0, width, 2, rank, 20, 2)
        live_gathers, in_place = [], []
        real = exact._submul

        def spy(c, x, b, p):
            if c.ndim == 2 and c.shape[0] > 1:
                live = np.count_nonzero(x.any(axis=1))
                if c.size >= exact._GATHER and 2 * live <= c.shape[0]:
                    live_gathers.append(live)
                else:
                    in_place.append(live)
            real(c, x, b, p)

        monkeypatch.setattr(exact, "_submul", spy)
        self.check(a, [a[: rank + 3], a[rank + 3 :]], P0)
        assert any(live_gathers) == gathered and in_place


class TestClosureDimension:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_invariant_under_rational_similarity_and_prime(self, d, count, seed):
        g = np.random.default_rng(seed)
        mats = [integer_hermitian(d, g) for _ in range(count)]
        s, s_inv = unimodular(d, g)
        similar = [s @ m @ s_inv for m in mats]
        dims = {dim_at(p, ms) for p in (*exact.PRIMES, 1048517) for ms in (mats, similar)}
        assert len(dims) == 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_traceless_generators_stay_below_u(self, d, count, seed):
        g = np.random.default_rng(seed)
        mats = [integer_hermitian(d, g) for _ in range(count)]
        for m in mats:
            m[-1, -1] -= np.trace(m)
        assert all(dim_at(p, mats) <= d * d - 1 for p in exact.PRIMES)
        dim = lie._exact_dimension(d, lambda p: [exact.field(p).map(m) for m in mats], True)
        assert dim <= d * d - 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_commuting_pairs_give_two(self, d, seed):
        g = np.random.default_rng(seed)
        a, b = g.integers(-5, 6, (2, d)).astype(float)
        if np.linalg.matrix_rank(np.stack([a, b])) < 2:
            a[0], b[0], a[1], b[1] = 1.0, 0.0, 0.0, 1.0
        s, s_inv = unimodular(d, g)
        pair = [s @ np.diag(a) @ s_inv, s @ np.diag(b) @ s_inv]
        assert all(dim_at(p, pair) == 2 for p in exact.PRIMES)

    def test_lie_verdict_of_plain_generators(self):
        heis = two_body(0, 1).realize(2) / 3.0
        assert lie.lie_dimension([heis]) == 1
        with pytest.raises(ValueError, match="at least one"):
            lie.lie_dimension([])

    def test_generic_pair_gives_u_d_at_the_first_prime(self, monkeypatch):
        g = np.random.default_rng(3)
        mats = [integer_hermitian(4, g) for _ in range(2)]
        calls = []
        real = exact.closure_dimension
        monkeypatch.setattr(exact, "closure_dimension", lambda gens, f: calls.append(f.p) or real(gens, f))
        assert dfs_lie_dimension(LindbladSpec(np.zeros((4, 4))), mats) == (16, (16,))
        assert lie.lie_dimension(mats) == 16
        # the joint dimension is the single block's; each reaches d^2 at P0 and stops
        assert calls == [P0, P0]


def test_closure_memory_stays_near_one_dense_matrix(monkeypatch):
    """u(30) on the 30-level atom's DFS block: the closure's traced peak is
    at most twice one dense d^2 x d^2 float64 matrix (6.5 MB), the echelon
    keeping only its non-pivot columns and updating them in place."""
    desc = build_model("n-level-atom", n_levels=30)
    closures = []
    real = exact.closure_dimension
    spy = lambda gens, f: closures.append((gens, f)) or real(gens, f)  # noqa: E731
    monkeypatch.setattr(exact, "closure_dimension", spy)
    assert dfs_lie_dimension(desc.spec, desc.controls) == (900, (900,))
    gens, f = next((gens, f) for gens, f in closures if gens[0].shape == (30, 30))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert real(gens, f) == 900
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 900 * 900 * 8, peak / (900 * 900 * 8)


class TestSuperproject:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_the_closed_form_exactly(self, n):
        spec, drift, control = build_chain(CollectiveSpec(n))
        jumps = [(t.rate, t.op) for t in spec.terms]
        images, minimal = exact.superproject([drift, control], jumps)
        assert minimal == [[0, -12, 1]] * 2  # C has the one nonzero eigenvalue 12 on each
        for p in exact.PRIMES:
            f = exact.field(p)
            third = f.scalar(Fraction(1, 3))
            for out, bonds in zip(images[p], heisenberg_bonds(n)):
                assert not ((out - f.map(bonds) * third) % p).any()

    def test_vanishing_denominators_raise(self, monkeypatch):
        # L = [[3, 2], [2, 0]] has the eigenvalues 4 and -1, so C = [L, [L, .]]
        # has the eigenvalues 0 and 25 on H, and nu(0) = -25 vanishes mod 5;
        # so does V^dag V = 5 for the eigenvector V = (2, 1) of a DFS block
        jump, h = np.array([[3.0, 2.0], [2.0, 0.0]]), np.diag([1.0, 0.0])
        spec = LindbladSpec(np.zeros((2, 2)), (LindbladTerm(1.0, jump),))
        assert dfs_lie_dimension(spec, [h])[0] == 1
        monkeypatch.setattr(exact, "PRIMES", (5,))
        with pytest.raises(ValueError, match="nu\\(0\\) vanishes mod 5"):
            exact.superproject([h], [(1.0, jump)])
        with pytest.raises(ValueError, match="mod 5"):
            dfs_lie_dimension(spec, [h])

    @pytest.mark.parametrize("gamma", [0.3, float(P0), float(P0 * P1)])
    def test_a_common_rate_changes_no_dimension(self, gamma):
        # a common factor of the rates is divided out, so a rate of P0 or
        # P0 P1 vanishes at no prime
        for n in (3, 4):
            at = lambda g: build_model("ising-chain", n_qubits=n, gammas=(g,) * 3)  # noqa: E731
            one, scaled = at(1.0), at(gamma)
            got = dfs_lie_dimension(scaled.spec, scaled.controls)
            assert got == dfs_lie_dimension(one.spec, one.controls)

    def test_generic_controls_under_a_rate_of_p0(self):
        # generic controls generate u(4); P(H) keeps u(2) + u(2) for either rate
        g = np.random.default_rng(0)
        hs = [integer_hermitian(4, g) / 8 for _ in range(2)]
        for gamma in (1.0, float(P0)):
            desc = build_model("two-qubit-dephasing", gamma=gamma)
            assert dfs_lie_dimension(desc.spec, hs) == (8, (4, 4))

    def test_a_rate_that_vanishes_mod_a_prime_raises(self):
        desc = build_model("ising-chain", n_qubits=3, gammas=(1.0, float(P0), 1.0))
        with pytest.raises(ValueError, match=f"a rate vanishes mod {P0}"):
            dfs_lie_dimension(desc.spec, desc.controls)

    def test_krylov_lengths_must_agree_between_primes(self, monkeypatch):
        # rates (2, 3, 4) on the N=3 chain: C has the eigenvalues 0 and
        # 18 +- 2 sqrt(3) on Z0 Z1, whose product 312 = 24 * 13 vanishes
        # mod 13, where the Krylov space of H shrinks from 3 to 2 with
        # nu(0) = 3; the P(H) it gives is no image of the rational one
        spec, drift, control = build_chain(CollectiveSpec(3, 2.0, 3.0, 4.0))
        jumps = [(t.rate, t.op) for t in spec.terms]
        lengths = {}
        for p in (13, P0):
            f = exact.field(p)
            lengths[p] = len(exact._krylov([drift], jumps, f)(0)[1]) - 1
        assert lengths == {13: 2, P0: 3}
        monkeypatch.setattr(exact, "PRIMES", (13, P0))
        with pytest.raises(ValueError, match="Krylov lengths .* differ between primes"):
            dfs_lie_dimension(spec, [drift, control])

    def test_a_wrong_coefficient_is_rejected_with_one_line(self, monkeypatch):
        # a candidate that agrees with every residue but is wrong over Q, as
        # Wang's reconstruction gives when the true coefficients are too
        # large for the primes so far: only the bound rejects it, at each
        # prime, up to the cap
        real = exact._wang
        monkeypatch.setattr(exact, "_wang", lambda u, m: real(u, m) + m)
        desc = build_model("two-qubit-dephasing")
        with pytest.raises(ValueError, match=f"not proven by {exact._MAX_PRIMES} primes") as info:
            dfs_lie_dimension(desc.spec, desc.controls)
        assert "\n" not in str(info.value)

    def test_float_rates_give_the_parent_verdict(self, monkeypatch):
        # the rates 0.7, 1.2 and 1.9 are coprime integers near 2^52 after
        # division by their common factor, so nu's coefficients have some
        # 180 bits: from fewer primes Wang reads wrong candidates, which the
        # bound must reject; the closure primes run first
        primes = []
        real = exact._krylov
        monkeypatch.setattr(exact, "_krylov", lambda h, j, f: primes.append(f.p) or real(h, j, f))
        desc = build_model("ising-chain", n_qubits=3, gammas=(0.7, 1.2, 1.9))
        assert dfs_lie_dimension(desc.spec, desc.controls) == (4, ())
        assert primes[:2] == list(exact.PRIMES) and len(primes) > len(exact.PRIMES)
        for h in desc.controls:
            got = proven_superprojection(desc.spec, h)
            assert np.max(np.abs(got - dense_superprojection(desc.spec, h))) < 1e-12

    def test_registered_models_need_no_further_prime(self, monkeypatch):
        # every unital model proves its P(H) from the two closure primes
        primes = set()
        real = exact._krylov
        monkeypatch.setattr(exact, "_krylov", lambda h, j, f: primes.add(f.p) or real(h, j, f))
        for desc in [build_model("two-qubit-dephasing")] + [
            build_model("ising-chain", n_qubits=n) for n in (3, 4, 5, 6)
        ]:
            dfs_lie_dimension(desc.spec, desc.controls)
        assert primes == set(exact.PRIMES)

    def test_singular_gram_raises(self):
        f = exact.field(5)
        v = np.array([[1.0], [2.0]])  # V^dag V = 5
        with pytest.raises(ValueError, match="singular mod 5"):
            exact.compress(np.eye(2), v, v, f)


class TestDfsLabels:
    def test_wrong_label_fails_with_one_line(self, monkeypatch):
        desc = build_model("two-qubit-dephasing")
        monkeypatch.setattr(lie, "_rational", lambda x: Fraction(x).limit_denominator(1) + Fraction(1, 2))
        with pytest.raises(ValueError, match="exact eigenspace of dimension 0") as info:
            dfs_lie_dimension(desc.spec, desc.controls)
        assert "\n" not in str(info.value)


def j2_block(n=8, j=2):
    """The stacked S+ and S_z - J of the chain at N=8, whose common null
    space is the J=2 highest-weight space."""
    s_plus = collective_spin(n, "x") + 1j * collective_spin(n, "y")
    s_z = collective_spin(n, "z")
    return np.vstack([s_plus, s_z - j * np.eye(2**n)])


class TestN8J2Block:
    """The traceless 20x20 J=2 block of the N=8 chain generates su(20)."""

    def test_exact_closure_gives_su20(self):
        stacked = j2_block()
        drift, control = heisenberg_bonds(8)

        def generators_at(p):
            f = exact.field(p)
            v = exact.null_space(f.map(stacked), f)
            w = exact.null_space(f.conjugate.map(stacked), f.conjugate)
            assert v.shape == (256, 20)
            return [exact.compress(f.map(h), v, w, f) for h in (drift, control)]

        for p in exact.PRIMES:  # every trace is exactly 0, so 399 is the upper bound
            gens = generators_at(p)
            assert not (np.trace(np.stack(gens), axis1=1, axis2=2) % p).any()
            assert exact.closure_dimension(gens, exact.field(p)) == 399
        assert lie._exact_dimension(20, generators_at) == 399  # su(20)
