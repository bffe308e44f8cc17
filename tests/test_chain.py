import itertools
import math

import numpy as np
import pytest

from zenoforge.chain import (
    CollectiveSpec,
    allowed_spins,
    asymptotic_dim,
    build_chain,
    collective_spin,
    dfs_dimension,
    dual_action_matrix,
    four_body_identities,
    generate_inventory_schedule,
    three_body,
    two_body,
)
from zenoforge.chain import inventory
from zenoforge.lindblad import (
    dissipator_matrix,
    dual_generator,
    unvec,
    vec,
)
from zenoforge.ops import pauli_on

from conftest import dense_superprojection


class TestBuildChain:
    def test_drift_and_control_commute(self):
        _, drift, control = build_chain(CollectiveSpec(4))
        assert np.max(np.abs(drift @ control - control @ drift)) < 1e-12

    def test_generator_is_unital(self):
        spec, _, _ = build_chain(CollectiveSpec(3))
        mat = dissipator_matrix(spec)
        assert np.max(np.abs(mat @ vec(np.eye(8)))) < 1e-10

    def test_collective_spin_spectrum(self):
        sz = collective_spin(3, "z")
        eigs = sorted(set(np.round(np.linalg.eigvalsh(sz), 9)))
        assert eigs == [-1.5, -0.5, 0.5, 1.5]
        with pytest.raises(ValueError, match="at least one qubit"):
            collective_spin(0, "z")

    def test_rejects_small_chain_and_bad_rates(self):
        with pytest.raises(ValueError):
            CollectiveSpec(2)
        with pytest.raises(ValueError):
            CollectiveSpec(3, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            CollectiveSpec(3, 0.0, 0.0, 0.0)


class TestDfsDimension:
    @pytest.mark.parametrize(
        "j,n,expected",
        [
            (0.5, 3, 2),
            (1.5, 3, 1),
            (0, 6, 5),
            (1, 6, 9),
            (2, 6, 5),
            (3, 6, 1),
            (0, 4, 2),
            (1, 4, 3),
            (2, 4, 1),
        ],
    )
    def test_table_values(self, j, n, expected):
        assert dfs_dimension(j, n) == expected

    @pytest.mark.parametrize("n", range(1, 12))
    def test_top_multiplet_is_unique(self, n):
        assert dfs_dimension(n / 2, n) == 1

    def test_parity_errors(self):
        with pytest.raises(ValueError):
            dfs_dimension(1, 3)  # integer J needs even N
        with pytest.raises(ValueError):
            dfs_dimension(0.5, 4)
        with pytest.raises(ValueError):
            dfs_dimension(4, 6)  # J > N/2

    def test_total_dimension_sums_to_hilbert_space(self):
        # sum_J (2J+1) d_{J,N} = 2^N is the Clebsch-Gordan completeness check
        for n in range(3, 9):
            total = sum(
                round(2 * j + 1) * dfs_dimension(j, n) for j in allowed_spins(n)
            )
            assert total == 2**n

    def test_table_su_u_sums_for_n6(self):
        dims = [dfs_dimension(j, 6) for j in allowed_spins(6)]
        assert sum(d * d for d in dims) == 132
        assert sum(d * d - 1 for d in dims) == 128


class TestDualActionMatrix:
    def test_isotropic_kernel_direction(self):
        mat = dual_action_matrix(1.0, 1.0, 1.0)
        assert np.max(np.abs(mat @ np.ones(3))) < 1e-12

    def test_isotropic_nonzero_eigenvalues(self):
        w = np.linalg.eigvalsh(dual_action_matrix(1.0, 1.0, 1.0))
        nonzero = sorted(np.round(w[np.abs(w) > 1e-9], 9))
        assert nonzero == [-6.0, -6.0]

    def test_zero_rates_give_zero_matrix(self):
        assert np.max(np.abs(dual_action_matrix(0.0, 0.0, 0.0))) == 0

    def test_matches_dense_dual_generator(self):
        rates = (0.8, 1.1, 1.7)
        spec, _, _ = build_chain(CollectiveSpec(3, *rates))
        dual = dual_generator(spec)
        bonds = [
            pauli_on(3, 0, a) @ pauli_on(3, 1, a) for a in "xyz"
        ]
        m3 = dual_action_matrix(*rates)
        for i, b in enumerate(bonds):
            image = unvec(dual @ vec(b), 8)
            expected = sum(m3[i, j] * bonds[j] for j in range(3))
            assert np.max(np.abs(image - expected)) < 1e-9


def swap(n, m, k):
    """Permutation matrix exchanging qubits m and k, site 0 most significant."""
    axes = list(range(n))
    axes[m], axes[k] = k, m
    return np.eye(2**n).reshape((2,) * n + (2**n,)).transpose(axes + [n]).reshape(2**n, 2**n)


class TestSymOps:
    @pytest.mark.parametrize("n", [3, 4])
    def test_realizations_commute_with_collective_spins(self, n):
        ops = [two_body(0, 1), two_body(0, n - 1), three_body(0, 1, 2)]
        for sym in ops:
            dense = sym.realize(n)
            for axis in "xyz":
                s = collective_spin(n, axis)
                assert np.max(np.abs(dense @ s - s @ dense)) < 1e-10

    def test_three_body_antisymmetry(self):
        assert np.allclose(
            three_body(1, 0, 2).realize(3), -three_body(0, 1, 2).realize(3)
        )
        assert np.allclose(
            three_body(1, 2, 0).realize(3), three_body(0, 1, 2).realize(3)
        )

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_two_body_is_twice_swap_minus_one(self, n):
        for m, k in itertools.combinations(range(n), 2):
            expected = 2.0 * swap(n, m, k) - np.eye(2**n)
            assert np.array_equal(two_body(m, k).realize(n), expected)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_three_body_is_commutator_of_bonds(self, n):
        # [H_ij, H_jk] = -2i H_ijk from [sigma_a, sigma_b] = 2i eps_abc sigma_c
        bond = {
            (m, k): 2.0 * swap(n, m, k) - np.eye(2**n)
            for m, k in itertools.permutations(range(n), 2)
        }
        for i, j, k in itertools.permutations(range(n), 3):
            ij, jk = bond[(i, j)], bond[(j, k)]
            expected = 0.5j * (ij @ jk - jk @ ij)
            assert np.array_equal(three_body(i, j, k).realize(n), expected)

    def test_two_body_validates_order(self):
        with pytest.raises(ValueError):
            two_body(2, 1)
        with pytest.raises(ValueError):
            three_body(0, 0, 1)


class TestInventorySchedule:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_identity_verifies_dense(self, n):
        schedule = generate_inventory_schedule(n)
        assert max(ident.residual for ident in schedule) < 1e-9

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_final_inventory_counts(self, n):
        twos, threes = inventory(generate_inventory_schedule(n))
        assert len(twos) == math.comb(n, 2)
        assert len(threes) == math.comb(n, 3)

    def test_n3_inventory_is_the_four_operators(self):
        twos, threes = inventory(generate_inventory_schedule(3))
        assert twos == {(0, 1), (0, 2), (1, 2)}
        assert threes == {(0, 1, 2)}

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            generate_inventory_schedule(2)


class TestFourBodyIdentities:
    @pytest.mark.parametrize("n", [4, 5])
    def test_identities_hold_dense(self, n):
        for ident in four_body_identities(n):
            assert ident.residual < 1e-9

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            four_body_identities(3)


class TestAsymptotics:
    def test_ratio_band_for_moderate_n(self):
        for n in range(16, 25):
            exact = sum(dfs_dimension(j, n) ** 2 for j in allowed_spins(n))
            ratio = exact / asymptotic_dim(n)
            assert 0.8 <= ratio <= 1.1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            asymptotic_dim(0)


class TestHeisenbergProjection:
    @pytest.mark.parametrize("n", [3, 4])
    def test_superprojection_turns_ising_into_heisenberg(self, n):
        spec, drift, control = build_chain(CollectiveSpec(n))
        heis_drift = sum(
            (1 / 3) * two_body(m, m + 1).realize(n) for m in range(n - 1)
        )
        heis_control = (1 / 3) * two_body(0, 1).realize(n)
        assert np.max(np.abs(dense_superprojection(spec, drift) - heis_drift)) < 1e-8
        assert np.max(np.abs(dense_superprojection(spec, control) - heis_control)) < 1e-8
