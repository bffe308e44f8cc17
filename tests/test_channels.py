import numpy as np
import pytest

from zenoforge.channels import (
    _eps2_weight,
    choi,
    epsilon1,
    epsilon2,
    gate_error_report,
    reduced_channel,
    reduced_error,
    superop_tensor,
    unitary_superop,
)
from zenoforge.lindblad import Superoperator, vec

from conftest import random_cptp_superop, random_unitary, superop_from_choi, system_swap

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestChoi:
    def test_identity_channel_is_rank_one_projector(self):
        j = choi(np.eye(4))
        assert np.trace(j).real == pytest.approx(1.0)
        eigs = np.linalg.eigvalsh(j)
        assert int(np.sum(eigs > 1e-12)) == 1
        assert np.max(np.abs(j @ j - j)) <= 1e-12  # J^2 = J

    def test_depolarizing_channel(self):
        d = 2
        m = np.outer(vec(np.eye(d)) / d, vec(np.eye(d)))
        j = choi(m)
        assert np.allclose(np.linalg.eigvalsh(j), 0.25)
        assert np.trace(j).real == pytest.approx(1.0)
        assert np.max(np.abs(j @ j - j)) > 1e-9

    def test_round_trip_is_identity(self, rng):
        m = random_cptp_superop(3, rng)
        assert np.max(np.abs(superop_from_choi(choi(m)) - m)) < 1e-12

    def test_composition_law(self, rng):
        s = system_swap(2, 2)
        for _ in range(5):
            m1 = random_cptp_superop(2, rng)
            m2 = random_cptp_superop(2, rng)
            lhs = choi(superop_tensor(m1, 2, m2, 2))
            rhs = s @ np.kron(choi(m1), choi(m2)) @ s.T
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_random_cptp_sampler_is_cptp(self, rng):
        for d in (2, 3):
            m = random_cptp_superop(d, rng)
            tid = vec(np.eye(d))
            assert np.max(np.abs(m.conj().T @ tid - tid)) <= 1e-10
            assert np.linalg.eigvalsh(choi(m)).min() >= -1e-10

    def test_rejects_nonsquare_superoperator(self):
        with pytest.raises(ValueError):
            choi(np.eye(5))


class TestEpsilon1:
    def test_identical_channels(self, rng):
        m = random_cptp_superop(2, rng)
        assert epsilon1(m, m) == 0.0

    def test_matches_choi_rescaling(self, rng):
        mt, mg = random_cptp_superop(4, rng), random_cptp_superop(4, rng)
        jdist = np.linalg.norm(choi(mt) - choi(mg)) ** 2
        assert epsilon1(mt, mg) == pytest.approx(16 * jdist, rel=1e-12)

    def test_sigma_x_vs_identity_hand_value(self):
        # brute force: ||kron(sx,sx) - I_4||_F^2 = 4 + 4 - 2*Tr{sx}^2 = 8
        assert epsilon1(unitary_superop(SX), np.eye(4)) == pytest.approx(8.0)

    def test_unitary_invariance(self, rng):
        mt, mg = random_cptp_superop(2, rng), random_cptp_superop(2, rng)
        u = unitary_superop(random_unitary(2, rng))
        assert epsilon1(u @ mt, u @ mg) == pytest.approx(epsilon1(mt, mg), rel=1e-10)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            epsilon1(np.eye(4), np.eye(9))


class TestEpsilon2:
    def test_factorized_goal_gives_zero(self, rng):
        for _ in range(5):
            u, v = random_unitary(2, rng), random_unitary(2, rng)
            et = superop_tensor(unitary_superop(u), 2, unitary_superop(v), 2)
            assert abs(epsilon2(et, u)) < 1e-10

    def test_unitary_simplification(self, rng):
        # Tr{J^2 ...} reduces to 1 - Tr{J(U_T) S (J(U_G) (x) 1) S} for unitary targets
        s = system_swap(2, 2)
        for _ in range(5):
            ut = random_unitary(4, rng)
            ug = random_unitary(2, rng)
            et = unitary_superop(ut)
            jt = choi(et)
            ju = choi(unitary_superop(ug))
            simplified = 1 - np.real(np.trace(jt @ s @ np.kron(ju, np.eye(4)) @ s.T))
            assert epsilon2(et, ug) == pytest.approx(simplified, abs=1e-10)

    def test_lower_bound_property(self, rng):
        s = system_swap(2, 2)
        for _ in range(40):
            et = random_cptp_superop(4, rng)
            ug = random_unitary(2, rng)
            e2 = epsilon2(et, ug)
            jt = choi(et)
            jg = choi(unitary_superop(ug))
            for _ in range(5):
                etilde = random_cptp_superop(2, rng)
                bound = (
                    np.linalg.norm(
                        jt - s @ np.kron(jg, choi(etilde)) @ s.T
                    )
                    ** 2
                )
                assert e2 <= bound + 1e-10

    def test_nonphysical_flag(self, rng):
        scaled = Superoperator(1.7 * unitary_superop(random_unitary(4, rng)))
        assert gate_error_report(scaled, np.eye(2), np.eye(4)).nonphysical
        unitary = Superoperator(unitary_superop(random_unitary(4, rng)))
        assert not gate_error_report(unitary, np.eye(2), np.eye(4)).nonphysical

    @pytest.mark.parametrize("d1, d2", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2)])
    def test_weight_matches_swap_product(self, rng, d1, d2):
        # the paper's 1 - S (J(U_G) (x) 1) S^T with the dense swap as the oracle
        u = random_unitary(d1, rng)
        ju = choi(unitary_superop(u))
        s = system_swap(d1, d2)
        d = d1 * d2
        oracle = np.eye(d * d) - s @ np.kron(ju, np.eye(d2 * d2)) @ s.T
        assert np.array_equal(_eps2_weight(u, d), oracle)

    def test_non_bipartite_rejected(self):
        with pytest.raises(ValueError):
            epsilon2(np.eye(9), np.eye(2))


class TestReducedChannel:
    def test_product_unitary_reduces_to_system1_factor(self, rng):
        u, v = random_unitary(2, rng), random_unitary(2, rng)
        et = Superoperator(superop_tensor(unitary_superop(u), 2, unitary_superop(v), 2))
        red = reduced_channel(et, np.eye(2) / 2)
        assert np.max(np.abs(red.matrix - unitary_superop(u))) < 1e-12

    def test_swap_channel_reduces_to_preparation(self):
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        et = Superoperator(unitary_superop(swap))
        red = reduced_channel(et, np.diag([1.0, 0.0]))
        constant = np.outer(vec(np.diag([1.0, 0.0])), vec(np.eye(2)))
        assert np.max(np.abs(red.matrix - constant)) < 1e-12

    def test_reduced_map_is_trace_preserving(self, rng):
        et = Superoperator(random_cptp_superop(4, rng))
        rho2 = np.diag([0.3, 0.7])
        red = reduced_channel(et, rho2).matrix
        tid = vec(np.eye(2))
        assert np.max(np.abs(red.conj().T @ tid - tid)) <= 1e-10

    def test_dimension_mismatch(self, rng):
        et = Superoperator(random_cptp_superop(4, rng))
        with pytest.raises(ValueError):
            reduced_channel(et, np.eye(3))

    def test_reduced_error_by_partial_trace(self, rng):
        # column (k, l) of the reduced map is Tr_2 E(|k><l| (x) 1/2), traced by hand
        et = Superoperator(random_cptp_superop(6, rng))
        u = random_unitary(3, rng)
        columns = []
        for k in range(3):
            for l in range(3):
                rho = np.kron(np.outer(np.eye(3)[k], np.eye(3)[l]), np.eye(2) / 2)
                out = (et.matrix @ vec(rho)).reshape(3, 2, 3, 2)
                columns.append(vec(np.einsum("aibi->ab", out)))
        expected = np.linalg.norm(np.stack(columns, axis=1) - unitary_superop(u)) ** 2
        assert reduced_error(et, u) == pytest.approx(expected, rel=1e-12)


def unitary_pair_diamond_distance(u, v):
    """Oracle: exact diamond distance between unitary conjugations from
    the eigenvalue arc of u^dag v."""
    phases = np.angle(np.linalg.eigvals(u.conj().T @ v))
    # distance from the origin to the convex hull of the eigenvalue points
    sorted_ph = np.sort(phases)
    gaps = np.diff(np.concatenate([sorted_ph, [sorted_ph[0] + 2 * np.pi]]))
    largest_gap = np.max(gaps)
    arc = 2 * np.pi - largest_gap
    if arc >= np.pi:
        return 2.0
    return float(2 * np.sin(arc / 2))


class TestDiamondUpper:
    def test_identical_channels(self, rng):
        u = random_unitary(2, rng)
        et = Superoperator(unitary_superop(u))
        assert gate_error_report(et, u, np.eye(1)).diamond_upper == 0.0

    def test_dominates_true_diamond_distance_for_unitary_pairs(self, rng):
        for _ in range(20):
            u, v = random_unitary(2, rng), random_unitary(2, rng)
            et = Superoperator(unitary_superop(v))
            bound = gate_error_report(et, u, np.eye(1)).diamond_upper
            exact = unitary_pair_diamond_distance(u, v)
            assert bound >= exact - 1e-9


class TestGateErrorReport:
    def test_report_fields_and_json(self, rng):
        import json

        et = Superoperator(random_cptp_superop(4, rng))
        ug = random_unitary(2, rng)
        etilde = random_cptp_superop(2, rng)
        report = gate_error_report(et, ug, etilde)
        doc = json.loads(report.to_json())
        assert set(doc) == {"eps1", "eps2", "diamond_upper", "reduced_error", "nonphysical"}
        assert doc["eps1"] >= 0
        assert doc["diamond_upper"] == pytest.approx(4 * np.sqrt(doc["eps1"]), rel=1e-9)
        # Eq. 22: eps2 lower-bounds eps1/d^2 for the factorized goal
        assert doc["eps2"] <= doc["eps1"] / 16 + 1e-10

    def test_perfect_gate_reports_zeros(self, rng):
        u = random_unitary(2, rng)
        v = random_unitary(2, rng)
        et = Superoperator(superop_tensor(unitary_superop(u), 2, unitary_superop(v), 2))
        report = gate_error_report(et, u, unitary_superop(v))
        assert report.eps1 == pytest.approx(0.0, abs=1e-12)
        assert report.eps2 == pytest.approx(0.0, abs=1e-12)
        assert report.reduced_error == pytest.approx(0.0, abs=1e-12)
        assert not report.nonphysical
