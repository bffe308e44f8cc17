"""One Hermiticity rule at every entry point that takes a Hamiltonian or a
control: ``ops.hermitian`` accepts a skew max|A - A^dag| up to 1e-10 of
max(1, max|A|) and returns the exact Hermitian part A/2 + A^dag/2."""

import numpy as np
import pytest

from conftest import random_hermitian
from zenoforge.grape import ControlSystem, propagate_schedule
from zenoforge.lie import dfs_lie_dimension, lie_verdict
from zenoforge.lindblad import LindbladSpec
from zenoforge.models import build_model
from zenoforge.ops import hermitian, pauli_on

AMP = build_model("two-qubit-amp").spec
DEPHASING = build_model("two-qubit-dephasing").spec  # unital: the joint closure takes P(H)


def _propagated(h: np.ndarray):
    # amplitude 1 / max|H| keeps the slice generator of order one at any scale
    schedule = [[1.0 / np.max(np.abs(h))]]
    return propagate_schedule(ControlSystem((h,), AMP, 1.0), schedule)


ENTRY_POINTS = {
    "LindbladSpec": lambda h: LindbladSpec(h, AMP.terms),
    "ControlSystem": _propagated,
    "lie_verdict": lambda h: lie_verdict([h]),
    "dfs_lie_dimension": lambda h: dfs_lie_dimension(AMP, [h]),
    # the full-mantissa Hermitian part of the skewed control needs primes
    # beyond the two closure primes to prove its P(H)
    "dfs_lie_dimension_unital": lambda h: dfs_lie_dimension(DEPHASING, [h]),
}


def _skewed(scale: float, skew: float) -> np.ndarray:
    """scale (X0 X1 + Z0), plus skew max(1, scale) above the diagonal only."""
    h = scale * (pauli_on(2, 0, "x") @ pauli_on(2, 1, "x") + pauli_on(2, 0, "z"))
    return h + skew * max(1.0, scale) * np.triu(np.ones((4, 4)), 1)


@pytest.mark.parametrize("scale", [1.0, 1e6])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_gives_one_verdict(entry, scale):
    ENTRY_POINTS[entry](_skewed(scale, 1e-11))
    with pytest.raises(ValueError, match="is not Hermitian within 1e-10 of its largest entry"):
        ENTRY_POINTS[entry](_skewed(scale, 1e-9))


def test_returns_the_exact_hermitian_part(rng):
    h = random_hermitian(5, rng)
    assert np.array_equal(hermitian(h, "h"), h)  # an exactly Hermitian input comes back bitwise
    skew = h + 1e-11 * np.triu(rng.standard_normal((5, 5)), 1)
    part = hermitian(skew, "h")
    assert np.array_equal(part, part.conj().T)
    assert np.max(np.abs(part - h)) <= 1e-11


def test_largest_float_stays_finite_and_nan_fails():
    big = np.diag([1e308, 1e308, -1e308, -1e308])
    assert np.array_equal(hermitian(big, "hamiltonian"), big)
    with pytest.raises(ValueError, match="^control 1 is not Hermitian"):
        hermitian(np.diag([np.nan, 0.0]), "control 1")


def test_non_square_input_is_named():
    with pytest.raises(ValueError, match="^generator 0 must be a square matrix"):
        lie_verdict([np.ones((2, 3))])
