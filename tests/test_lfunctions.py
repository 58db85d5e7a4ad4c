import math

import numpy as np
import pytest

from tracecensus.lfunctions import chi_values, l_value
from tracecensus.numtheory import build_spf_table, kronecker
from tracecensus.census import line_weight

from oracles import l_value_truncated

TABLE = build_spf_table(3000)

# h * log(eps) for the identity test, taken from the pinned quadforms data.
PINNED_HLOG = {
    5: 1 * 2 * math.log((1 + math.sqrt(5)) / 2),
    8: 1 * math.log(1 + math.sqrt(2)) * 2,
    12: 2 * math.acosh(2.0),
    13: 1 * math.acosh(11 / 2),
    17: 1 * math.acosh(33.0),
    24: 2 * math.acosh(5.0),
    32: 2 * math.acosh(3.0),
    40: 2 * math.acosh(19.0),
    45: 2 * math.acosh(7 / 2),
    60: 4 * math.acosh(4.0),
}


def test_chi_pinned_periods():
    assert chi_values(5, TABLE).tolist() == [0, 1, -1, -1, 1]
    assert chi_values(8, TABLE).tolist() == [0, 1, 0, -1, 0, -1, 0, 1]


@pytest.mark.parametrize("D", [5, 8, 12, 13, 21, 24, 40, 45, 60, 221, 1724])
def test_chi_matches_kronecker_pointwise(D):
    chi = chi_values(D, TABLE)
    for n in range(D):
        assert chi[n] == kronecker(D, n), (D, n)


@pytest.mark.parametrize("D", [5, 8, 12, 45, 221, 1724])
def test_chi_period_sum_vanishes(D):
    assert int(chi_values(D, TABLE).astype(np.int64).sum()) == 0


def test_l_value_golden_ratio_case():
    expected = 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)
    assert abs(l_value(5, TABLE) - expected) < 1e-12


@pytest.mark.parametrize("D", sorted(PINNED_HLOG))
def test_class_number_formula_identity(D):
    lhs = PINNED_HLOG[D]
    rhs = math.sqrt(D) * l_value(D, TABLE)
    assert abs(lhs - rhs) < 1e-9 * lhs, (D, lhs, rhs)


@pytest.mark.parametrize("D", [5, 8, 12, 45, 140])
def test_class_weight_agrees_with_l_value(D):
    assert abs(line_weight(D) - math.sqrt(D) * l_value(D, TABLE)) < 1e-9


@pytest.mark.parametrize("D", [5, 8, 13, 60])
def test_truncated_route_agrees(D):
    exact = l_value(D, TABLE)
    approx = l_value_truncated(D, TABLE, rel_tol=1e-3)
    assert abs(approx - exact) < 1.2e-3 * abs(exact)


def test_chi_complete_multiplicativity():
    for D in (12, 13, 45):
        chi = chi_values(D, TABLE)
        for i in range(1, D):
            for j in range(1, D, 7):
                assert chi[(i * j) % D] == chi[i] * chi[j]


def test_table_too_small_raises():
    small = build_spf_table(64)
    with pytest.raises(ValueError):
        chi_values(221, small)


def test_invalid_discriminant_rejected():
    with pytest.raises(ValueError):
        chi_values(7, TABLE)
    with pytest.raises(ValueError):
        chi_values(16, TABLE)
