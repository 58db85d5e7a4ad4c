import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracecensus import lfunctions
from tracecensus.lfunctions import (
    G_END,
    G_PIECES,
    TAIL_REL,
    chi_columns,
    cohen_g,
    cohen_series,
    euler_multiplier,
    fundamental_part,
    l_value,
    series_length,
    tail_bound,
)
from tracecensus.numtheory import build_spf_table, kronecker
from tracecensus.census import line_weight

from make_g_table import g_exact, g_table
from oracles import chi_values, l_value_digamma, l_value_truncated

TABLE = build_spf_table(3000)
BIG = build_spf_table(2 * 10**5)

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


def is_fundamental(D):
    """D = 1 mod 4 squarefree, or D = 4m with m = 2, 3 mod 4 squarefree."""
    m = D if D % 4 == 1 else D // 4
    if D % 4 == 0 and m % 4 not in (2, 3):
        return False
    return all(m % (q * q) for q in range(2, math.isqrt(m) + 1))


FUNDAMENTAL = [d for d in range(5, 2 * 10**4 + 1) if d % 4 in (0, 1) and is_fundamental(d)]


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


PREFIX_D0 = [5, 8, 12, 13, 21, 24, 28, 40, 221, 1005, 1724, 19996, 19997]


@pytest.mark.parametrize("D0", PREFIX_D0)
def test_chi_prefix_matches_kronecker_pointwise(D0):
    assert is_fundamental(D0)
    n = series_length(D0)
    chi = chi_columns([D0], [n], BIG)
    assert chi.shape == (n + 1, 1)
    assert [int(v) for v in chi[:, 0]] == [kronecker(D0, k) for k in range(n + 1)]


def test_chi_columns_stop_at_their_own_length():
    lengths = [series_length(D0) for D0 in PREFIX_D0]
    chi = chi_columns(PREFIX_D0, lengths, BIG)
    assert chi.shape == (max(lengths) + 1, len(PREFIX_D0))
    for i, (D0, n) in enumerate(zip(PREFIX_D0, lengths)):
        want = [kronecker(D0, k) if k <= n else 0 for k in range(len(chi))]
        assert [int(v) for v in chi[:, i]] == want, D0


# a prime = 1 mod 4 above 10^9, 4 times a prime = 3 mod 4, and a prime
# = 1 mod 4 above 2^32, so D0 mod q does not fit the uint32 kernel
LARGE_D0 = [10**9 + 9, 4 * (10**9 + 7), 4294967357]
# 4093 < RESIDUE_TOP = 2^12 < 4099 are primes, so chi(4093) comes from the
# residue table and chi(4099) from Euler's criterion once a series passes
# 2^12; columns divisible by them check chi(q) = 0 on both paths
TOP_D0 = [4093, 4 * 4099, 20 * 4093 * 4099, 1009, 8]


@pytest.mark.parametrize(
    "d0s, lengths",
    [
        # no (odd prime, column) pair at all: chi(0), chi(1) and chi(2) only
        ([5, 8, 12, 13], [0] * 4),
        ([5, 8, 12, 13], [1] * 4),
        ([5, 8, 12, 13], [2] * 4),
        ([5, 8, 12, 13], [0, 2, 1, 2]),
        # columns shorter than 3 beside columns thousands of terms long
        ([5, 10**9 + 9, 8, 13, 4 * (10**9 + 7), 1009], [2, 5000, 0, 1, 3001, 118]),
        # the longest length picks the dtype: uint32 below 2^16, uint64 above
        (LARGE_D0, [2**16 - 1, 2**16 - 3, 2**16 - 1]),
        (LARGE_D0, [2**16 + 1, 2**16 - 1, 2**16 + 1]),
        # the longest length at, below and past RESIDUE_TOP
        (TOP_D0, [4096, 4092, 4096, 4092, 4096]),
        (TOP_D0, [4092, 4092, 4092, 4092, 4092]),
        (TOP_D0, [4100, 4100, 4100, 4096, 4092]),
        (TOP_D0, [4092, 4096, 4100, 4100, 4100]),
    ],
    ids=["n0", "n1", "n2", "n0-2", "ragged", "uint32", "uint64", "top", "below-top", "past-top", "straddle-top"],
)
def test_chi_columns_match_kronecker_for_any_lengths(d0s, lengths):
    chi = chi_columns(d0s, lengths, BIG)
    assert chi.shape == (max(lengths) + 1, len(d0s))
    for i, (D0, n) in enumerate(zip(d0s, lengths)):
        want = [kronecker(D0, k) if k <= n else 0 for k in range(len(chi))]
        assert chi[:, i].tolist() == want, D0


def test_residue_table_matches_kronecker():
    assert lfunctions.RESIDUE_TOP == 2**12
    # every power-of-two top lays the odd primes up to it end to end, so
    # each table is the leading part of the next one
    below = []
    for top in (2**e for e in range(2, 13)):
        starts, symbols = lfunctions._residue_table(top)
        odd = BIG.primes[1 : np.searchsorted(BIG.primes, top, side="right")]
        assert starts.tolist() == (np.cumsum(odd) - odd).tolist() and len(symbols) == odd.sum(), top
        assert symbols[: len(below)].tolist() == below, top
        below = symbols.tolist()
    assert len(symbols) == 1070089
    for i, q in enumerate(odd.tolist()):
        if q <= 211:
            rs = range(q)
        elif q > odd[-8]:
            # the largest primes below the top, at 0, 1, q - 1 and a spread
            rs = [0, 1, q - 1, *range(2, q - 1, 37)]
        else:
            continue
        assert [int(symbols[starts[i] + r]) for r in rs] == [kronecker(r, q) for r in rs], q
    # one table per top and process
    assert lfunctions._residue_table(lfunctions.RESIDUE_TOP)[1] is symbols


# fundamental parts of D up to 10^6, whose series need up to 3701 terms, so
# a block mixes columns of very different lengths
LARGE_FUNDAMENTAL = (
    st.integers(5, 10**6)
    .filter(lambda D: D % 4 in (0, 1) and math.isqrt(D) ** 2 != D)
    .map(lambda D: fundamental_part(D, BIG)[0])
)


@settings(max_examples=40, deadline=None)
@given(d0s=st.lists(st.sampled_from(FUNDAMENTAL) | LARGE_FUNDAMENTAL, min_size=1, max_size=12))
def test_cohen_series_block_is_bitwise_its_blocks_of_one(d0s):
    # a value does not depend on the block it is computed in, nor on its
    # place there, and the block of one is l_value's series
    block = cohen_series(d0s, BIG)
    for D0, value in zip(d0s, block):
        (alone,) = cohen_series([D0], BIG)
        assert value.hex() == alone.hex(), D0
        assert (value / math.sqrt(D0)).hex() == l_value(D0, BIG).hex(), D0


def test_cohen_series_rounds_the_exact_sum_of_its_terms_once():
    # each value is its own float terms, rebuilt as cohen_series forms them,
    # summed in rationals and rounded once, so any other summation shows
    d0s = [d for d in FUNDAMENTAL if d < 3000]
    chi = chi_columns(d0s, [series_length(d0) for d0 in d0s], TABLE)
    for d0, value, column in zip(d0s, cohen_series(d0s, TABLE), chi.T):
        k = np.flatnonzero(column)
        terms = cohen_g((1.0 / math.sqrt(d0)) * k) * column[k]
        assert value == float(sum(map(Fraction, terms.tolist()))), d0


ROW_CUT = lfunctions.ROW_SUM_MIN_TERMS
# one float 2^-60 <= |x| < 2^21 with a random sign and 53-bit mantissa
FLOATS = st.builds(
    lambda s, m, e: math.ldexp(s * m, e),
    st.sampled_from([-1.0, 1.0]),
    st.floats(0.5, 1.0, exclude_max=True),
    st.integers(-59, 20),
)


def _rows(draw_rows):
    terms = np.array([x for row in draw_rows for x in row])
    ends = np.array([0] + [len(row) for row in draw_rows]).cumsum()
    return terms, ends


def _filler(n, seed):
    """n terms of mixed signs and exponents 2^-60 .. 2^20, as one row."""
    rng = np.random.default_rng(seed)
    return np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-59, 21, n)).tolist()


@st.composite
def ragged_blocks(draw):
    """Rows of 1 to 40 terms: plain, cancelling down to a few terms, or a tie."""
    rows = []
    for kind in draw(st.lists(st.sampled_from(["plain", "cancel", "tie", "one"]), min_size=1, max_size=24)):
        if kind == "plain":
            rows.append(draw(st.lists(FLOATS, min_size=1, max_size=40)))
        elif kind == "cancel":
            xs = draw(st.lists(FLOATS, min_size=1, max_size=20))
            rest = draw(st.lists(FLOATS, max_size=3))
            rows.append(draw(st.permutations(xs + [-x for x in xs] + rest)))
        elif kind == "tie":
            # x plus half an ulp of x, then possibly a nudge far below both
            x = draw(FLOATS)
            nudge = draw(st.sampled_from([[], [2.0**-100], [-(2.0**-100)]]))
            rows.append(draw(st.permutations([x, math.copysign(math.ulp(x) / 2, x)] + nudge)))
        else:
            rows.append([draw(FLOATS)])
    # blocks just under and at the cutoff, and far above it
    total = sum(map(len, rows))
    target = draw(st.sampled_from([None, ROW_CUT - 1, ROW_CUT, ROW_CUT + 1, 4 * ROW_CUT]))
    if target is not None and total < target:
        rows.insert(draw(st.integers(0, len(rows))), _filler(target - total, draw(st.integers(0, 2**32))))
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=ragged_blocks())
def test_row_sums_match_fsum_bit_for_bit(rows):
    terms, ends = _rows(rows)
    got = lfunctions._row_sums(terms, ends)
    assert [v.hex() for v in got] == [math.fsum(row).hex() for row in rows]


# rows that cannot be certified: an exact tie, an exact zero, a NaN and an
# infinity.  Then rows that the error-free route certifies where plain sum
# rounds wrongly, and 13 terms whose q sum to an odd multiple of ulp(sigma)/2
# at or past sigma / 2, so that a sigma one power of two lower rounds tau
UNCERTIFIED = [[1.0, 2.0**-53], [1.0, -1.0], [1.0, math.nan], [-math.inf, 2.0]]
CERTIFIED = [[1.0, 2.0**-53, 2.0**-53], [2.0**-53, 1.0, -(2.0**-54)], [0.9375] * 9 + [-(2.0**-50 + 2.0**-52)]]


def test_row_sums_fall_back_to_fsum_only_where_uncertified(monkeypatch):
    calls = []

    def fsum(row):
        calls.append(len(row))
        return math.fsum(row)

    monkeypatch.setattr(lfunctions, "math", type(math)("math"))
    lfunctions.math.fsum = fsum
    want = [math.fsum(row).hex() for row in UNCERTIFIED + CERTIFIED]
    assert [math.fsum(row) for row in CERTIFIED[:2]] != [sum(row) for row in CERTIFIED[:2]]
    # below the cutoff every row is summed by fsum
    got = lfunctions._row_sums(*_rows(UNCERTIFIED + CERTIFIED))
    assert [v.hex() for v in got] == want
    assert len(calls) == len(UNCERTIFIED + CERTIFIED)
    # above it only the rows that fail the test are
    calls.clear()
    filler = [_filler(n, n) for n in (700, 900, 1000)]
    above = _rows(filler + UNCERTIFIED + CERTIFIED)
    assert len(above[0]) >= ROW_CUT
    got = lfunctions._row_sums(*above)
    assert [v.hex() for v in got[3:]] == want
    assert got[:3] == [math.fsum(row) for row in filler]
    assert calls == [len(row) for row in UNCERTIFIED]


def test_cohen_series_above_the_cutoff_is_bitwise_l_value():
    # 40 series of about 1200 terms: one block far above the cutoff, each
    # block of one below it, so the two routes sum every row
    d0s = [d for d in range(10**5, 10**5 + 150) if d % 4 in (0, 1) and is_fundamental(d)][:40]
    lengths = [series_length(d0) for d0 in d0s]
    assert max(lengths) < ROW_CUT <= sum(lengths)
    for D0, value in zip(d0s, cohen_series(d0s, BIG)):
        assert (value / math.sqrt(D0)).hex() == l_value(D0, BIG).hex(), D0


def test_g_table_regenerates_bit_for_bit():
    want = g_table()
    assert len(want) == len(G_PIECES)
    for i, (row, want_row) in enumerate(zip(G_PIECES, want)):
        assert [c.hex() for c in row] == [c.hex() for c in want_row], i


def test_cohen_g_matches_mpmath_on_a_dense_grid():
    # every piece boundary and just below it (G_SPLIT among them), points
    # between them, and u down to 1/sqrt(10^18), the first term at D0 = 10^18
    u = np.concatenate([
        np.geomspace(1e-9, 1 / 16, 300),
        np.arange(1, 4 * 1024 + 512) / 1024,
        np.arange(8, 72) / 16 - 2.0**-50,
        [np.nextafter(G_END, 0.0)],
    ])
    u.sort()
    got = cohen_g(u)
    with mpmath.workdps(30):
        rel = np.array([float(abs(g - w) / w) for g, w in zip(got.tolist(), map(g_exact, u.tolist()))])
    assert rel[u < 2].max() <= 3e-15
    assert rel[u >= 2].max() <= 2e-14
    # the block can be any size: the first and last values come out alone
    assert cohen_g(u[:1]).tolist() == got[:1].tolist()
    assert cohen_g(u[-1:]).tolist() == got[-1:].tolist()


def test_series_past_the_g_table_raises_naming_d0(monkeypatch):
    # every real series stops below u = 4.1; a longer one must not be
    # clamped or extrapolated
    assert all(series_length(d0) / math.sqrt(d0) < 4.1 for d0 in FUNDAMENTAL)

    def longer(d0):
        return math.ceil(G_END * math.sqrt(d0)) if d0 == 1009 else series_length(d0)

    monkeypatch.setattr(lfunctions, "series_length", longer)
    with pytest.raises(ValueError, match=r"D0=1009 reach u = 4\.5\d*, past the g table end 4\.5"):
        cohen_series([5, 1009, 13], BIG)


def test_fundamental_part_pinned():
    assert fundamental_part(5, TABLE) == (5, 1)
    assert fundamental_part(45, TABLE) == (5, 3)
    assert fundamental_part(12, TABLE) == (12, 1)
    assert fundamental_part(32, TABLE) == (8, 2)
    assert fundamental_part(80, TABLE) == (5, 4)
    assert fundamental_part(4 * 1009, TABLE) == (1009, 2)
    assert fundamental_part(1009 * 3**2 * 7**2, TABLE) == (1009, 21)
    # D beyond the table limit: trial division only needs isqrt(D), and
    # what is left after it is one prime above isqrt(D)
    assert fundamental_part(4 * 13 * 29**2, TABLE) == (13, 58)
    assert fundamental_part(4 * 2999, TABLE) == (4 * 2999, 1)
    assert fundamental_part(3 * 2999 * 3**2, TABLE) == (3 * 2999, 3)


def test_euler_multiplier_is_the_exact_product():
    for D0 in (5, 8, 12, 13, 1009):
        for f in range(1, 60):
            want = Fraction(f)
            for q in {q for q in range(2, f + 1) if f % q == 0 and all(q % r for r in range(2, q))}:
                want *= 1 - Fraction(kronecker(D0, q), q)
            assert euler_multiplier(D0, f, TABLE) == want, (D0, f)


def test_l_value_golden_ratio_case():
    expected = 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)
    assert abs(l_value(5, TABLE) - expected) < 1e-15


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
    # 1009 is fundamental and needs series_length(1009) > 64 character values
    with pytest.raises(ValueError, match=r"64 too small for the %d series terms" % series_length(1009)):
        l_value(1009, small)
    # trial division of D needs the table to reach isqrt(D)
    with pytest.raises(ValueError, match=r"limit 64 is below isqrt\(D\) = 69"):
        l_value(5 * 31 * 31, small)


def test_invalid_discriminant_rejected():
    for D in (7, 16, 4, 0, -3):
        with pytest.raises(ValueError):
            l_value(D, TABLE)


def test_series_length_tail_is_certified():
    for D0 in (5, 8, 1009, 10**6 + 1, 10**9 + 1, 10**12 + 1):
        n = series_length(D0)
        assert n <= math.ceil(3.7 * math.sqrt(D0)) + 1
        assert tail_bound(D0, n) <= TAIL_REL * 0.5 * math.log(D0)


# ---- Cohen's series against the two oracles ----

@st.composite
def discriminants(draw, limit):
    """Any valid D <= limit, with non-fundamental D = D0 * f^2 forced in,
    including conductors that share primes with D0."""
    kind = draw(st.sampled_from(["any", "4", "9", "shared"]))
    if kind == "any":
        D = draw(st.integers(5, limit))
        assume(D % 4 in (0, 1) and math.isqrt(D) ** 2 != D)
        return D
    D0 = draw(st.sampled_from([d for d in FUNDAMENTAL if d * 4 <= limit]))
    if kind == "4":
        return 4 * D0
    if kind == "9":
        assume(9 * D0 <= limit)
        return 9 * D0
    q = min(q for q in range(2, D0 + 1) if D0 % q == 0)  # a prime of D0
    f = q * draw(st.sampled_from([1, 1, 2, 3, q]))
    assume(D0 * f * f <= limit)
    return D0 * f * f


@settings(max_examples=150, deadline=None)
@given(D=discriminants(2 * 10**5))
def test_l_value_matches_digamma_oracle(D):
    got = l_value(D, BIG)
    want = l_value_digamma(D, BIG)
    assert abs(got - want) <= 1e-13 * want, (D, got, want)


def mp_series(D0):
    """sqrt(D0) L(1, chi_D0) at 50 digits: Cohen's series with exact chi,
    run until the terms are below 1e-60, independent of series_length."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        root = mpmath.sqrt(D0)
        c = mpmath.pi / D0
        n = 1
        while True:
            y = c * n * n
            if y > 140:  # exp(-140) / 140 < 1e-62
                return total
            chi = kronecker(D0, n)
            if chi:
                total += chi * (root / n * mpmath.erfc(mpmath.sqrt(y)) + mpmath.e1(y))
            n += 1


def check_against_mpmath(D):
    D0, f = fundamental_part(D, BIG)
    with mpmath.workdps(50):
        want = euler_multiplier(D0, f, BIG) * mp_series(D0) / mpmath.sqrt(D)
        got = l_value(D, BIG)
        assert abs(got - want) <= 1e-13 * want, (D, got, want)


@settings(max_examples=30, deadline=None)
@given(D0=st.sampled_from(FUNDAMENTAL))
def test_l_value_matches_mpmath_series(D0):
    check_against_mpmath(D0)


# fundamental 1 mod 4, fundamental 4m, and 40001 * 5^2
@pytest.mark.parametrize("D", [1_000_001, 999_996, 1_000_025])
def test_l_value_matches_mpmath_near_1e6(D):
    check_against_mpmath(D)


@pytest.mark.parametrize("D0", [5, 1009, 19997])
def test_tail_bound_exceeds_true_tail(D0):
    n = series_length(D0) // 2
    with mpmath.workdps(30):
        c = mpmath.pi / D0
        root = mpmath.sqrt(D0)
        tail = mpmath.mpf(0)
        k = n + 1
        while c * k * k < 140:
            y = c * k * k
            tail += root / k * mpmath.erfc(mpmath.sqrt(y)) + mpmath.e1(y)
            k += 1
    assert tail <= tail_bound(D0, n)
