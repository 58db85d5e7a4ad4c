import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracecensus import quadforms
from tracecensus.quadforms import (
    _trace_power,
    class_cycles,
    class_number,
    class_number_and_reps,
    fundamental_unit,
    pell_from_known,
    reduced_forms,
    rho,
    unit_log,
    valid_discriminant,
)

from oracles import (
    _reduced,
    apply_sl2,
    brute_reduced_forms,
    class_count_bfs,
    pell_oracle,
    scan_class_cycles,
    scan_reduced_forms,
)


def small_discs(lo=5, hi=400):
    return [D for D in range(lo, hi) if D % 4 in (0, 1) and math.isqrt(D) ** 2 != D]


def test_valid_discriminant():
    assert valid_discriminant(5)
    assert valid_discriminant(8)
    assert not valid_discriminant(4)
    assert not valid_discriminant(7)
    assert not valid_discriminant(-3)
    assert not valid_discriminant(16)
    with pytest.raises(ValueError):
        reduced_forms(9)


def test_reduced_forms_pinned():
    assert reduced_forms(5) == [(-1, 1, 1), (1, 1, -1)]
    assert reduced_forms(12) == [(-2, 2, 1), (-1, 2, 2), (1, 2, -2), (2, 2, -1)]


def test_class_numbers_pinned():
    expected = {5: 1, 8: 1, 12: 2, 13: 1, 17: 1, 21: 2, 24: 2, 32: 2, 40: 2, 45: 2, 60: 4}
    for D, h in expected.items():
        assert class_number(D) == h, D


def test_forms_match_brute_oracle():
    for D in small_discs(5, 300):
        assert reduced_forms(D) == brute_reduced_forms(D), D


def _walked_forms(D):
    return sorted(f for cyc in class_cycles(D) for f in cyc)


def test_forms_match_root_route():
    # the cycles walked from the prime-power root starts cover exactly the scanned
    # forms, and reduced_forms lists them
    near_1e5 = small_discs(99_800, 100_300)[:200]
    assert len(near_1e5) == 200
    for D in small_discs(5, 300) + [997 * 4 + 1, 3989, 4001] + near_1e5:
        scanned = scan_reduced_forms(D)
        assert _walked_forms(D) == scanned, D
        assert reduced_forms(D) == scanned, D


def _root_shapes():
    """Discriminants up to 3e5, forcing high powers of 2 and of odd q | D into 4a."""
    bound = 3 * 10**5
    odd_primes = st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 101])
    return st.one_of(
        st.integers(min_value=5, max_value=bound),
        st.integers(min_value=1, max_value=bound // 16).map(lambda n: 16 * n),
        st.tuples(odd_primes, st.integers(min_value=1, max_value=bound)).map(
            lambda qn: qn[0] ** 2 * (qn[1] // qn[0] ** 2 or 1)
        ),
        st.integers(min_value=1, max_value=math.isqrt(bound // 5)).map(lambda f: 5 * f * f),
    )


@settings(max_examples=150, deadline=None)
@given(_root_shapes())
def test_root_route_covers_scan(D):
    assume(valid_discriminant(D))
    assert _walked_forms(D) == scan_reduced_forms(D)


def test_class_data_matches_scan_partition():
    for D in small_discs(5, 8000):
        cycles = scan_class_cycles(D)
        assert class_cycles(D) == cycles, D
        assert class_number_and_reps(D) == (len(cycles), sorted(min(c) for c in cycles)), D


def test_every_cycle_meets_the_half_range():
    # consecutive forms have |a a'| = (D - b^2) / 4 < D / 4, so one of them
    # has 4a^2 < D; class_cycles starts its walks only from such forms
    for D in small_discs(5, 6000):
        for cyc in scan_class_cycles(D):
            assert any(4 * a * a < D for a, _, _ in cyc), (D, cyc)


def test_all_enumerated_forms_are_reduced_primitive():
    for D in small_discs(5, 200):
        for a, b, c in reduced_forms(D):
            assert _reduced((a, b, c), D), (D, a, b, c)
            assert b * b - 4 * a * c == D
            assert math.gcd(a, b, c) == 1


def test_rho_permutes_reduced_forms():
    for D in small_discs(5, 200) + small_discs(99_990, 100_010):
        forms = set(scan_reduced_forms(D))
        image = {rho(f, D) for f in forms}
        assert image == forms, D


def test_cycles_partition():
    for D in small_discs(5, 150):
        cycles = class_cycles(D)
        flat = [f for cyc in cycles for f in cyc]
        assert sorted(flat) == scan_reduced_forms(D)
        for cyc in cycles:
            assert rho(cyc[-1], D) == cyc[0]
            for f, g in zip(cyc, cyc[1:]):
                assert rho(f, D) == g


def test_class_count_agrees_with_bfs_partition():
    for D in small_discs(5, 250):
        assert class_number(D) == class_count_bfs(D), D


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=5, max_value=2000), st.data())
def test_apply_sl2_preserves_discriminant_and_reduction_closes(D, data):
    if D % 4 not in (0, 1) or math.isqrt(D) ** 2 == D:
        return
    forms = reduced_forms(D)
    f = data.draw(st.sampled_from(forms))
    word = data.draw(
        st.lists(st.sampled_from([(0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 0, 1)]), max_size=6)
    )
    g = f
    for mat in word:
        g = apply_sl2(g, mat)
    a, b, c = g
    assert b * b - 4 * a * c == D


def test_pell_pinned():
    expected = {
        5: (3, 1),
        8: (6, 2),
        12: (4, 1),
        13: (11, 3),
        17: (66, 16),
        21: (5, 1),
        24: (10, 2),
        28: (16, 3),
        32: (6, 1),
        33: (46, 8),
        45: (7, 1),
        60: (8, 1),
    }
    for D, ts in expected.items():
        assert fundamental_unit(D) == ts, D


def test_pell_matches_cf_oracle():
    for D in small_discs(5, 500):
        tau, s = fundamental_unit(D)
        assert tau * tau - D * s * s == 4
        assert (tau, s) == pell_oracle(D), D


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=5, max_value=10**6 - 1))
def test_pell_matches_cf_oracle_wide(D):
    assume(valid_discriminant(D))
    assert fundamental_unit(D) == pell_oracle(D)


def test_unit_fixes_every_reduced_form():
    # [[(tau - b s)/2, -c s], [a s, (tau + b s)/2]] is a proper automorph of
    # (a, b, c) for every unit (tau, s); checked form by form, not by walking
    for D in small_discs(5, 3000):
        tau, s = fundamental_unit(D)
        for a, b, c in reduced_forms(D):
            assert (tau - b * s) % 2 == 0, (D, a, b, c)
            mat = ((tau - b * s) // 2, -c * s, a * s, (tau + b * s) // 2)
            assert apply_sl2((a, b, c), mat) == (a, b, c), (D, a, b, c)


def _first_square(D, stop, chunk=1 << 16):
    """Smallest s2 in [1, stop) with 4 + s2^2 D a perfect square, or None.

    Scans in int64 chunks.  Each isqrt starts from a float estimate, which
    is within one of it while v < 2^62; one integer step either way
    corrects it, and the result is then checked exactly.
    """
    for lo in range(1, stop, chunk):
        hi = min(lo + chunk, stop)
        assert (hi - 1) ** 2 * D + 4 < 2**62, (D, hi)
        v = np.arange(lo, hi, dtype=np.int64)
        v *= v
        v *= D
        v += 4
        r = np.sqrt(v).astype(np.int64)
        r -= r * r > v
        r += (r + 1) * (r + 1) <= v
        assert ((r * r <= v) & ((r + 1) * (r + 1) > v)).all(), D
        hit = np.flatnonzero(r * r == v)
        if hit.size:
            return lo + int(hit[0])
    return None


def test_pell_is_minimal_small():
    # exhaustive scan over s2 < s confirms minimality where that is feasible
    for D in small_discs(5, 120):
        tau, s = fundamental_unit(D)
        assert (s - 1) ** 2 * D + 4 < 2**62, D
        assert _first_square(D, s) is None, D


def test_minimality_scan_finds_a_smaller_square():
    # the square of the unit has s' = tau s, so the scan below s' must stop at s
    for D in small_discs(5, 120):
        tau, s = fundamental_unit(D)
        assert _first_square(D, tau * s) == s, D


def test_pell_large_regulator():
    # D = 1726 has a famously large fundamental solution for its size
    tau, s = fundamental_unit(1726 * 4)
    assert tau * tau - 1726 * 4 * s * s == 4
    assert tau > 10**20


def test_pell_from_known():
    for D in small_discs(5, 400):
        tau, s = fundamental_unit(D)
        assert pell_from_known(tau, s, D) == (tau, s), D
        # square and cube of the unit are still solutions, some enormous
        t2, m2 = tau * tau - 2, tau * s
        assert pell_from_known(t2, m2, D) == (tau, s), D
        t3, m3 = tau**3 - 3 * tau, s * (tau * tau - 1)
        assert t3 * t3 - m3 * m3 * D == 4
        assert pell_from_known(t3, m3, D) == (tau, s), D
    with pytest.raises(ValueError):
        pell_from_known(3, 1, 8)


def _lucas_v(tau, k):
    t_prev, t_cur = 2, tau
    for _ in range(k - 1):
        t_prev, t_cur = t_cur, tau * t_cur - t_prev
    return t_cur


def test_trace_power_ladder_matches_recurrence():
    for tau in range(3, 51):
        for k in range(1, 61):
            assert _trace_power(tau, k) == _lucas_v(tau, k), (tau, k)


def test_pell_from_known_higher_powers():
    # the k-th power of (tau + s sqrt(D)) / 2 is (V_k + s U_k sqrt(D)) / 2
    for D in small_discs(5, 500):
        tau, s = fundamental_unit(D)
        u_prev, u = 0, 1
        for k in range(2, 13):
            u_prev, u = u, tau * u - u_prev
            assert pell_from_known(_lucas_v(tau, k), s * u, D) == (tau, s), (D, k)
    # t = V_k(3) exactly is the largest power index the search considers
    u_prev, u = 0, 1
    for k in range(2, 200):
        u_prev, u = u, 3 * u - u_prev
        assert pell_from_known(_lucas_v(3, k), u, 5) == (3, 1), k


def test_pell_from_known_tries_prime_exponents_only(monkeypatch):
    units = {D: fundamental_unit(D) for D in small_discs(5, 60)}
    tried = set()
    int_root = quadforms._int_root

    def recording_root(n, k):
        tried.add(k)
        return int_root(n, k)

    monkeypatch.setattr(quadforms, "_int_root", recording_root)
    for D, (tau, s) in units.items():
        u_prev, u = 0, 1
        for k in range(2, 41):
            u_prev, u = u, tau * u - u_prev
            assert pell_from_known(_lucas_v(tau, k), s * u, D) == (tau, s), (D, k)
    composite = {k for k in range(4, max(tried) + 1) if any(k % q == 0 for q in range(2, k))}
    assert not tried & composite, sorted(tried)
    assert set(range(2, 38)) - composite <= tried


def test_pell_from_known_bound_is_tight():
    # D = tau^2 - 4 has the unit (tau, 1), whose trace is exactly isqrt(D + 3) + 1
    for tau in range(3, 201):
        D = tau * tau - 4
        u_prev, u = 0, 1
        for k in range(2, 41):
            u_prev, u = u, tau * u - u_prev
            assert pell_from_known(_lucas_v(tau, k), u, D) == (tau, 1), (tau, k)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=5, max_value=4999), st.integers(min_value=2, max_value=30))
def test_pell_from_known_recovers_any_power(D, k):
    assume(valid_discriminant(D))
    tau, s = fundamental_unit(D)
    u_prev, u = 0, 1
    for _ in range(k - 1):
        u_prev, u = u, tau * u - u_prev
    assert pell_from_known(_lucas_v(tau, k), s * u, D) == fundamental_unit(D)


def test_pell_from_known_mixed_orders():
    # trace 47 solves the unit equation for both D=5 (as the 4th power of
    # the D=5 unit) and D=45 (as the square of the D=45 unit); the root
    # descent must keep the two apart
    assert pell_from_known(47, 21, 5) == (3, 1)
    assert pell_from_known(47, 7, 45) == (7, 1)


def test_unit_log():
    assert unit_log(3) == pytest.approx(math.log((3 + math.sqrt(5)) / 2))
    assert unit_log(6) == pytest.approx(math.log(3 + math.sqrt(8)))
    big = 10**40
    assert unit_log(big) == pytest.approx(math.log(big))


def test_reduced_forms_deterministic():
    assert reduced_forms(3 * 10**4 + 1) == reduced_forms(3 * 10**4 + 1)
