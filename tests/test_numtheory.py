import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecensus.lfunctions import chi_columns
from tracecensus.numtheory import (
    SpfTable,
    build_spf_table,
    divisors_from_factorization,
    factorize,
    is_probable_prime,
    is_square,
    kronecker,
    root_part,
)


@pytest.fixture(scope="module")
def table():
    return build_spf_table(10_000)


def naive_spf(n):
    for p in range(2, n + 1):
        if n % p == 0:
            return p
    return 0


def test_spf_pinned_values(table):
    assert int(table.spf[49]) == 7
    assert int(table.spf[15]) == 3
    assert int(table.spf[47]) == 47
    assert int(table.spf[0]) == 0
    assert int(table.spf[1]) == 0


def test_spf_against_naive(table):
    for n in range(2, 2000):
        assert int(table.spf[n]) == naive_spf(n), n
    assert table.ints.tolist() == table.spf.tolist()


def test_spf_limit_validation():
    with pytest.raises(ValueError):
        build_spf_table(1)


def test_primes_property(table):
    ps = list(table.primes[:10])
    assert ps == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(table.primes) == 1229  # pi(10^4)


def test_factorize_pinned(table):
    assert factorize(12, table) == [(2, 2), (3, 1)]
    assert factorize(9997, table) == [(13, 1), (769, 1)]
    assert factorize(1, table) == []
    assert factorize(2, table) == [(2, 1)]
    with pytest.raises(ValueError):
        factorize(0, table)


def test_factorize_roundtrip(table):
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randrange(1, 10_000)
        fac = factorize(n, table)
        prod = 1
        for p, e in fac:
            assert is_probable_prime(p)
            prod *= p**e
        assert prod == n
        assert fac == sorted(fac)


def test_factorize_cofactor_path(table):
    # there is no cofactor path: the table limit factors, one past it is refused
    assert factorize(table.limit, table) == [(2, 4), (5, 4)]
    with pytest.raises(ValueError, match="limit 10000"):
        factorize(table.limit + 1, table)
    with pytest.raises(ValueError):
        factorize(2**3 * 104729, table)


def trial_division(n):
    out, q = [], 2
    while q * q <= n:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))
        q += 1 + (q > 2)
    return out + [(n, 1)] * (n > 1)


def test_factorize_matches_trial_division_to_1e5():
    big = build_spf_table(10**5)
    for n in range(1, 10**5 + 1):
        assert factorize(n, big) == trial_division(n), n
    with pytest.raises(ValueError, match="exceeds the spf table limit"):
        factorize(10**5 + 1, big)


def test_pickled_table_factorizes_identically(table):
    # every pool task carries the table pickled
    copy = pickle.loads(pickle.dumps(table))
    assert copy.limit == table.limit
    assert all(factorize(n, copy) == factorize(n, table) for n in range(1, table.limit + 1))
    with pytest.raises(ValueError, match="limit 10000"):
        factorize(table.limit + 1, copy)
    # a fresh table holds its values once and pickles them once
    fresh = build_spf_table(table.limit)
    assert len(pickle.dumps(fresh)) <= 8 * (fresh.limit + 1) + 1024
    assert fresh.spf.tolist() == fresh.ints.tolist()
    assert np.shares_memory(fresh.spf, np.frombuffer(fresh.ints, dtype=np.int64))
    # a used one pickles no copy of its cached arrays either, and its copy
    # factorizes the same way
    fresh.primes, fresh.spf
    chi_columns([5, 13, 4 * 4099], [100, 5000, 4100], fresh)
    assert len(pickle.dumps(fresh)) <= 8 * (fresh.limit + 1) + 1024
    used = pickle.loads(pickle.dumps(fresh))
    assert used.limit == fresh.limit
    assert all(factorize(n, used) == factorize(n, table) for n in range(1, table.limit + 1))


def test_root_part_halves_the_square_exponents(table):
    # 12 = 2^2 3 and 25 * 27 = 3^3 5^2: each n's largest m with m^2 | n, in turn
    assert root_part((12, 25 * 27), table, 2) == [(2, 1), (3, 1), (5, 1)]
    assert root_part((2**7,), table, 3) == [(2, 2)]
    assert root_part((7, 1), table, 2) == []
    with pytest.raises(ValueError, match="exceeds the spf table limit"):
        root_part((4, table.limit + 1), table, 2)


def test_divisors(table):
    assert divisors_from_factorization(factorize(12, table)) == [1, 2, 3, 4, 6, 12]
    assert divisors_from_factorization([]) == [1]
    d60 = divisors_from_factorization(factorize(60, table))
    assert len(d60) == 12 and d60 == sorted(d60)


def test_kronecker_pinned():
    assert kronecker(5, 11) == 1
    assert kronecker(8, 2) == 0
    assert kronecker(12, 35) == 1
    assert kronecker(-4, 5) == 1
    assert kronecker(2, 7) == 1
    assert kronecker(2, 3) == -1
    assert kronecker(0, 1) == 1
    assert kronecker(1, 0) == 1
    assert kronecker(2, 0) == 0
    assert kronecker(-1, 0) == 1


def test_kronecker_euler_criterion(table):
    for q in (3, 5, 7, 11, 13, 97, 541, 997):
        for a in range(1, q):
            euler = pow(a, (q - 1) // 2, q)
            want = 1 if euler == 1 else -1
            assert kronecker(a, q) == want, (a, q)


@given(
    a=st.integers(min_value=-500, max_value=500),
    b=st.integers(min_value=-500, max_value=500),
    n=st.integers(min_value=1, max_value=300),
)
def test_kronecker_multiplicative_top(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


@given(
    a=st.integers(min_value=-500, max_value=500),
    m=st.integers(min_value=1, max_value=60),
    n=st.integers(min_value=1, max_value=60),
)
def test_kronecker_multiplicative_bottom(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_is_square():
    squares = {k * k for k in range(200)}
    for n in range(-5, 40_000, 7):
        assert is_square(n) == (n in squares)
    assert is_square(0) and is_square(1) and not is_square(-4)


def test_is_probable_prime_small():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 45):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_probable_prime(n) == sieve[n], n


def test_is_probable_prime_carmichael():
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
        assert not is_probable_prime(n)
