"""Sieve-backed factorization, Kronecker symbol, primality, discriminants.

Everything here is exact integer arithmetic.  The smallest-prime-factor table
is the one shared piece of state: build it once, sized a little past the
largest trace you will census, and every t-2 / t+2 factorization is a table
walk instead of trial division.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "SpfTable",
    "build_spf_table",
    "factorize",
    "divisors_from_factorization",
    "kronecker",
    "KRONECKER_2",
    "is_square",
    "valid_discriminant",
    "require_discriminant",
    "is_probable_prime",
    "nonresidue",
]


@dataclass(frozen=True)
class SpfTable:
    """Smallest-prime-factor table for 0..limit (spf[0] = spf[1] = 0).

    ints holds the values once, as plain ints for factorize's table walk;
    spf is a numpy view of the same buffer, made on first use.  A table
    pickles as limit and ints alone, never with the cached arrays.
    """

    limit: int
    ints: array = field(repr=False)

    def __reduce__(self):
        return SpfTable, (self.limit, self.ints)

    @functools.cached_property
    def spf(self) -> np.ndarray:
        return np.frombuffer(self.ints, dtype=np.int64)

    @functools.cached_property
    def primes(self) -> np.ndarray:
        """Every prime up to limit, ascending; computed once per table."""
        idx = np.arange(self.limit + 1, dtype=self.spf.dtype)
        return np.nonzero(self.spf == idx)[0][1:]  # [1:] drops the spf[0]==0 match


def build_spf_table(limit: int) -> SpfTable:
    """Sieve smallest prime factors for every n <= limit.

    limit must be >= 2 and small enough to allocate, else ValueError.  A
    composite i*k with k < i already got its factor from k, so each prime
    only writes from i*i upward into still-unset slots.
    """
    if limit < 2:
        raise ValueError("spf table limit must be >= 2, got %r" % (limit,))
    try:
        ints = array("q", [0]) * (limit + 1)
    except (MemoryError, OverflowError):
        raise ValueError("spf table limit %d is too large to allocate" % limit) from None
    spf = np.frombuffer(ints, dtype=np.int64)  # sieves into ints in place
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            sl = spf[i * i :: i]
            sl[sl == 0] = i
    # whatever is still unset (n >= 2) is prime
    rest = np.nonzero(spf == 0)[0]
    spf[rest] = rest
    spf[0] = 0
    spf[1] = 0
    return SpfTable(limit=limit, ints=ints)


# Deterministic Miller-Rabin bases, valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases (deterministic far past 64 bits)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int, table: SpfTable) -> list[tuple[int, int]]:
    """Prime factorization of n as a sorted list of (prime, exponent); errors as root_part's."""
    return root_part((n,), table)


def root_part(ns: Sequence[int], table: SpfTable, k: int = 1) -> list[tuple[int, int]]:
    """(q, e // k) for each q^e || n with e >= k, for each n of ns in turn.

    For coprime ns this factors the largest m with m**k dividing their
    product; k = 1 factors each n.  A pure table walk, so 1 <= n <=
    table.limit is required and larger n raise ValueError.  Callers size
    the table for what they factor: the census sieve reaches 4T + 16 past
    every t +- 2.
    """
    out: list[tuple[int, int]] = []
    spf = table.ints
    for n in ns:
        if n < 1:
            raise ValueError("factorize expects n >= 1, got %r" % (n,))
        if n > table.limit:
            raise ValueError("factorize: %d exceeds the spf table limit %d" % (n, table.limit))
        while n > 1:
            q = spf[n]
            n //= q
            e = 1
            while n % q == 0:
                n //= q
                e += 1
            if e >= k:
                out.append((q, e // k))
    return out


def divisors_from_factorization(factors: list[tuple[int, int]]) -> list[int]:
    """All positive divisors, ascending."""
    divs = [1]
    for p, e in factors:
        divs = [d * p**j for j in range(e + 1) for d in divs]
    divs.sort()
    return divs


# (2/n) table indexed by n & 7: nonzero only for odd n, +1 iff n = +-1 mod 8.
KRONECKER_2 = (0, 1, 0, -1, 0, -1, 0, 1)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), full domain, by reciprocity recursion."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v > 0:
        if a % 2 == 0:
            return 0  # shared factor 2
        if v % 2 == 1:
            k *= KRONECKER_2[a & 7]
    # now n is odd and positive; standard Jacobi loop with 2-extraction
    a %= n
    while a != 0:
        v = 0
        while a % 2 == 0:
            a //= 2
            v += 1
        if v % 2 == 1:
            k *= KRONECKER_2[n & 7]
        # reciprocity flip: both a and n odd, flip sign iff both = 3 mod 4
        if a & n & 2:
            k = -k
        a, n = n % a, a
    return k if n == 1 else 0


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def valid_discriminant(D: int) -> bool:
    return D > 0 and D % 4 in (0, 1) and not is_square(D)


def require_discriminant(D: int) -> None:
    if not valid_discriminant(D):
        raise ValueError("not a positive nonsquare discriminant: %r" % (D,))


def nonresidue(p: int) -> int:
    """Least quadratic non-residue modulo an odd prime p."""
    n = 2
    while kronecker(n, p) != -1:
        n += 1
    return n
