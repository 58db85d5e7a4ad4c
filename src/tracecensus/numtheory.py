"""Sieve-backed factorization, Kronecker symbol, modular square roots.

Everything here is exact integer arithmetic.  The smallest-prime-factor table
is the one shared piece of state: build it once, sized a little past the
largest trace you will census, and every t-2 / t+2 factorization is a table
walk instead of trial division.  Square roots modulo p^k are Tonelli-Shanks
mod p, then one Hensel lifting rule per power of p (Cohen, GTM 138, 1.5);
only the cycle oracle quadforms.class_cycles needs them.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpfTable",
    "build_spf_table",
    "factorize",
    "divisors_from_factorization",
    "kronecker",
    "is_square",
    "is_probable_prime",
    "nonresidue",
    "sqrt_mod_prime",
    "sqrt_mod_prime_power",
]


@dataclass(frozen=True)
class SpfTable:
    """Smallest-prime-factor table for 0..limit (spf[0] = spf[1] = 0).

    ints holds the same values as plain ints, for factorize's table walk.
    """

    limit: int
    spf: np.ndarray = field(repr=False)
    ints: array = field(repr=False)

    @functools.cached_property
    def primes(self) -> np.ndarray:
        """Every prime up to limit, ascending; computed once per table."""
        idx = np.arange(self.limit + 1, dtype=self.spf.dtype)
        return np.nonzero(self.spf == idx)[0][1:]  # [1:] drops the spf[0]==0 match


def build_spf_table(limit: int) -> SpfTable:
    """Sieve smallest prime factors for every n <= limit.

    limit must be >= 2.  Uses the classical refinement that a composite
    i*k with k < i already got its factor from k, so each prime only
    writes from i*i upward into still-unset slots.
    """
    if limit < 2:
        raise ValueError("spf table limit must be >= 2, got %r" % (limit,))
    spf = np.zeros(limit + 1, dtype=np.int64)
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            sl = spf[i * i :: i]
            sl[sl == 0] = i
    # whatever is still unset (n >= 2) is prime
    rest = np.nonzero(spf == 0)[0]
    spf[rest] = rest
    spf[0] = 0
    spf[1] = 0
    return SpfTable(limit=limit, spf=spf, ints=array("q", spf.tobytes()))


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
    """Prime factorization of n as a sorted list of (prime, exponent).

    A pure table walk, so 1 <= n <= table.limit is required and larger n
    raise ValueError.  Callers size the table for what they factor: the
    census sieve reaches 4T + 16 past every t +- 2.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1, got %r" % (n,))
    if n > table.limit:
        raise ValueError("factorize: %d exceeds the spf table limit %d" % (n, table.limit))
    out: list[tuple[int, int]] = []
    spf = table.ints
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def divisors_from_factorization(factors: list[tuple[int, int]]) -> list[int]:
    """All positive divisors, ascending."""
    divs = [1]
    for p, e in factors:
        pe = 1
        new = list(divs)
        for _ in range(e):
            pe *= p
            new.extend(d * pe for d in divs)
        divs = new
    divs.sort()
    return divs


# (2/n) table indexed by n & 7: nonzero only for odd n, +1 iff n = +-1 mod 8.
_TAB2 = (0, 1, 0, -1, 0, -1, 0, 1)


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
            k *= _TAB2[a & 7]
    # now n is odd and positive; standard Jacobi loop with 2-extraction
    a %= n
    while a != 0:
        v = 0
        while a % 2 == 0:
            a //= 2
            v += 1
        if v % 2 == 1:
            k *= _TAB2[n & 7]
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


def nonresidue(p: int) -> int:
    """Least quadratic non-residue modulo an odd prime p."""
    n = 2
    while kronecker(n, p) != -1:
        n += 1
    return n


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """Smallest square root of a modulo a prime p, or None.

    Tonelli-Shanks with the least non-residue, so the result is
    reproducible.  Returns r with r^2 = a (mod p) and r <= p - r.
    """
    a %= p
    if a == 0 or p == 2:
        return a
    if kronecker(a, p) != 1:
        return None
    # write p-1 = q * 2^s with q odd
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    c = pow(nonresidue(p), q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        # find least i with t^(2^i) = 1
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


def sqrt_mod_prime_power(a: int, p: int, k: int) -> list[int]:
    """All square roots of a modulo p^k, sorted.

    Start from the roots mod p and lift one power at a time: for j >= 1,
    (r + i p^j)^2 = r^2 + 2 r i p^j (mod p^(j+1)).  A root r mod p^j with
    p not dividing 2r lifts by the one i solving 2 r i = (a - r^2)/p^j
    (mod p); one with p | 2r lifts by all p values of i or by none.  The
    same rule covers p | a and p = 2.
    """
    if k == 0:
        return [0]
    r = sqrt_mod_prime(a, p)
    roots = [] if r is None else sorted({r, -r % p})
    pj = p
    for _ in range(1, k):
        lifted = []
        for r in roots:
            c = (a - r * r) // pj  # exact: r is a root mod p^j
            if (2 * r) % p:
                lifted.append(r + c * pow(2 * r, -1, p) % p * pj)
            elif c % p == 0:
                lifted.extend(range(r, pj * p, pj))
        roots = lifted
        pj *= p
    return sorted(roots)
