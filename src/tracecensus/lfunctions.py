"""Dirichlet L-values at s = 1 for real quadratic characters kronecker(D, .).

l_value evaluates Cohen's rapidly converging series (H. Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, section 5.6): for a
fundamental discriminant D0 > 0,

    sqrt(D0) * L(1, chi_D0)
        = sum_{n >= 1} chi_D0(n) * (sqrt(D0)/n * erfc(n sqrt(pi/D0)) + E1(pi n^2/D0)),

whose terms decay like exp(-pi n^2 / D0), so about 3.7 sqrt(D0) terms reach
full double precision.  A non-fundamental D = D0 * f^2 differs from its
fundamental part only by the Euler factors at the primes of f, so

    sqrt(D) * L(1, chi_D) = euler_multiplier(D0, f) * sqrt(D0) * L(1, chi_D0)

with an exact integer multiplier.  The tests keep the digamma sum over a
whole period and direct partial sums as oracles.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, exp1

from .numtheory import SpfTable, factorize, kronecker
from .quadforms import require_discriminant

# the truncated tail stays below this fraction of the series value
TAIL_REL = 2.0**-53


def fundamental_part(D: int, table: SpfTable) -> tuple[int, int]:
    """(D0, f) with D = D0 * f^2 and D0 a fundamental discriminant.

    Trial division by the table primes up to isqrt(D), so D itself may
    exceed table.limit; the table must reach isqrt(D).
    """
    require_discriminant(D)
    root = math.isqrt(D)
    if table.limit < root:
        raise ValueError(
            "spf table limit %d is below isqrt(D) = %d needed to factor D=%d" % (table.limit, root, D)
        )
    primes = table.primes
    small = primes[: np.searchsorted(primes, root, side="right")]
    core, f, rest = 1, 1, D
    for q in small[D % small == 0].tolist():
        e = 0
        while rest % q == 0:
            rest //= q
            e += 1
        f *= q ** (e // 2)
        core *= q ** (e % 2)
    core *= rest  # 1 or a prime above isqrt(D), to the first power
    if core % 4 != 1:
        core *= 4
        f //= 2
    return core, f


def euler_multiplier(D0: int, f: int, table: SpfTable) -> int:
    """f * prod_{q | f} (1 - chi_D0(q)/q), exactly.

    Equal to prod_{q^k || f} q^(k-1) * (q - chi_D0(q)), an integer.
    """
    out = 1
    for q, k in factorize(f, table):
        out *= q ** (k - 1) * (q - kronecker(D0, q))
    return out


def series_length(D0: int) -> int:
    """Terms of Cohen's series after which the proven tail is negligible.

    Starts at 3.7 sqrt(D0) and grows until the tail bound is at most
    TAIL_REL times log sqrt(D0), a lower bound of the series value:
    sqrt(D0) L(1, chi_D0) = h * log(eps) with eps > sqrt(D0).
    """
    n = math.ceil(3.7 * math.sqrt(D0))
    floor = TAIL_REL * 0.5 * math.log(D0)
    while tail_bound(D0, n) > floor:
        n += 1 + n // 64
    return n


def tail_bound(D0: int, n: int) -> float:
    """Upper bound on the sum of |term_k| over k > n.

    With y_k = pi k^2 / D0, erfc(z) <= exp(-z^2) / (z sqrt(pi)) and
    E1(y) <= exp(-y) / y give |term_k| <= 2 exp(-y_k) / y_k.  For
    k = n + 1 + j, y_k >= y_{n+1} + 2 pi (n + 1) j / D0, so the tail is at
    most a geometric series in exp(-2 pi (n + 1) / D0).
    """
    y = math.pi * (n + 1) ** 2 / D0
    ratio = -math.expm1(-2.0 * math.pi * (n + 1) / D0)
    return 2.0 * math.exp(-y) / (y * ratio)


def chi_prefix(D0: int, n: int, table: SpfTable) -> np.ndarray:
    """kronecker(D0, k) for k = 0 .. n as an int8 array, D0 fundamental.

    Euler's criterion at the odd primes, vectorised in int64 (q^2 < 2^63
    for every table prime), then complete multiplicativity through the
    smallest prime factor in doubling blocks: every k in [b, 2b) has
    k // spf(k) < b, so each block reads only finished entries.
    """
    if table.limit < n:
        raise ValueError(
            "spf table limit %d too small for the %d series terms of D0=%d" % (table.limit, n, D0)
        )
    chi = np.zeros(n + 1, dtype=np.int8)
    chi[1] = 1
    primes = table.primes
    q = primes[: np.searchsorted(primes, n, side="right")]
    odd = q[1:]
    base = D0 % odd
    exp = (odd - 1) // 2
    res = np.ones_like(odd)
    while exp.any():
        res = np.where(exp & 1, res * base % odd, res)
        base = base * base % odd
        exp >>= 1
    chi[odd] = np.where(res == odd - 1, -1, res)
    chi[2] = kronecker(D0, 2)
    spf = table.spf
    b = 2
    while b <= n:
        k = np.arange(b, min(2 * b, n + 1))
        s = spf[k]
        chi[k] = chi[s] * chi[k // s]
        b *= 2
    return chi


def l_value(D: int, table: SpfTable) -> float:
    """L(1, chi_D) for any positive nonsquare discriminant D.

    Cohen's series for the fundamental part D0, summed with math.fsum over
    n <= series_length(D0), times the exact Euler multiplier of the
    conductor f.  The table must reach isqrt(D) and series_length(D0).
    """
    D0, f = fundamental_part(D, table)
    chi = chi_prefix(D0, series_length(D0), table)
    k = np.nonzero(chi)[0]
    kf = k.astype(np.float64)
    root = math.sqrt(D0)
    terms = chi[k] * (root / kf * erfc(kf * math.sqrt(math.pi / D0)) + exp1(math.pi * kf * kf / D0))
    series = math.fsum(terms.tolist())
    return euler_multiplier(D0, f, table) * series / math.sqrt(D)
