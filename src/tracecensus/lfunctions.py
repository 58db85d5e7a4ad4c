"""Dirichlet L-values at s = 1 for real quadratic characters kronecker(D, .).

cohen_series evaluates Cohen's rapidly converging series (H. Cohen, A
Course in Computational Algebraic Number Theory, GTM 138, section 5.6): for
a fundamental discriminant D0 > 0,

    sqrt(D0) * L(1, chi_D0)
        = sum_{n >= 1} chi_D0(n) * (sqrt(D0)/n * erfc(n sqrt(pi/D0)) + E1(pi n^2/D0)),

whose terms decay like exp(-pi n^2 / D0), so about 3.7 sqrt(D0) terms reach
full double precision.  A non-fundamental D = D0 * f^2 differs from its
fundamental part only by the Euler factors at the primes of f, so

    sqrt(D) * L(1, chi_D) = euler_multiplier(D0, f) * sqrt(D0) * L(1, chi_D0)

with an exact integer multiplier.  cohen_series weighs a whole block of
fundamental discriminants in one vectorised pass, and l_value is its block
of one.  The tests keep the digamma sum over a whole period and direct
partial sums as oracles.
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


def chi_columns(d0s: list[int], lengths: list[int], table: SpfTable) -> np.ndarray:
    """kronecker(D0, k) for k = 0 .. max(lengths), one int8 column per fundamental D0.

    Column i is zero past lengths[i].  Euler's criterion at the odd primes
    for every column at once, vectorised in int64 (q^2 < 2^63 for every
    table prime), then complete multiplicativity through the smallest prime
    factor in doubling blocks: every k in [b, 2b) has k // spf(k) < b, so
    each block reads only finished rows.
    """
    n = max(lengths)
    if table.limit < n:
        raise ValueError(
            "spf table limit %d too small for the %d series terms of D0=%d"
            % (table.limit, n, d0s[lengths.index(n)])
        )
    chi = np.zeros((n + 1, len(d0s)), dtype=np.int8)
    chi[1] = 1
    primes = table.primes
    odd = primes[1 : np.searchsorted(primes, n, side="right")]
    q = odd[:, None]
    base = np.array(d0s, dtype=np.int64) % q
    exp = (q - 1) // 2
    res = np.ones_like(base)
    for j in range(int(exp[-1, 0]).bit_length()):
        res = np.where(exp >> j & 1, res * base % q, res)
        base = base * base % q
    chi[odd] = np.where(res == q - 1, -1, res)
    chi[2] = [kronecker(d0, 2) for d0 in d0s]
    # chi(k) = chi(spf(k)) * chi(k // spf(k)), offset by 2
    k = np.arange(2, n + 1)
    s = table.spf[2 : n + 1]
    r = k // s
    b = 2
    while b <= n:
        end = min(2 * b, n + 1)
        chi[b:end] = chi.take(s[b - 2 : end - 2], axis=0) * chi.take(r[b - 2 : end - 2], axis=0)
        b *= 2
    for i, m in enumerate(lengths):
        chi[m + 1 :, i] = 0
    return chi


def cohen_series(d0s: list[int], table: SpfTable) -> list[float]:
    """sqrt(D0) * L(1, chi_D0) for each fundamental D0 in d0s.

    One pass for the whole block: the character columns up to each D0's
    series_length, erfc and E1 over every nonzero term at once, and one
    math.fsum per D0.  A term is the same floating-point expression
    whatever block it is computed in, so each value is bit-identical to a
    block of one.  The table must reach every series_length(D0).
    """
    chi = chi_columns(d0s, [series_length(d0) for d0 in d0s], table)
    # the nonzero terms grouped by D0, k ascending within each
    flat = np.ascontiguousarray(chi.T).ravel()
    (at,) = np.nonzero(flat)
    col, k = np.divmod(at, len(chi))
    kf = k.astype(np.float64)
    d = np.array(d0s, dtype=np.float64)[col]
    # chi * (sqrt(D0) / k * erfc(k sqrt(pi / D0)) + E1(pi k k / D0)) with
    # each operation as in the formula, computed in place to keep the peak
    # memory of a block low
    terms = np.sqrt(d) / kf
    terms *= erfc(kf * np.sqrt(math.pi / d))
    y = math.pi * kf
    y *= kf
    y /= d
    terms += exp1(y)
    terms *= flat[at]
    ends = np.searchsorted(col, np.arange(len(d0s) + 1)).tolist()
    return [math.fsum(terms[a:b].tolist()) for a, b in zip(ends, ends[1:])]


def l_value(D: int, table: SpfTable) -> float:
    """L(1, chi_D) for any positive nonsquare discriminant D.

    Cohen's series for the fundamental part D0 (a block of one), times the
    exact Euler multiplier of the conductor f.  The table must reach
    isqrt(D) and series_length(D0).
    """
    D0, f = fundamental_part(D, table)
    (series,) = cohen_series([D0], table)
    return euler_multiplier(D0, f, table) * series / math.sqrt(D)
