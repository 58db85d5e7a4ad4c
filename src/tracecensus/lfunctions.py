"""Dirichlet L-values at s = 1 for real quadratic characters kronecker(D, .).

l_value regroups the series by residue class and evaluates it in closed
form through digamma, which is exact up to float roundoff.  The tests keep
a direct partial sum with a proven tail bound as its oracle.

It accepts any positive nonsquare discriminant, fundamental or not: the
kronecker character of a non-maximal order is imprimitive and the missing
Euler factors are exactly what the unit-weighted class data produces.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma

from .numtheory import SpfTable, kronecker
from .quadforms import require_discriminant


def chi_values(D: int, table: SpfTable) -> np.ndarray:
    """kronecker(D, n) for n = 0 .. D-1 as an int8 array.

    Filled multiplicatively: one kronecker evaluation per prime, then
    prime-power slice multiplications, so the whole period costs about
    D log log D cheap array operations.
    """
    require_discriminant(D)
    if table.limit < D - 1:
        raise ValueError("spf table limit %d too small for D=%d" % (table.limit, D))
    chi = np.ones(D, dtype=np.int8)
    chi[0] = 0
    primes = table.primes
    for q in primes[primes < D]:
        q = int(q)
        v = kronecker(D, q)
        if v == 0:
            chi[q::q] = 0
            continue
        if v == 1:
            continue
        qk = q
        while qk < D:
            chi[qk::qk] *= -1
            qk *= q
    return chi


def l_value(D: int, table: SpfTable) -> float:
    """L(1, chi_D) via the digamma closed form over one period.

    Needs sum of chi over a period to vanish, which holds for every
    nonsquare discriminant.
    """
    chi = chi_values(D, table)
    if int(chi.astype(np.int64).sum()) != 0:
        raise RuntimeError("character sum over a period is nonzero for D=%d" % D)
    js = np.nonzero(chi)[0]
    terms = chi[js].astype(np.float64) * digamma(js.astype(np.float64) / D)
    return float(-terms.sum() / D)
