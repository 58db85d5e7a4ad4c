"""Independent slow re-computations used to cross-check the package.

Nothing here shares algorithmic structure with the production code paths:
forms come from trial division, units from continued fraction convergents,
census weights from a discriminant scan, conjugacy classes from an orbit
partition of the whole group, and L-values from the digamma closed form over
one full period of chi (l_value_digamma) and from direct partial sums of
chi(n)/n up to a proven tail bound (l_value_truncated).  Two oracles start
from the package's b-window scan, itself the oracle for class_cycles'
root-lifted starts: scan_class_cycles partitions it with rho, and
class_count_bfs into components under S, T and T^-1, knowing nothing of
rho.  The class split of a trace line walks the package's class cycles
and recovers each unit (class_split_by_cycles), knowing nothing of genus
characters.  Keep these dumb.
"""

import math
from collections import deque
from fractions import Fraction

import numpy as np
from scipy.special import digamma

from tracecensus.census import trace_decompositions
from tracecensus.numtheory import SpfTable, kronecker
from tracecensus.quadforms import (
    Form,
    class_number_and_reps,
    pell_from_known,
    reduced_forms,
    require_discriminant,
    rho,
    unit_log,
)
from tracecensus.sl2fp import classify


def scan_class_cycles(D):
    """rho-cycles of every form the O(D) scan lists, each from its minimum.

    Walks from the scanned forms in ascending order, so each cycle starts at
    its smallest form and the cycles come in ascending order of it.  Any
    step that leaves the scanned set raises.
    """
    forms = reduced_forms(D)
    index = {f: i for i, f in enumerate(forms)}
    seen = [False] * len(forms)
    cycles = []
    for start_i, start in enumerate(forms):
        if seen[start_i]:
            continue
        cycle = []
        f = start
        while True:
            i = index.get(f)
            if i is None:
                raise AssertionError("rho left the reduced set at %r (D=%d)" % (f, D))
            if seen[i]:
                break
            seen[i] = True
            cycle.append(f)
            f = rho(f, D)
        cycles.append(cycle)
    return cycles


def matrix_from_form(t: int, m: int, form: Form) -> tuple[int, int, int, int]:
    """Integer matrix of trace t fixing the scaled form m*(a,b,c).

    Row-major (n11, n12, n21, n22) with determinant one.
    """
    a, b, c = form
    aa, bb, cc = m * a, m * b, m * c
    if (t - bb) % 2 != 0:
        raise ValueError("trace %d and form %r have mismatched parity" % (t, form))
    mat = ((t - bb) // 2, -cc, aa, (t + bb) // 2)
    if mat[0] * mat[3] - mat[1] * mat[2] != 1:
        raise RuntimeError("constructed matrix is not unimodular")
    return mat


def cycle_classes(t: int, m: int, d: int, p: int) -> list:
    """SL2(F_p) class of the matrix fixing each class representative of (m, d)."""
    _, reps = class_number_and_reps(d)
    return [classify(tuple(v % p for v in matrix_from_form(t, m, form)), p) for form in reps]


def class_split_by_cycles(t: int, p: int, label_index: dict, table: SpfTable) -> list[float]:
    """Line t's weight per class: each class cycle adds its 2 log eps to its matrix's class."""
    split = [0.0] * len(label_index)
    for m, d in trace_decompositions(t, table):
        tau0, _ = pell_from_known(t, m, d)
        logeps = unit_log(tau0)
        for label in cycle_classes(t, m, d, p):
            split[label_index[label]] += 2.0 * logeps
    return split


def apply_sl2(form: Form, mat: tuple[int, int, int, int]) -> Form:
    """Transform a form by (alpha, beta, gamma, delta) in SL2(Z)."""
    a, b, c = form
    al, be, ga, de = mat
    if al * de - be * ga != 1:
        raise ValueError("matrix is not in SL2(Z)")
    a2 = a * al * al + b * al * ga + c * ga * ga
    b2 = 2 * a * al * be + b * (al * de + be * ga) + 2 * c * ga * de
    c2 = a * be * be + b * be * de + c * de * de
    return (a2, b2, c2)


_BFS_GENS = ((0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 0, 1))  # S, T, T^-1


def class_count_bfs(D: int) -> int:
    """Class count by BFS-partitioning reduced forms.  Oracle-grade, small D.

    Knows nothing about rho-cycles: components under the generator moves.
    Cost grows roughly quadratically in isqrt(D); keep D modest (<= ~10^5).
    """
    require_discriminant(D)
    # a T-chain between cycle neighbours can pass through |c| = D/(4|a|),
    # so D/4 (hit when |a| = 1) is the honest coefficient ceiling
    box = max(math.isqrt(D), D // 4) + 9
    remaining = set(reduced_forms(D))
    count = 0
    while remaining:
        start = min(remaining)
        count += 1
        seen = {start}
        frontier = deque([start])
        remaining.discard(start)
        while frontier:
            cur = frontier.popleft()
            for mat in _BFS_GENS:
                nxt = apply_sl2(cur, mat)
                if nxt in seen:
                    continue
                na, nb, nc = nxt
                if abs(na) > box or abs(nb) > box or abs(nc) > box:
                    continue
                seen.add(nxt)
                frontier.append(nxt)
                remaining.discard(nxt)
    return count


def brute_reduced_forms(D):
    """Primitive reduced forms by scanning b and trial-dividing (D - b^2)/4."""
    s = math.isqrt(D)
    out = set()
    for b in range(1, s + 1):
        if (b - D) % 2 != 0:
            continue
        n4 = D - b * b
        if n4 % 4 != 0:
            continue
        n = n4 // 4  # = -a*c > 0
        for a in range(1, n + 1):
            if n % a != 0:
                continue
            c = -(n // a)
            for f in ((a, b, c), (-a, b, -c)):
                if math.gcd(f[0], b, f[2]) == 1 and _reduced(f, D):
                    out.add(f)
    return sorted(out)


def _reduced(form, D):
    a, b, c = form
    if b <= 0 or b * b >= D:
        return False
    ta = 2 * abs(a)
    if (ta + b) ** 2 <= D:
        return False
    if ta > b and (ta - b) ** 2 >= D:
        return False
    return True


def pell_oracle(D):
    """Fundamental (tau, s) of tau^2 - D s^2 = 4 via CF convergents.

    Runs the plain convergent recurrence for sqrt(N) until u^2 - N v^2 = 1,
    no period bookkeeping, then converts: for D = 4N the answer is (2u, v);
    for odd D a cube root descent finds the half-integer unit if any.
    """
    if D % 4 == 0:
        u, v = _pell1_cf(D // 4)
        return 2 * u, v
    u, v = _pell1_cf(D)
    two_u = 2 * u
    base = _cbrt_floor(two_u)
    for tau in range(max(3, base - 2), base + 4):
        if tau**3 - 3 * tau == two_u:
            num = tau * tau - 4
            s2, rem = divmod(num, D)
            if rem == 0:
                s = math.isqrt(s2)
                if s * s == s2 and tau * tau - D * s * s == 4:
                    return tau, s
    return 2 * u, 2 * v


def _cbrt_floor(n):
    lo, hi = 0, 1 << (n.bit_length() // 3 + 2)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid * mid * mid <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _pell1_cf(N):
    """Minimal x^2 - N y^2 = 1 by walking continued fraction convergents."""
    a0 = math.isqrt(N)
    # CF state for sqrt(N): alpha = (P + sqrt(N)) / Q
    P, Q, a = 0, 1, a0
    h0, h1 = 1, a0
    k0, k1 = 0, 1
    for _ in range(10**7):
        if h1 * h1 - N * k1 * k1 == 1:
            return h1, k1
        P = a * Q - P
        Q = (N - P * P) // Q
        a = (P + a0) // Q
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
    raise RuntimeError("CF walk exhausted for N=%d" % N)


def psi_by_discriminant_scan(x, p):
    """Per-residue weighted census by scanning discriminants, not traces.

    For each discriminant D < 4x, finds the fundamental unit by a bounded
    scan over s (complete: a unit of norm <= x has s <= 2 sqrt(x) / sqrt(D)),
    takes the class number from the brute form enumeration, and walks the
    trace recurrence over unit powers.  Returns (psi array mod p, psi total).
    """
    tmax = math.isqrt((x + 1) ** 2 // x)
    psi = [0.0] * p
    total = 0.0
    for D in range(5, 4 * x):
        if D % 4 not in (0, 1):
            continue
        r = math.isqrt(D)
        if r * r == D:
            continue
        smax = (2 * math.isqrt(x) + 2) // r + 1
        fund = None
        for s in range(1, smax + 1):
            v = 4 + s * s * D
            rv = math.isqrt(v)
            if rv * rv == v:
                fund = (rv, s)
                break
        if fund is None:
            continue
        tau = fund[0]
        if tau > tmax:
            continue
        h = _brute_class_count(D)
        w = h * 2.0 * math.acosh(tau / 2.0)
        t_prev, t_cur = 2, tau
        while t_cur <= tmax:
            psi[t_cur % p] += w
            total += w
            t_prev, t_cur = t_cur, tau * t_cur - t_prev
    return psi, total


def _brute_class_count(D):
    """Class count: cycle partition of the brute reduced forms.

    The reduction step locates the next middle coefficient by searching
    the whole target window, so it shares no modular arithmetic with the
    production step.  Walks stay inside the brute-enumerated set and any
    escape raises.
    """
    forms = brute_reduced_forms(D)
    pool = set(forms)
    count = 0
    while pool:
        start = min(pool)
        pool.discard(start)
        count += 1
        f = _search_step(start, D)
        while f != start:
            if f not in pool:
                raise AssertionError("walk left the reduced set at %r" % (f,))
            pool.discard(f)
            f = _search_step(f, D)
    return count


def _search_step(form, D):
    _, b, c = form
    m2 = 2 * abs(c)
    r = math.isqrt(D)
    if abs(c) <= r:
        window = range(r - m2 + 1, r + 1)
    else:
        window = range(-abs(c) + 1, abs(c) + 1)
    hits = [bp for bp in window if (bp + b) % m2 == 0]
    if len(hits) != 1:
        raise AssertionError("window search failed for %r, D=%d" % (form, D))
    bp = hits[0]
    cp, rem = divmod(bp * bp - D, 4 * c)
    if rem != 0:
        raise AssertionError("non-integral step for %r, D=%d" % (form, D))
    return (c, bp, cp)


def sl2_conjugacy_orbits(p):
    """All conjugacy classes of SL2(F_p) by explicit orbit partition.

    Enumerates the whole group, then closes each class under conjugation
    by the two standard generators.  Only sane for tiny p.
    """
    group = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p == 1:
                        group.append((a, b, c, d))
    gens = [(1, 1, 0, 1), (0, 1, p - 1, 0)]
    inv = {g: _inv2(g, p) for g in gens}
    remaining = set(group)
    orbits = []
    while remaining:
        start = min(remaining)
        orbit = {start}
        stack = [start]
        remaining.discard(start)
        while stack:
            m = stack.pop()
            for g in gens:
                n = _mul2(_mul2(g, m, p), inv[g], p)
                if n not in orbit:
                    orbit.add(n)
                    stack.append(n)
                    remaining.discard(n)
        orbits.append(sorted(orbit))
    return orbits


def orbit_class_table(p):
    """(trace, size, centralizer) of every orbit of sl2_conjugacy_orbits, sorted."""
    orbits = sl2_conjugacy_orbits(p)
    order = sum(len(o) for o in orbits)
    return sorted(((o[0][0] + o[0][3]) % p, len(o), order // len(o)) for o in orbits)


def _mul2(m, n, p):
    a, b, c, d = m
    e, f, g, h = n
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def _inv2(m, p):
    a, b, c, d = m
    return (d % p, (-b) % p, (-c) % p, a % p)


def closed_form_density(p, a):
    """Residue density straight from the kronecker case split."""
    if p == 2:
        return Fraction(1, 3) if a % 2 == 1 else Fraction(2, 3)
    k = _kron(a * a - 4, p)
    if k == 1:
        return Fraction(1, p - 1)
    if k == -1:
        return Fraction(1, p + 1)
    return Fraction(p, p * p - 1)


def _kron(n, p):
    n %= p
    if n == 0:
        return 0
    return 1 if pow(n, (p - 1) // 2, p) == 1 else -1


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


def l_value_digamma(D: int, table: SpfTable) -> float:
    """L(1, chi_D) via the digamma closed form over one period, O(D).

    Regroups the series by residue class, which needs the sum of chi over
    a period to vanish; it does for every nonsquare discriminant.
    """
    chi = chi_values(D, table)
    if int(chi.astype(np.int64).sum()) != 0:
        raise RuntimeError("character sum over a period is nonzero for D=%d" % D)
    js = np.nonzero(chi)[0]
    terms = chi[js].astype(np.float64) * digamma(js.astype(np.float64) / D)
    return float(-terms.sum() / D)


def l_value_truncated(D: int, table: SpfTable, rel_tol: float = 1e-3,
                      n_cap: int = 2**25) -> float:
    """Direct partial sums of chi(n)/n until the tail bound meets rel_tol.

    The tail after N is at most 2B/(N+1) where B is the exact maximum of
    |sum of chi up to k| over one period.  Raises if the cap is reached
    before the requested tolerance is certified.
    """
    chi = chi_values(D, table)
    partial = np.cumsum(chi.astype(np.int64))
    bound = int(np.abs(partial).max())
    chif = chi.astype(np.float64)
    n = 1 << 16
    while True:
        s = _partial_sum(chif, D, n)
        if 2.0 * bound / (n + 1) <= rel_tol * abs(s):
            return s
        n *= 2
        if n > n_cap:
            raise ValueError(
                "rel_tol %g not certifiable for D=%d within %d terms" % (rel_tol, D, n_cap)
            )


def _partial_sum(chif: np.ndarray, D: int, n: int) -> float:
    total = 0.0
    step = 1 << 20
    for lo in range(1, n + 1, step):
        hi = min(lo + step, n + 1)
        idx = np.arange(lo, hi, dtype=np.int64)
        total += float((chif[idx % D] / idx).sum())
    return total
