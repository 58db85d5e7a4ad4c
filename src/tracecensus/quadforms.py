"""Reduced indefinite binary quadratic forms: cycles, class data, units.

A form (a, b, c) stands for a x^2 + b x y + c y^2 with discriminant
D = b^2 - 4ac > 0 and nonsquare.  Class counts here are strict (narrow)
ones: proper equivalence under SL2(Z), which is what matches counting
conjugacy classes of matrices and norm-one units of the order O_D.

class_cycles walks rho from the reduced forms with 4a^2 < D, whose b are
square roots of D mod 4a, glued by CRT from residue scans modulo prime
powers: O(sqrt(D)) values of a, and every reduced form lies on one of
their cycles.  reduced_forms lists the forms of those cycles.  The tests
hold the walk against an O(D) scan of each a's b-window and against a
trial-division enumeration, so neither route can silently drift.

fundamental_unit walks one more cycle with the same walker, that of the
principal form: the product of its rho-step substitutions is the
fundamental proper automorph, whose entries give the norm-one unit.
pell_from_known recovers that unit from any power of it by Lucas roots,
without walking; the tests hold the two routes against each other.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .numtheory import is_probable_prime, is_square, require_discriminant
# re-exported: the tests and the benchmark read it here
from .numtheory import valid_discriminant  # noqa: F401

Form = tuple[int, int, int]


def rho(form: Form, D: int) -> Form:
    """One cycle step of a reduced form: (a, b, c) -> (c, b', (b'^2 - D) / 4c).

    b' is the representative of -b mod 2|c| in the window (s - 2|c|, s],
    s = isqrt(D).  A reduced form has |c| < sqrt(D), so that window is the
    one the cycle needs; _cycle checks at every step that the walk stays
    reduced.
    """
    _, b, c = form
    s = math.isqrt(D)
    b2 = s - ((s + b) % (2 * abs(c)))
    return (c, b2, (b2 * b2 - D) // (4 * c))


def reduced_forms(D: int) -> list[Form]:
    """All primitive reduced forms of discriminant D, sorted: the forms of its class cycles."""
    return sorted(f for cycle in class_cycles(D) for f in cycle)


def _cycle(f: Form, D: int) -> Iterator[Form]:
    """The rho-cycle of the reduced form f, from f up to the form before f again.

    Every form is checked to be reduced before it is given out.  rho
    permutes the reduced forms, so the walk comes back to f.
    """
    s = math.isqrt(D)
    g = f
    while True:
        a, b, _ = g
        # the reduced window: max(s - 2|a| + 1, 2|a| - s, 1) <= b <= s
        if not (0 < b <= s and s - b < 2 * abs(a) <= s + b):
            raise RuntimeError("rho left the reduced set at %r (D=%d)" % (g, D))
        yield g
        g = rho(g, D)
        if g == f:
            return


def class_cycles(D: int) -> list[list[Form]]:
    """Partition the primitive reduced forms of discriminant D into rho-cycles.

    Consecutive forms (a, b, c), (c, b', c') of a cycle have
    |a c| = (D - b^2) / 4 < D / 4, so every cycle holds a form with
    4a^2 < D.  The walks start from those forms only: for each a <= s/2
    (s = isqrt(D)) the b with b^2 = D (mod 4a) come from roots modulo the
    prime powers of 4a, found by trial division of a and glued by CRT.
    Each prime power's roots are found once per call by scanning half its
    residues, about D / (8 log D) steps in all: up to a third of the call
    for D <= 10^6, most of it beyond.
    Every rho step is checked to stay reduced.  Each cycle is listed from
    its smallest form, and the cycles in ascending order of it; the tests
    check that their union is every primitive reduced form.
    """
    require_discriminant(D)
    s = math.isqrt(D)
    half = s // 2  # 4a^2 < D  <=>  2a <= s, as D is not a square
    # roots of D modulo a prime power, keyed by that modulus; the entry for
    # 2^(v+2) holds its roots reduced mod 2^(v+1), which is all b mod 2a sees
    local: dict[int, list[int]] = {}
    seen: set[Form] = set()
    cycles: list[list[Form]] = []
    for a in range(1, half + 1):
        v = (a & -a).bit_length() - 1  # 2^v exactly divides a
        mod = 2 << v
        roots = local.get(2 * mod)
        if roots is None:
            roots = local[2 * mod] = [r for r in range(mod) if (r * r - D) % (2 * mod) == 0]
        n, q = a >> v, 3
        while n > 1 and roots:
            while n % q and q * q <= n:
                q += 2
            if n % q:
                q = n  # no odd divisor up to its root, so n is prime
            k = 0
            while n % q == 0:
                n //= q
                k += 1
            pk = q**k
            lr = local.get(pk)
            if lr is None:
                d = D % pk  # roots pair up as r, -r, so half the residues suffice
                lr = local[pk] = [x for r in range(pk // 2 + 1) if r * r % pk == d for x in {r, -r % pk}]
            inv = pow(mod, -1, pk)
            roots = [r + mod * ((l - r) * inv % pk) for r in roots for l in lr]
            mod *= pk
        # mod == 2a when roots survive; the window (s - 2a, s] holds one b per root
        lo = s - 2 * a + 1
        for r in roots:
            b = lo + (r - lo) % mod
            c = (b * b - D) // (4 * a)
            if math.gcd(a, b, c) != 1:
                continue
            for f in ((a, b, c), (-a, b, -c)):
                if f not in seen:
                    cycle = list(_cycle(f, D))
                    seen.update(cycle)
                    i = cycle.index(min(cycle))
                    cycles.append(cycle[i:] + cycle[:i])
    cycles.sort()
    return cycles


def class_number_and_reps(D: int) -> tuple[int, list[Form]]:
    """Strict class number h and one representative per class (cycle minimum)."""
    cycles = class_cycles(D)
    return len(cycles), [c[0] for c in cycles]


def class_number(D: int) -> int:
    return class_number_and_reps(D)[0]


def _int_root(n: int, k: int) -> int:
    """Exact floor k-th root for n >= 0, k >= 1."""
    if k == 1 or n < 2:
        return n
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def _trace_power(tau: int, k: int) -> int:
    """Trace V_k of the k-th power of the norm-one unit with trace tau, k >= 1.

    Lucas doubling ladder over the bits of k, holding (V_n, V_n+1):
    V_2n = V_n^2 - 2 and V_2n+1 = V_n V_n+1 - tau.
    """
    v, w = 2, tau
    for bit in bin(k)[2:]:
        if bit == "1":
            v, w = v * w - tau, w * w - 2
        else:
            v, w = v * v - 2, v * w - tau
    return v


def fundamental_unit(D: int) -> tuple[int, int]:
    """Smallest (tau, s) with tau > 2, s >= 1 and tau^2 - D s^2 = 4.

    The norm-one fundamental unit of O_D is (tau + s sqrt(D)) / 2, read off
    the rho-cycle of the principal form (1, b0, (b0^2 - D) / 4), b0 the
    largest b <= isqrt(D) with b = D mod 2 (Lenstra, "Solving the Pell
    equation", Notices AMS 49, 2002).  The step (a, b, c) -> (c, b', c')
    is the substitution [[0, -1], [1, d]] with d = (b + b') / 2c, which is
    sign(c) * floor((isqrt(D) + b) / 2|c|).  Their product once round the
    cycle is a generator of the proper automorphs of the principal form,
    up to sign: [[(tau - b0 s) / 2, -c0 s], [s, (tau + b0 s) / 2]].  Only
    its second row (r, u) is kept, and tau = |2u - b0 r|, s = |r|.
    """
    require_discriminant(D)
    s = math.isqrt(D)
    b0 = s - ((s ^ D) & 1)
    r, u = 0, 1
    for _, b, c in _cycle((1, b0, (b0 * b0 - D) // 4), D):
        q = (s + b) // (2 * abs(c))
        r, u = u, (q if c > 0 else -q) * u - r
    return abs(2 * u - b0 * r), abs(r)


def pell_from_known(t: int, m: int, D: int) -> tuple[int, int]:
    """Fundamental (tau, s) of tau^2 - D s^2 = 4 given any solution (t, m).

    The given unit is a power of the fundamental one, so t is a Chebyshev
    image V_k of the fundamental trace (Lenstra, "Solving the Pell
    equation", Notices AMS 49, 2002).  Every unit trace of O_D has
    tau^2 - 4 = D s^2 >= D, so tau >= lo = max(3, isqrt(D + 3) + 1), and a
    k-th root can exist only while V_k(lo) <= t.  Only prime k are tried,
    in ascending order, and a hit replaces t and is tried at the same k
    again: once every smaller prime is divided out, t is no k-th power for
    a composite k, since a k-th power is also a q-th power for every prime
    q dividing k.  For tau >= 3, (tau - 1)^k < V_k(tau) < tau^k, so the
    only candidate root is the floor k-th root of t plus one; the cheap
    congruence and square tests run before the Lucas ladder.  No
    factorization of m is involved, so this stays cheap even when m has
    hundreds of digits.
    """
    if t < 3 or m < 1 or t * t - m * m * D != 4:
        raise ValueError("(%d, %d) does not solve the unit equation for D=%d" % (t, m, D))
    lo = max(3, math.isqrt(D + 3) + 1)
    k, v_prev, v = 2, lo, lo * lo - 2
    while v <= t:
        if is_probable_prime(k):
            tau = _int_root(t, k) + 1
            num = tau * tau - 4
            if tau >= lo and num % D == 0 and is_square(num // D) and _trace_power(tau, k) == t:
                t = tau
                continue
        k, v_prev, v = k + 1, v, lo * v - v_prev
    return t, math.isqrt((t * t - 4) // D)


def unit_log(tau: int) -> float:
    """log((tau + sqrt(tau^2 - 4)) / 2), stable for astronomically large tau."""
    if tau < 10**15:
        return math.acosh(tau / 2)
    # correction term is below 1e-30 here
    return math.log(tau)
