"""Dirichlet L-values at s = 1 for real quadratic characters kronecker(D, .).

cohen_series evaluates Cohen's rapidly converging series (H. Cohen, A
Course in Computational Algebraic Number Theory, GTM 138, section 5.6): for
a fundamental discriminant D0 > 0,

    sqrt(D0) * L(1, chi_D0) = sum_{k >= 1} chi_D0(k) * g(k / sqrt(D0)),
    g(u) = erfc(sqrt(pi) u) / u + E1(pi u^2),

whose terms decay like exp(-pi k^2 / D0), so about 3.7 sqrt(D0) terms reach
full double precision; every u the series needs is below 4.1.  cohen_g
evaluates g with numpy alone, from one table of degree-9 pieces on
[0, 4.5) fitted to mpmath values (tests/make_g_table.py regenerates it):
below u = 1/2 a piece holds g - 1/u + log(u^2), which is entire in u^2, and
from there on exp(pi u^2) g(u), with np.log and np.exp supplying the rest.
A non-fundamental D = D0 * f^2 differs from its fundamental part only by
the Euler factors at the primes of f, so

    sqrt(D) * L(1, chi_D) = euler_multiplier(D0, f) * sqrt(D0) * L(1, chi_D0)

with an exact integer multiplier.  cohen_series weighs a whole block of
fundamental discriminants in one vectorised pass, and l_value is its block
of one.  Its character table, chi_columns, finds chi_D0(q) only for the
(odd prime q, D0) pairs with q within that D0's series length: one lookup
in a per-process cache of Legendre symbols for q <= RESIDUE_TOP = 2^12
(1.07 MB, built prime by prime), Euler's criterion above.  Each D0's terms
are summed to the correctly rounded value math.fsum gives.  A block of
ROW_SUM_MIN_TERMS terms or more gets it in a few numpy passes by error-free
extraction (Rump, Ogita and Oishi, "Accurate floating-point summation, part
I", SIAM J. Sci. Comput. 31, 2008).  Per row, sigma = 2^(e + m) with
every |term| < 2^e and n + 2 < 2^m for its n terms splits each term x
exactly into q = (sigma + x) - sigma, whose sum tau is exact in any order,
and r = x - q, whose float sum is within err = 2 n^2 2^-106 sigma of exact.
Where tau plus either end of that interval, widened one float outward
(lo and hi), rounds to the same float, that float is the sum; any other
row, and every row of a smaller block, is summed by math.fsum.  The tests
keep Euler's criterion, the digamma sum, direct partial sums and mpmath as
oracles.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .numtheory import KRONECKER_2, SpfTable, build_spf_table, factorize, kronecker, require_discriminant

# the truncated tail stays below this fraction of the series value
TAIL_REL = 2.0**-53
# series_length starts at this many terms per sqrt(D0), and census blocks are cut by it
TERMS_PER_ROOT = 3.7
RESIDUE_TOP = 2**12  # chi_columns looks chi(q) up in a residue table for odd primes q up to here
# _row_sums leaves a block of fewer terms wholly to math.fsum: on 1 to 32
# rows per block its numpy passes lost to one fsum per row at 1024 terms
# (27 vs 19 us) and won from about 1536 (timeit minima, 2-vCPU x86 VM)
ROW_SUM_MIN_TERMS = 2048

# kronecker(D0, 2) by D0 mod 8
_CHI_2 = np.array(KRONECKER_2, dtype=np.int8)
# row j masks bit j of (q - 1) / 2, which is bit j + 1 of an odd q
_EXPONENT_BITS = 2 << np.arange(62)[:, None]

# cohen_g's table G_PIECES (at the end of the module) covers 0 < u < G_END
# in pieces of width 1/PIECES_PER_UNIT and changes what it holds at G_SPLIT
PIECES_PER_UNIT = 16
G_SPLIT = 0.5
G_END = 4.5


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


def euler_terms(D0: int, q: int, k: int) -> list[int]:
    """Euler multipliers c_j of D0 at q^j, j = 0..k: c_0 = 1, c_j = q^(j-1) (q - chi_D0(q)).

    sum_{f | F} euler_multiplier(D0, f) = prod_{q^k || F} sum(c), which times
    sqrt(D0) L(1, chi_D0) is sqrt(D0 F^2) L(1, D0 F^2) with Zagier's L(s, delta)
    (1977), the summand Soundararajan and Young (2013) start from.
    """
    step = q - kronecker(D0, q)
    return [1] + [q ** (j - 1) * step for j in range(1, k + 1)]


def euler_multiplier(D0: int, f: int, table: SpfTable) -> int:
    """f * prod_{q | f} (1 - chi_D0(q)/q) = prod_{q^k || f} c_k of euler_terms, exactly."""
    return math.prod(euler_terms(D0, q, k)[k] for q, k in factorize(f, table))


def series_length(D0: int) -> int:
    """Terms of Cohen's series after which the proven tail is negligible.

    Starts at TERMS_PER_ROOT sqrt(D0) and grows until the tail bound is at
    most TAIL_REL times log sqrt(D0), a lower bound of the series value:
    sqrt(D0) L(1, chi_D0) = h * log(eps) with eps > sqrt(D0).
    """
    n = math.ceil(TERMS_PER_ROOT * math.sqrt(D0))
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


@functools.cache
def _residue_table(top: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, symbols): symbols[starts[i] + r] = (r/q) for the i-th odd prime q <= top, 0 <= r < q."""
    # built once per top and process, 1.07 MB at 2^12
    qs = build_spf_table(max(top, 2)).primes[1:]
    starts = np.cumsum(qs) - qs
    symbols = np.full(qs.sum(), -1, dtype=np.int8)
    squares = np.arange(1, top // 2 + 1, dtype=np.int64) ** 2  # q's nonzero squares: k^2 mod q, k < q / 2
    for start, q in zip(starts.tolist(), qs.tolist()):
        symbols[start : start + q][squares[: q // 2] % q] = 1
    symbols[starts] = 0
    starts.flags.writeable = symbols.flags.writeable = False  # shared by every caller
    return starts, symbols


def chi_columns(d0s: list[int], lengths: list[int], table: SpfTable) -> np.ndarray:
    """kronecker(D0, k) for k = 0 .. max(lengths), one int8 column per fundamental D0.

    Column i is zero past lengths[i]; any lengths >= 0 are accepted.  Only
    (odd prime q, column i) pairs with q <= lengths[i] are evaluated: one
    lookup in _residue_table(top) for q <= top = min(RESIDUE_TOP, the power
    of two >= max(lengths)), else Euler's criterion D0^((q - 1) / 2) mod q,
    in uint32 when max(lengths) < 2^16 (then q^2 < 2^32) and in uint64
    otherwise (q^2 < 2^64 for any table that fits in memory).  chi(2) is
    read off D0 mod 8.  Complete multiplicativity through the smallest
    prime factor fills the composites in doubling blocks: every k in
    [b, 2b) has k // spf(k) < b, so each block reads only finished rows,
    and k <= lengths[i] reads only rows <= lengths[i].  One broadcast
    multiply zeroes the column tails.
    """
    n = max(lengths)
    if table.limit < n:
        raise ValueError(
            "spf table limit %d too small for the %d series terms of D0=%d"
            % (table.limit, n, d0s[lengths.index(n)])
        )
    chi = np.zeros((n + 1, len(d0s)), dtype=np.int8)
    # rows 1 and 2 as slices, empty when n is below them
    chi[1:2] = 1
    d0 = np.array(d0s, dtype=np.int64)
    chi[2:3] = _CHI_2.take(d0 & 7)
    ends = np.array(lengths)
    primes = table.primes
    odd = primes[1 : np.searchsorted(primes, n, side="right")]
    row, col = np.nonzero(odd[:, None] <= ends)
    q = odd[row]
    # the pairs come by ascending q, so those at or below top lead
    top = min(RESIDUE_TOP, 1 << (n - 1).bit_length())
    starts, symbols = _residue_table(top)
    cut = np.searchsorted(q, top, side="right")
    chi[q[:cut], col[:cut]] = symbols.take(starts.take(row[:cut]) + d0.take(col[:cut]) % q[:cut])
    if cut < len(q):
        q, col = q[cut:], col[cut:]
        # bits[j]: bit j of each pair's exponent (q - 1) / 2 <= n / 2 is set
        bits = (q & _EXPONENT_BITS[: (n >> 1).bit_length()]) != 0
        # square-and-multiply on [power so far | D0^(2^j) mod q], one remainder per bit
        dtype = np.uint32 if n < 2**16 else np.uint64
        state = np.concatenate([np.ones_like(q), d0[col] % q], dtype=dtype, casting="unsafe")
        power, base = state[: len(q)], state[len(q) :]
        moduli = np.concatenate([q, q], dtype=dtype, casting="unsafe")
        for bit in bits:
            np.multiply(power, base, out=power, where=bit)
            np.multiply(base, base, out=base)
            np.remainder(state, moduli, out=state)
        # the power is 0, 1 or q - 1, and q - 1 > 1
        chi[q, col] = np.where(power > 1, -1, power == 1)
    # chi(k) = chi(spf(k)) * chi(k // spf(k)) for k >= 4, offset by 4
    k = np.arange(n + 1)
    s = table.spf[4 : n + 1]
    r = k[4:] // s
    b = 4
    while b <= n:
        np.multiply(
            chi.take(s[b - 4 : 2 * b - 4], axis=0), chi.take(r[b - 4 : 2 * b - 4], axis=0), out=chi[b : 2 * b]
        )
        b *= 2
    chi *= (k[:, None] <= ends).view(np.int8)
    return chi


def cohen_g(u: np.ndarray) -> np.ndarray:
    """g(u) = erfc(sqrt(pi) u) / u + E1(pi u^2) for each 0 < u < G_END.

    One take of every u's G_PIECES coefficients and one Horner pass give
    p(u); then g = p + 1/u - log(u^2) below G_SPLIT and g = p * exp(-pi u^2)
    from there on.  Each value depends on its own u only, never on the rest
    of the array.
    """
    s = u * PIECES_PER_UNIT
    whole = s.astype(np.intp)
    s -= whole  # exact below 2^52, as np.modf
    coeffs = _PIECE_ROWS.take(whole, axis=1)
    p = coeffs[-1] * s
    for row in coeffs[-2:0:-1]:
        p += row
        p *= s
    p += coeffs[0]
    v = u * u
    near = 1.0 / u
    near -= np.log(v)
    near += p
    v *= -math.pi
    p *= np.exp(v, out=v)
    return np.where(u < G_SPLIT, near, p)


def cohen_series(d0s: list[int], table: SpfTable) -> list[float]:
    """sqrt(D0) * L(1, chi_D0) for each fundamental D0 in d0s.

    One pass for the whole block: the character columns up to each D0's
    series_length, cohen_g over every nonzero term at once, found by one
    scan of the transposed columns, and _row_sums: each D0's correctly
    rounded sum, from Rump, Ogita and Oishi's error-free extraction where
    the error bound 2 n^2 2^-106 sigma certifies it, else math.fsum, as in
    any block of fewer than ROW_SUM_MIN_TERMS terms.  A term is the same
    floating-point expression whatever block it is computed in, and its sum
    is rounded once, so each value is bit-identical to a block of one.  The
    table must reach every series_length(D0), and a series that would need
    g at or past G_END is refused.
    """
    lengths = [series_length(d0) for d0 in d0s]
    inv_roots = [1.0 / math.sqrt(d0) for d0 in d0s]
    for d0, n, r in zip(d0s, lengths, inv_roots):
        if n * r >= G_END:
            raise ValueError(
                "the %d series terms of D0=%d reach u = %.3f, past the g table end %g"
                % (n, d0, n * r, G_END)
            )
    # one row per D0, so the nonzero terms come grouped by D0, k ascending
    chi = np.ascontiguousarray(chi_columns(d0s, lengths, table).T)
    width = chi.shape[1]
    at = np.flatnonzero(chi != 0)
    ends = np.searchsorted(at, np.arange(0, chi.size + 1, width))
    counts = np.diff(ends)
    u = np.repeat(inv_roots, counts)
    u *= at - np.repeat(np.arange(0, chi.size, width), counts)  # k / sqrt(D0)
    terms = cohen_g(u)
    terms *= chi.ravel()[at]
    return _row_sums(terms, ends)


def _row_sums(terms: np.ndarray, ends: np.ndarray) -> list[float]:
    """math.fsum(terms[a:b]) for each pair of consecutive ends a < b, bit for bit.

    The module docstring's certificate, per row of n terms x: q and r are
    exact with |r| <= 2^-53 sigma; every partial sum of the q is a multiple
    of 2^-53 sigma below sigma, so tau = sum q is exact in any order; and the
    float sum of the r, in any order, is within gamma_(n-1) sum |r| <= err
    of theirs.  Rounding is monotone, so where lo == hi that float is the
    correctly rounded row sum.  Ties and exact zeros never pass.
    """
    rows, bounds = memoryview(terms), ends.tolist()
    if len(terms) < ROW_SUM_MIN_TERMS:
        redo = range(len(ends) - 1)
        sums = [0.0] * len(redo)
    else:
        # the rows that overflow or meet a NaN are left to fsum, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            starts, counts = ends[:-1], np.diff(ends)
            # maxima floored at 2^-900 keep err a normal float; a larger sigma is still exact
            top = np.maximum(np.maximum.reduceat(np.abs(terms), starts), 2.0**-900)
            shift = np.frexp(top)[1] + np.frexp(counts + 2.0)[1]
            big = np.repeat(np.ldexp(1.0, shift), counts)  # each term's sigma
            q = big + terms
            q -= big
            tau = np.add.reduceat(q, starts)
            r = np.add.reduceat(np.subtract(terms, q, out=big), starts)
            err = np.ldexp(2.0 * counts * counts, shift - 106)
            # a non-finite sigma or term makes lo and hi NaN, which fails the test
            lo, hi = tau + np.nextafter(r - err, -np.inf), tau + np.nextafter(r + err, np.inf)
        sums = lo.tolist()
        redo = np.flatnonzero(lo != hi).tolist()
    for i in redo:
        sums[i] = math.fsum(rows[bounds[i] : bounds[i + 1]])
    return sums


def l_value(D: int, table: SpfTable) -> float:
    """L(1, chi_D) for any positive nonsquare discriminant D.

    Cohen's series for the fundamental part D0 (a block of one), times the
    exact Euler multiplier of the conductor f.  The table must reach
    isqrt(D) and series_length(D0).
    """
    D0, f = fundamental_part(D, table)
    (series,) = cohen_series([D0], table)
    return euler_multiplier(D0, f, table) * series / math.sqrt(D)


# cohen_g's table, generated by tests/make_g_table.py.  Piece i holds the
# coefficients, lowest degree first, of the degree-9 polynomial in
# s = 16u - i that interpolates g(u) - 1/u + log(u^2) below G_SPLIT, and
# exp(pi u^2) g(u) from there to G_END, at the Chebyshev nodes of
# [i/16, (i+1)/16).
G_PIECES = (
    (-3.721945550750933, 3.295463742573347e-16, 0.020453077171797673, 1.3928855471722297e-13,
     -6.776919616490269e-05, 3.385429792622771e-12, 1.9067114767997248e-07,
     1.0859200328325177e-11, -4.5550574672239665e-10, 4.3805688153823855e-12),
    (-3.7015600525408936, 0.04063621807456129, 0.020049309727880552, -0.0002672880877465677,
     -6.49400652261261e-05, 1.1193079691202097e-06, 1.783623672698642e-07,
     -3.4561634965231155e-09, -4.1467673212915754e-10, 1.2173604360929894e-11),
    (-3.6412054590797545, 0.0796798523192319, 0.018871589836355913, -0.0005124311864871477,
     -5.681654878730385e-05, 2.095218700087755e-06, 1.4358328307333372e-07,
     -6.322555558478645e-09, -3.0267869444564683e-10, 1.73198270219424e-11),
    (-3.5432210324653726, 0.11566976330709204, 0.017016362295265586, -0.00071611031351134,
     -4.442700034185077e-05, 2.8091782039119224e-06, 9.230808330137961e-08,
     -8.1166941798823e-09, -1.4396217876740184e-10, 1.883307869611015e-11),
    (-3.411292550932404, 0.14739099089618202, 0.014630771952445061, -0.0008641709354422891,
     -2.9288276436408904e-05, 3.1868855330608283e-06, 3.304479609277204e-08,
     -8.595798109761694e-09, 2.8079460228843058e-11, 1.6643344372492224e-11),
    (-3.2501610359164017, 0.17395894178928012, 0.01189471488839931, -0.0009490921725400023,
     -1.315496692975546e-05, 3.2083081361283824e-06, -2.4939845941817572e-08,
     -7.78460012706768e-09, 1.79554280303827e-10, 1.155101887937956e-11),
    (-3.0652664506033966, 0.19486431413053673, 0.009000059519627611, -0.0009703891917056201,
     2.254039352267625e-06, 2.9066978241785433e-06, -7.343370693411913e-08,
     -5.948697444352993e-09, 2.840490450912813e-10, 4.944247870261517e-12),
    (-2.8623673845011726, 0.20997633531497145, 0.006130264861981095, -0.0009339666127494834,
     1.5498324794765013e-05, 2.3576975830756037e-06, -1.0670647638121149e-07,
     -3.514585590631462e-09, 3.2796670000123357e-10, -1.6153342454585197e-12),
    (1.6210913527502324, -0.29689677931011155, 0.04071120537295794, -0.005076595673551069,
     0.0006146657305259096, -7.415394385830181e-05, 8.982688423410256e-06,
     -1.0823235311875283e-06, 1.2077349895801332e-07, -9.199827639532865e-09),
    (1.3603777068647602, -0.22856905912615827, 0.02854293530169279, -0.0032117089987320313,
     0.00034805066407701785, -3.7377280905685544e-05, 4.020725725804963e-06,
     -4.310989935142233e-07, 4.336348559209849e-08, -3.0621550648273376e-09),
    (1.1574541773527973, -0.17989157325714164, 0.020674701230316495, -0.002125781901003642,
     0.00020903648560171358, -2.026187977241033e-05, 1.9615199720971032e-06,
     -1.8939813945777249e-07, 1.7326031477843148e-08, -1.1400631606824574e-09),
    (0.9963020863385988, -0.1441741082753802, 0.015374845169210052, -0.0014587787762099882,
     0.0001315901870756281, -1.16429545495629e-05, 1.0255850811539067e-06,
     -9.007939075258928e-08, 7.551890321642845e-09, -4.651394734814768e-10),
    (0.866164934281186, -0.11732702910639545, 0.011685307234725337, -0.0010311048074891334,
     8.607645830353898e-05, -7.016600082481069e-06, 5.675832146364796e-07,
     -4.57371979159191e-08, 3.5377411936407047e-09, -2.0479240543448027e-10),
    (0.7595716926392134, -0.09673739442890143, 0.009045930512647463, -0.0007470331981338648,
     5.812825056824502e-05, -4.399184025302644e-06, 3.293434812447173e-07,
     -2.4528661690949275e-08, 1.760914761152624e-09, -9.615652423508458e-11),
    (0.6711872310709462, -0.08067429833369279, 0.007114079475746506, -0.0005526931339487051,
     4.032513126477624e-05, -2.85169036522073e-06, 1.9889882131184876e-07,
     -1.3778940853235705e-08, 9.229667788163349e-10, -4.77011450720251e-11),
    (0.5971119785150969, -0.06795607281604527, 0.00567215220824594, -0.00041636611904007613,
     2.862649767907703e-05, -1.9019609804138356e-06, 1.2429452565940164e-07,
     -8.054040979520964e-09, 5.057595189705573e-10, -2.481509627416157e-11),
    (0.5344385330463853, -0.05775517735925109, 0.004577501778352141, -0.00031864950060731206,
     2.0731496398649994e-05, -1.3001237449687984e-06, 7.999867172547193e-08,
     -4.872389454595267e-09, 2.8805428049826454e-10, -1.3455318441724276e-11),
    (0.480961714738414, -0.04947924886885798, 0.003734046258502392, -0.0002472803116711822,
     1.52787928928998e-05, -9.080115137872545e-07, 5.282996617617173e-08,
     -3.037385614759883e-09, 1.6970307452593526e-10, -7.566210660803894e-12),
    (0.4349836525524837, -0.04269612516523738, 0.0030755311094077683, -0.0001942860964953968,
     1.1435802367975783e-05, -6.462642540511743e-07, 3.568578841586657e-08,
     -1.9440993183264827e-09, 1.0300431889708287e-10, -4.3938577074663425e-12),
    (0.3951795957785722, -0.03708520805718115, 0.0025553221782726662, -0.0001543544580558705,
     8.67838121653956e-06, -4.6775958573864257e-07, 2.4592867533137252e-08,
     -1.2737662904454294e-09, 6.419724913200181e-11, -2.6257916757540672e-12),
    (0.36050358944391137, -0.032405113217078854, 0.002139995342462901, -0.0001238678790038081,
     6.668057488825575e-06, -3.436864690558055e-07, 1.7253862436724787e-08,
     -8.521475847054898e-10, 4.096777638903237e-11, -1.6099635481948637e-12),
    (0.33012094450238405, -0.02847167450016034, 0.0018052051876705452, -0.00010031510267760064,
     5.181272831946458e-06, -2.559665776430811e-07, 1.230091647076204e-08,
     -5.80848715882115e-10, 2.6704580823193702e-11, -1.0101748627569077e-12),
    (0.3033590971392331, -0.025142694230309567, 0.001532960878139189, -8.19225778881723e-05,
     4.067366040754484e-06, -1.9299043967177565e-07, 8.89797980563577e-09,
     -4.026621788913273e-10, 1.7743886849807976e-11, -6.472026033525065e-13),
    (0.2796713240971899, -0.022307184990361176, 0.001309792923643467, -6.741821240203567e-05,
     3.2229508974773615e-06, -1.4714617863117785e-07, 6.521885807137102e-09,
     -2.834438752203751e-10, 1.1996579275154306e-11, -4.225854170399717e-13),
    (0.25860959587280496, -0.019877660468206503, 0.0011254967266928568, -5.587671710203335e-05,
     2.5759142764606486e-06, -1.133485102988416e-07, 4.838232622907779e-09,
     -2.0232680763679557e-10, 8.240259591361672e-12, -2.8073370950264035e-13),
    (0.23980402262382078, -0.017784532575068974, 0.0009722571211898154, -4.6616424009106826e-05,
     2.0752052253999684e-06, -8.814182331521654e-08, 3.6291195948865707e-09,
     -1.4628128266790659e-10, 5.742679664059965e-12, -1.8947266110921338e-13),
    (0.22294712129772612, -0.015971986697946864, 0.0008440291811427728, -3.912925311735134e-05,
     1.6841911741632282e-06, -6.91412490193603e-08, 2.750048201451498e-09,
     -1.0701052347028586e-10, 4.055707704092912e-12, -1.2975185356347665e-13),
    (0.20778165222469347, -0.014394909254068373, 0.0007360942687363005, -3.303242909341635e-05,
     1.3762578360387755e-06, -5.467737858107305e-08, 2.1036468974889366e-09,
     -7.913604502572247e-11, 2.8996576058360585e-12, -9.005425403391566e-14),
    (0.1940911284180459, -0.013016574269108926, 0.0006447377254814617, -2.8034713541558535e-05,
     1.131847515170967e-06, -4.3566299039538215e-08, 1.6233280564187774e-09,
     -5.911340590100971e-11, 2.0967989860335965e-12, -6.328243885178186e-14),
    (0.18169234700834117, -0.011806884057825843, 0.0005670121719289506, -2.391247677373493e-05,
     9.364357745856351e-07, -3.495825064720928e-08, 1.262933896362219e-09,
     -4.457118040740253e-11, 1.5322992779995708e-12, -4.498454182933485e-14),
    (0.1704294653430445, -0.010741018914985391, 0.0005005618230473858, -2.0492535464781974e-05,
     7.791301318006047e-07, -2.8236491375030577e-08, 9.900646846726971e-10,
     -3.390040705189685e-11, 1.1308166860789133e-12, -3.232204523918001e-14),
    (0.16016926756654493, -0.009798391825373743, 0.0004434908020910923, -1.763970446091269e-05,
     6.516872158258401e-07, -2.2948751678085022e-08, 7.817119394436581e-10,
     -2.599519620953494e-11, 8.422107905290946e-13, -2.345741027395176e-14),
    (0.150797356333801, -0.008961832814637551, 0.0003942635270039375, -1.524767351388318e-05,
     5.478153039783112e-07, -1.87601660534998e-08, 6.213586173106141e-10,
     -2.0086220681135966e-11, 6.326684405986364e-13, -1.7184166604790828e-14),
    (0.14221506902967931, -0.00821694772833083, 0.00035162871229033624, -1.323225581777436e-05,
     4.6267395696922693e-07, -1.542055722775805e-08, 4.970274102371361e-10,
     -1.5632242808266514e-11, 4.791042054319908e-13, -1.2699679874618772e-14),
    (0.13433696549308236, -0.007551610601704444, 0.00031456092309833597, -1.1526346379301204e-05,
     3.9251139071637115e-07, -1.2741437643910425e-08, 3.9995062101018943e-10,
     -1.2248473341254852e-11, 3.6557424851492414e-13, -9.463362722049048e-15),
    (0.12708876962610827, -0.006955559139467193, 0.0002822152898650652, -1.0076125199709703e-05,
     3.343991631267113e-07, -1.0579670230868179e-08, 3.2365300675608827e-10,
     -9.658646149811042e-12, 2.8094762319038506e-13, -7.106897417002082e-15),
    (0.12040567378506753, -0.0064200703605437025, 0.0002538921721166056, -8.838175105848055e-06,
     2.860363253716422e-07, -8.825744801476374e-09, 2.6331242586739254e-10,
     -7.662571660727578e-12, 2.173743648821678e-13, -5.376607102744456e-15),
    (0.11423093488797702, -0.005937698997123398, 0.00022900940196858446, -7.77727747249609e-06,
     2.4560363653227263e-07, -7.395287732775834e-09, 2.153095514531294e-10,
     -6.113921734120236e-12, 1.6926542367820408e-13, -4.095985080885698e-15),
    (0.1085147064330593, -0.005502065337119135, 0.00020708034433585416, -6.864714465094472e-06,
     2.1165418639055107e-07, -6.222859260557969e-09, 1.769076721014763e-10,
     -4.904858410446257e-12, 1.3260562198994685e-13, -3.1410349943895293e-15),
    (0.10321306232927033, -0.005107682261248852, 0.00018769645167924376, -6.076952666649062e-06,
     1.8303072176675488e-07, -5.2573845467797095e-09, 1.4602292301921705e-10,
     -3.955292008382609e-12, 1.0448591398819024e-13, -2.423856363945741e-15),
    (0.09828717748254098, -0.004749813530661412, 0.00017051331428548936, -5.39461595418494e-06,
     1.588027162797447e-07, -4.4587619096873675e-09, 1.2105799089558114e-10,
     -3.2053037468562753e-12, 8.278170333961707e-14, -1.8816006934277347e-15),
    (0.09370263711209884, -0.004424357128341279, 0.00015523944591015108, -4.801679256241776e-06,
     1.3821814861142394e-07, -3.795326325288413e-09, 1.0078077992414637e-10,
     -2.6097531479479467e-12, 6.592948299358478e-14, -1.468965281843636e-15),
    (0.08942885227146924, -0.00412774879139626, 0.00014162722246986704, -4.284832082142469e-06,
     1.2066631730554402e-07, -3.2419392524032337e-09, 8.42352017427209e-11,
     -2.1344080241299074e-12, 5.2770334121590926e-14, -1.1530423364670029e-15),
    (0.08543856337699117, -0.0038568818962478536, 0.0001294655248762664, -3.8329733473992875e-06,
     1.05648993434676e-07, -2.778540564106359e-09, 7.067510565098916e-11,
     -1.7531450257733933e-12, 4.243932597380489e-14, -9.097520604679456e-16),
    (0.08170741697168854, -0.0036090406511566546, 0.00011857373785512485, -3.436808337075352e-06,
     9.275791325146095e-08, -2.389043854384324e-09, 5.951500750969389e-11,
     -1.4459092850302576e-12, 3.428671493998395e-14, -7.213512149295851e-16),
    (0.078213603677022, -0.0033818441667874156, 0.00010879683317994079, -3.0885255698208538e-06,
     8.165712145035309e-08, -2.060488623432019e-09, 5.029310378463162e-11,
     -1.1972166277016956e-12, 2.782136371588946e-14, -5.746785535581003e-16),
    (0.07493754746360066, -0.0031731994574988073, 0.0001000013243262634, -2.7815365010329565e-06,
     7.20690473965253e-08, -1.7823858729869207e-09, 4.2643333090895755e-11,
     -9.950465471940744e-13, 2.2669814516684438e-14, -4.59909507788273e-16),
    (0.07186163812225911, -0.002981261805017266, 9.207192462103077e-05, -2.5102648992639255e-06,
     6.376347033920169e-08, -1.5462102201207412e-09, 3.62741454826072e-11,
     -8.300186529682356e-13, 1.854647671936272e-14, -3.696657155235359e-16),
    (0.06897000022968604, -0.002804401215662953, 8.490877583085694e-05, -2.2699756802984463e-06,
     5.654873244500842e-08, -1.3450036581989606e-09, 3.095227659298472e-11,
     -6.947761868538495e-13, 1.5231764547394883e-14, -2.983737467011969e-16),
    (0.06624829304817487, -0.00264117394016125, 7.84251412576466e-05, -2.0566352308178332e-06,
     5.026470976598991e-08, -1.1730648704703877e-09, 2.6490278838035823e-11,
     -5.835217948176932e-13, 1.255596174586176e-14, -2.4180014524498985e-16),
    (0.0636835367316044, -0.002490298214868407, 7.254547861817134e-05, -1.866796975320532e-06,
     4.477716478482875e-08, -1.0257044527340475e-09, 2.2736889454251563e-11,
     -4.916659583332845e-13, 1.0387239825910976e-14, -1.9671211540081025e-16),
    (0.0612639609720946, -0.0023506335353601477, 6.720382464850916e-05, -1.697507266065235e-06,
     3.9973189876226594e-08, -8.990511731343695e-10, 1.956955250810758e-11,
     -4.15559290826319e-13, 8.622708293750018e-15, -1.6062835667566662e-16),
    (0.05897887284741805, -0.00222116289578175, 6.23424365300352e-05, -1.5462277024368695e-06,
     3.575751607398491e-08, -7.898979479683034e-10, 1.6888585151286503e-11,
     -3.522876257694852e-13, 7.181691899345102e-15, -1.3163500382475832e-16),
    (0.056818541144625374, -0.0021009775263326675, 5.791064566677447e-05, -1.4107707848663273e-06,
     3.2049511177392785e-08, -6.955788701308075e-10, 1.461260547223546e-11,
     -2.9951437937514264e-13, 6.000653398824395e-15, -1.0824888114107012e-16),
    (0.054774094861425905, -0.0019892637415772955, 5.386388765393999e-05, -1.2892464328076014e-06,
     2.878072931228874e-08, -6.138706271900784e-10, 1.267493312496468e-11,
     -2.553586951499054e-13, 5.029339116302084e-15, -8.931534926435239e-17),
    (0.05283743394035294, -0.0018852915777022065, 5.016287892418944e-05, -1.18001738658118e-06,
     2.589290341917884e-08, -5.429131597228659e-10, 1.1020743596861747e-11,
     -2.183008102650449e-13, 4.227838172081848e-15, -7.393158985387853e-17),
    (0.051001150584985194, -0.00178840495033618, 4.6772915895918615e-05, -1.081661899609026e-06,
     2.3336294879684134e-08, -4.811455617685509e-10, 9.604809010249417e-12,
     -1.8710823353919098e-13, 3.564328000053485e-15, -6.138870034820309e-17),
    (0.04925845975321585, -0.0016980131084444012, 4.36632767512054e-05, -9.929424338698951e-07,
     2.106833218599353e-08, -4.272541051774679e-10, 8.389697413567374e-12,
     -1.6077790977044732e-13, 3.013337981873284e-15, -5.112777240654095e-17),
    (0.047603137628398746, -0.0016135831959489964, 4.0806709453317866e-05, -9.127793150038001e-07,
     1.9052484386179393e-08, -3.8012994537368755e-10, 7.344331991175846e-12,
     -1.3849072002738278e-13, 2.5544061495072096e-15, -4.27064196451153e-17),
    (0.04602946704215086, -0.0015346337625829463, 3.81789924418305e-05, -8.402284979885678e-07,
     1.7257325891522603e-08, -3.388345873784064e-10, 6.442833968823598e-12,
     -1.195755429976407e-13, 2.1710354948388573e-15, -3.577315242143681e-17),
    (0.04453218896832845, -0.0014607290902256007, 3.575855674826443e-05, -7.744627501876621e-07,
     1.565575778532575e-08, -3.025715949113833e-10, 5.663590017645715e-12,
     -1.0348075819982075e-13, 1.849879686689167e-15, -3.0047673728901844e-17),
    (0.04310645933084904, -0.0013914742215347645, 3.3526160159933544e-05, -7.14755683952246e-07,
     1.4224357540149518e-08, -2.7066333975649345e-10, 4.988497989991955e-12,
     -8.975156536587211e-14, 1.580105215285587e-15, -2.5305663634742608e-17),
    (0.041747810472384767, -0.0013265105948381522, 3.146460560593906e-05, -6.604681721738572e-07,
     1.2942834425347511e-08, -2.4253183422477444e-10, 4.402354837050568e-12,
     -7.801186747637458e-14, 1.3528897952748267e-15, -2.1366981504391674e-17),
    (0.04045211671960864, -0.0012655122035855886, 2.955849721181237e-05, -6.110367621662276e-07,
     1.1793572171518652e-08, -2.1768288226043437e-10, 3.892358291010683e-12,
     -6.794974840415009e-14, 1.1610264356872707e-15, -1.8086481933804798e-17),
    (0.03921556355618754, -0.001208182210686561, 2.779402851980747e-05, -5.659637698798269e-07,
     1.0761243886386471e-08, -1.9569293650086615e-10, 3.4476998887529814e-12,
     -5.930579240306982e-14, 9.98609778595656e-16, -1.5346837835501595e-17),
    (0.038034619979191234, -0.0011542499581668128, 2.615879824160658e-05, -5.248087907711614e-07,
     9.832486968499569e-09, -1.7619816856574142e-10, 3.059231579167979e-12,
     -5.186365839774731e-14, 8.607867354242121e-16, -1.3052911120453973e-17),
    (0.036906013669772274, -0.0011034683210997694, 2.464164963238742e-05, -4.871814080716063e-07,
     8.995627981750012e-09, -1.5888535501829095e-10, 2.7191918009016734e-12,
     -4.5442449529702094e-14, 7.435575624938311e-16, -1.1127321313313808e-17),
    (0.035826708656313926, -0.0010556113619711554, 2.323253017651752e-05, -4.5273491563992386e-07,
     8.240449244951048e-09, -1.4348425720272623e-10, 2.42097977545801e-12,
     -3.9890516901999585e-14, 6.436166470504058e-16, -9.506944961399914e-18),
    (0.03479388518895036, -0.001010472247737638, 2.192236877717022e-05, -4.211609025607363e-07,
     7.557990342789258e-09, -1.2976123367716097e-10, 2.1589690100154046e-12,
     -3.508041283343074e-14, 5.582246664252333e-16, -8.140140932429194e-18),
    (0.03380492157944088, -0.0009678613970231333, 2.0702968062391702e-05, -3.92184571383753e-07,
     6.94037894519118e-09, -1.1751387245789167e-10, 1.928352780893716e-12,
     -3.090476837369648e-14, 4.851056175286741e-16, -6.98454382545996e-18),
    (0.03285737779067176, -0.0009276048293084813, 1.95669097728101e-05, -3.6556068235959787e-07,
     6.380686285077612e-09, -1.0656646927936315e-10, 1.725015776515424e-12,
     -2.7272916263376655e-14, 4.2236362666871017e-16, -6.00530355412784e-18),
    (0.0319489805862717, -0.0008895426917346369, 1.8507471492864378e-05, -3.4107003300067555e-07,
     5.872803432057382e-09, -9.67662095156401e-11, 1.5454271981357068e-12,
     -2.410811692123176e-14, 3.684155417439724e-16, -5.173676514535057e-18),
)

_PIECE_ROWS = np.array(G_PIECES).T.copy()  # row j: every piece's s^j coefficient
