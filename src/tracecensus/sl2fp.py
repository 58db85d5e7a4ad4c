"""Conjugacy classes of SL2(F_p) in closed form, plus matrix classification.

For p >= 3 the p + 4 classes are: two central (+-I), four unipotent-type
(sign of trace x square class of the off-diagonal alpha), (p-3)/2 split
semisimple and (p-1)/2 nonsplit semisimple.  p = 2 is its own tiny case
(SL2(F_2) is the symmetric group on 3 letters).  Every semisimple class is
represented by the companion matrix of x^2 - a x + 1, split exactly when
a^2 - 4 is a nonzero square mod p, so building the table takes no square
root.

Masses are exact Fractions throughout; floats appear only when a report
asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numtheory import is_probable_prime, kronecker, nonresidue

Mat = tuple[int, int, int, int]

# labels: ("central", sign) ("unipotent", sign, chi) ("split", a) ("nonsplit", a)
Label = tuple


@dataclass(frozen=True)
class ConjClass:
    label: Label
    trace: int
    size: int
    centralizer: int
    rep: Mat


def group_order(p: int) -> int:
    return p * (p * p - 1)


def _require_prime(p: int) -> None:
    if p < 2 or not is_probable_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))


def class_list(p: int) -> list[ConjClass]:
    """All conjugacy classes, deterministic order, sizes summing to |G|."""
    _require_prime(p)
    if p == 2:
        # x^2 + x + 1 is irreducible over F_2, so the order-3 class is nonsplit
        return [
            ConjClass(("central", 1), 0, 1, 6, (1, 0, 0, 1)),
            ConjClass(("unipotent", 1, 1), 0, 3, 2, (1, 1, 0, 1)),
            ConjClass(("nonsplit", 1), 1, 2, 3, (0, 1, 1, 1)),
        ]
    g = group_order(p)
    nu = nonresidue(p)
    out = []
    for sign in (1, -1):
        sp = sign % p
        out.append(ConjClass(("central", sign), (2 * sign) % p, 1, g,
                             (sp, 0, 0, sp)))
        for chi, alpha in ((1, 1), (-1, nu)):
            rep = (sp, (sign * alpha) % p, 0, sp)
            out.append(ConjClass(("unipotent", sign, chi), (2 * sign) % p,
                                 (p * p - 1) // 2, 2 * p, rep))
    for a in range(p):
        k = kronecker(a * a - 4, p)
        if k:
            # companion matrix of x^2 - a x + 1; |class| = p(p + k), centralizer p - k
            kind = "split" if k == 1 else "nonsplit"
            out.append(ConjClass((kind, a), a, p * (p + k), p - k, (0, p - 1, 1, a)))
    return out


def classify(mat: Mat, p: int) -> Label:
    """Conjugacy class label of a matrix in SL2(F_p)."""
    a, b, c, d = (x % p for x in mat)
    if (a * d - b * c) % p != 1:
        raise ValueError("determinant is not 1 mod %d" % p)
    t = (a + d) % p
    if p == 2:
        if (a, b, c, d) == (1, 0, 0, 1):
            return ("central", 1)
        return ("unipotent", 1, 1) if t == 0 else ("nonsplit", 1)
    disc = (t * t - 4) % p
    k = kronecker(disc, p)
    if k == 1:
        return ("split", t)
    if k == -1:
        return ("nonsplit", t)
    sign = 1 if t == 2 % p else -1
    # strip the central part: N = sign*M - I is nilpotent
    n11 = (sign * a - 1) % p
    n12 = (sign * b) % p
    n21 = (sign * c) % p
    if n11 == 0 and n12 == 0 and n21 == 0 and (sign * d - 1) % p == 0:
        return ("central", sign)
    alpha = (-n21) % p if n21 != 0 else n12
    return ("unipotent", sign, kronecker(alpha, p))


def trace_masses(p: int) -> list[Fraction]:
    """Sum of 2 / |centralizer| over the classes of each trace a = 0 .. p - 1."""
    masses = [Fraction(0)] * p
    for cls in class_list(p):
        masses[cls.trace] += Fraction(2, cls.centralizer)
    return masses


def trace_mass(p: int, a: int) -> Fraction:
    """Sum of 2 / |centralizer| over classes with trace a mod p."""
    return trace_masses(p)[a % p]


def class_mass(p: int) -> dict[Label, Fraction]:
    """label -> |class| / |G| as exact Fractions (sums to 1)."""
    g = group_order(p)
    return {cls.label: Fraction(cls.size, g) for cls in class_list(p)}


def predicted_density(p: int, a: int) -> Fraction:
    """Limiting share of the weighted census falling on trace residue a.

    Computed from the class data alone: one quarter of the mass at a plus
    the mass at -a.  Collapses to 1/(p-1), 1/(p+1) or p/(p^2-1) by case,
    and to 1/3, 2/3 for p = 2, but that simplification lives in the tests.
    """
    return predicted_densities(p)[a % p]


def predicted_densities(p: int) -> list[Fraction]:
    """predicted_density(p, a) for a = 0 .. p - 1, from one class list."""
    masses = trace_masses(p)
    return [(masses[a] + masses[-a % p]) / 4 for a in range(p)]
