"""Reduced forms, class numbers, fundamental units, and the weight identity.

Walks a few discriminants end to end: enumerate the reduced forms, split
them into cycles, solve the Pell equation, and check that the exact line
weight h(D) * 2 log eps(D) matches sqrt(D) * L(1, chi_D) computed from the
character side.
"""

import math

from tracecensus import build_spf_table, valid_discriminant
from tracecensus.census import line_weight
from tracecensus.lfunctions import l_value
from tracecensus.quadforms import class_number, fundamental_unit, reduced_forms

SHOWCASE = [5, 8, 12, 13, 40, 45, 60, 316, 1596]


def main():
    table = build_spf_table(2000)
    print("D      h    fundamental (tau, s)          2*h*log(eps)    sqrt(D)*L(1,chi)")
    for d in SHOWCASE:
        assert valid_discriminant(d)
        h = class_number(d)
        tau, s = fundamental_unit(d)
        exact = 2.0 * line_weight(d)
        analytic = 2.0 * math.sqrt(d) * l_value(d, table)
        print(
            "%-6d %-4d (%d, %d)%s %16.10f %16.10f"
            % (d, h, tau, s, " " * max(1, 24 - len("(%d, %d)" % (tau, s))), exact, analytic)
        )
        assert abs(exact - analytic) < 1e-9 * exact

    d = 316
    print()
    print("the %d reduced forms of discriminant %d:" % (len(reduced_forms(d)), d))
    for form in reduced_forms(d):
        print("   (%d, %d, %d)" % form)


if __name__ == "__main__":
    main()
