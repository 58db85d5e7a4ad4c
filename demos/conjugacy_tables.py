"""Conjugacy data of SL2(F_p) and the densities the census should hit.

Prints the class table for a small prime, checks it against the class
equation (the classes fill the group, and each class size times its
centralizer order is the group order), then prints the per-trace masses
that combine into the predicted residue densities.
"""

from fractions import Fraction

from tracecensus import class_list, group_order, predicted_density, trace_mass

P = 7


def main():
    classes = class_list(P)
    print("SL2(F_%d): order %d, %d conjugacy classes" % (P, group_order(P), len(classes)))
    print()
    print("%-16s %6s %8s %12s" % ("label", "trace", "size", "centralizer"))
    for c in classes:
        print("%-16s %6d %8d %12d" % (":".join(map(str, c.label)), c.trace, c.size, c.centralizer))

    order = group_order(P)
    print()
    print("class sizes sum to the group order: %s" % (sum(c.size for c in classes) == order))
    print("size * centralizer = group order for every class: %s"
          % all(c.size * c.centralizer == order for c in classes))

    print()
    print("a    trace mass      predicted density (folded with -a)")
    total = Fraction(0)
    for a in range(P):
        pred = predicted_density(P, a)
        total += pred
        print("%-4d %-15s %s" % (a, trace_mass(P, a), pred))
    print("sum of predicted densities:", total)


if __name__ == "__main__":
    main()
