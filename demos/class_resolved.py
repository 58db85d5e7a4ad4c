"""Splitting the census by full conjugacy class instead of trace residue.

Matrices with the same trace mod p can land in different classes when the
trace is +-2 (central vs unipotent splits). This run splits each such line
by Gauss's genus character (a/p), which fixes how the classes of each
discriminant fall between the central and unipotent classes, and compares
each class's share against |class| / |G|.
"""

from tracecensus import RunConfig, class_report, run_census


def main():
    res = run_census(RunConfig(p=3, norm_bounds=(10**4,), resolve_classes=True))
    rep = class_report(res)
    print("class-resolved census at x = %d, p = %d" % (rep.x, rep.p))
    print()
    print("%-16s %6s %12s %12s %8s" % ("label", "trace", "empirical", "predicted", "ratio"))
    for row in rep.rows:
        print(
            "%-16s %6d %12.6f %9s %10.4f"
            % (":".join(map(str, row.label)), row.trace, row.empirical, row.predicted, row.ratio)
        )
    print()
    print(
        "best global constant c = %d, worst |ratio - 1| = %.4f"
        % (rep.constant, rep.worst_rel_dev)
    )


if __name__ == "__main__":
    main()
