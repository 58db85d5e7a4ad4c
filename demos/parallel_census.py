"""Determinism across worker counts, and the cost of a large run.

The census sums floats, so a naive parallel reduction would make the output
depend on the thread count. Here every trace line's weight is computed from
its trace alone, and each residue mass is a single math.fsum over its lines.
fsum is correctly rounded, so the sum does not depend on how the lines were
split across workers, and every worker count produces byte-identical
accumulators. This demo proves that on a real run and times a larger
census. X = 10^6 is 31 blocks of trace lines, enough for a pool: smaller
runs weigh every block in the main process.
"""

import time

from tracecensus import RunConfig, run_census

X = 10**6


def main():
    runs = {}
    for workers in (1, 4, 8):
        t0 = time.perf_counter()
        res = run_census(RunConfig(p=5, norm_bounds=(X,), workers=workers))
        dt = time.perf_counter() - t0
        runs[workers] = res
        print("workers=%d  psi(%d) = %.10f  (%.2f s)" % (workers, X, res.psi_total()[0], dt))

    base = runs[1].psi.tobytes()
    same = all(runs[w].psi.tobytes() == base for w in (4, 8))
    print()
    print("accumulators byte-identical across worker counts:", same)

    big = 10**7
    t0 = time.perf_counter()
    res = run_census(RunConfig(p=5, norm_bounds=(big,), workers=8))
    dt = time.perf_counter() - t0
    print()
    print("psi(%d)/%d = %.6f  with 8 workers in %.2f s" % (big, big, res.psi_total()[0] / big, dt))


if __name__ == "__main__":
    main()
