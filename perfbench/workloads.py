"""The four batch workloads, their inputs, their output checks, and the
public names the traced pass rebinds.

Every workload is a closed loop with one client: the benchmark calls one
public entry point (tracecensus.cli.main, run_census or line_weight),
waits for it to return, and only then starts the next call.  A workload
object is built from the run's seed; the package only ever sees the
inputs derived here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import time
from dataclasses import dataclass

from tracecensus import census, cli, lfunctions, numtheory, quadforms, sl2fp

# |psi(x)/x - 1| at the final checkpoint.  psi is a step function of x, so
# psi(x)/x sags by up to about 2/T(x) just before each new trace line
# (1.4% at x = 6e4, T = 244); 3% covers that plus the error term
PSI_BAND = 0.03
# psi totals of one run must not depend on the prime they were sliced by
PRIME_AGREE = 1e-12
# exact route (cycles x chakravala) against analytic route (digamma L-value)
DUAL_AGREE = 1e-9


@dataclass
class Output:
    data: bytes                        # what the digest is taken over
    latencies: list[float] | None      # per-request seconds, if finer than the job
    payload: object = None             # parsed form for the checks


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _decompositions(x: int) -> tuple[int, int]:
    """(trace lines, (m, D) decompositions) for one pass up to x."""
    t_max = census.trace_bound(x)
    table = numtheory.build_spf_table(census.required_table_limit(x))
    lines = t_max - 2
    return lines, sum(len(census.trace_decompositions(t, table)) for t in range(3, t_max + 1))


def _run_cli(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("tracecensus %s exited with %d" % (" ".join(argv), code))
    return buf.getvalue().encode()


class Workload:
    name = ""
    workers = 1
    primes: tuple[int, ...] = ()
    is_cli = False

    def __init__(self, seed: int) -> None:
        self.rng = random.Random("%s/%d" % (self.name, seed))

    def prepare(self) -> None:
        """Work the caller does once before its first job."""

    def table_limit(self) -> int:
        raise NotImplementedError

    def job(self, workers: int) -> Output:
        raise NotImplementedError

    def checks(self, out: Output) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def weighed_per_job(self) -> int:
        """Line weights one job computes, for lines_per_s."""
        raise NotImplementedError

    def expected_walks(self) -> int:
        """trace_decompositions calls one job makes."""
        return 0

    def inputs(self) -> dict:
        raise NotImplementedError


class _Census(Workload):
    # seeded x is drawn uniformly from [lo, hi]; the band is narrow so the
    # work per job moves by about 1% between seeds
    band = (0, 0)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.x = self.rng.randint(*self.band)
        self._counts = None

    def _count(self) -> tuple[int, int]:
        if self._counts is None:
            self._counts = _decompositions(self.x)
        return self._counts

    def table_limit(self) -> int:
        return census.required_table_limit(self.x)

    def weighed_per_job(self) -> int:
        return len(self.primes) * self._count()[1]

    def expected_walks(self) -> int:
        return len(self.primes) * self._count()[0]

    def inputs(self) -> dict:
        return {"x": self.x, "band": list(self.band), "trace_bound": census.trace_bound(self.x)}

    def _psi_checks(self, totals_by_p: dict[int, list[float]], xs: list[int]) -> list[tuple[str, bool]]:
        out = []
        first = totals_by_p[self.primes[0]]
        if len(self.primes) > 1:
            worst = max(
                _rel(first[i], totals_by_p[p][i]) for p in self.primes[1:] for i in range(len(xs))
            )
            out.append(("psi totals agree across primes", worst <= PRIME_AGREE))
        out.append(("psi(x)/x inside band", abs(first[-1] / xs[-1] - 1.0) <= PSI_BAND))
        return out


class ExactMultiP(_Census):
    """tracecensus census as users run it: exact backend, three primes, CSV.

    Seed picks x in 1e5 +- 0.5%.  Chosen because every line is walked
    once per prime and most of the time is the O(D) form-enumeration scan,
    so it shows the cost of enumerating forms and of re-walking per prime;
    it does almost no L-value work.  The job is short (about 1.5 s on two
    shared cores) so that a run holds enough jobs for a steady median.
    """

    name = "exact-multi-p"
    primes = (3, 5, 7)
    band = (99_500, 100_500)
    is_cli = True

    def _argv(self, workers: int) -> list[str]:
        argv = ["census", "--x", str(self.x)]
        for p in self.primes:
            argv += ["--p", str(p)]
        return argv + ["--checkpoints", "12", "--format", "csv", "--threads", str(workers)]

    def job(self, workers: int) -> Output:
        return Output(_run_cli(self._argv(workers)), None)

    def checks(self, out: Output) -> list[tuple[str, bool]]:
        lines = out.data.decode().splitlines()
        if not lines or lines[0] != cli.CSV_HEADER:
            return [("csv header", False)]
        totals: dict[tuple[int, int], float] = {}
        for row in lines[1:]:
            x, p, _a, psi_a = row.split(",")[:4]
            key = (int(p), int(x))
            totals[key] = totals.get(key, 0.0) + float(psi_a)
        xs = sorted({x for _p, x in totals})
        if sorted({p for p, _x in totals}) != list(self.primes) or xs[-1] != self.x:
            return [("csv covers every prime up to x", False)]
        by_p = {p: [totals[(p, x)] for x in xs] for p in self.primes}
        return [("csv covers every prime up to x", True)] + self._psi_checks(by_p, xs)


class AnalyticLines(_Census):
    """run_census with the analytic backend above D = 1e4, one prime.

    Seed picks x in 6e4 +- 0.5%.  Chosen because almost every line weight
    above the switch is an O(D) L-value with a sieve up to T^2, while form
    enumeration only covers D <= 1e4: it moves with the L-value route and
    should not move with the form enumeration.
    """

    name = "analytic-lines"
    primes = (5,)
    band = (59_700, 60_300)

    def table_limit(self) -> int:
        return census.required_table_limit(self.x, "analytic")

    def job(self, workers: int) -> Output:
        cfg = census.RunConfig(
            p=5, norm_bounds=(self.x,), workers=workers, backend="analytic", delta_switch=10**4
        )
        res = census.run_census(cfg)
        return Output(res.psi.tobytes(), None, res)

    def checks(self, out: Output) -> list[tuple[str, bool]]:
        res = out.payload
        ok = res.psi.shape == (1, 5) and bool((res.psi > 0).all())
        totals = [float(v) for v in res.psi_total()]
        return [("psi positive per residue", ok)] + self._psi_checks({5: totals}, [self.x])


class ByClassParallel(_Census):
    """tracecensus by-class --p 3 --threads 2 with the default chunking.

    Seed picks x in 2.8e5 +- 0.5%, so T stays between 527 and 531: two
    chunks, 512 lines and about 16, and the first carries about 97% of the
    T^3 work, so a second worker cannot help (as at T = 1000, where the
    second chunk carries most of it).  Chosen because it is the only
    workload with a process pool and class resolution through
    sl2fp.classify.
    """

    name = "by-class-parallel"
    primes = (3,)
    band = (278_600, 281_400)
    workers = 2
    is_cli = True

    def job(self, workers: int) -> Output:
        argv = ["by-class", "--x", str(self.x), "--p", "3", "--threads", str(workers)]
        return Output(_run_cli(argv), None)

    def checks(self, out: Output) -> list[tuple[str, bool]]:
        lines = out.data.decode().splitlines()
        if len(lines) < 4 or not lines[-1].startswith("global constant"):
            return [("class report parses", False)]
        classes = [row.split() for row in lines[2:-1]]
        expected = len(sl2fp.class_list(3))
        ok = len(classes) == expected and ("x=%d" % self.x) in lines[0]
        # empirical column is class psi / x printed to 8 decimals
        ratio = sum(float(row[2]) for row in classes)
        return [
            ("class report parses", ok),
            ("psi(x)/x inside band", abs(ratio - 1.0) <= PSI_BAND),
        ]


class DualRoute(Workload):
    """500 consecutive valid D from a seeded start in [1000, 1064).

    For each D: line_weight by the exact and the analytic route, the
    fundamental unit, and its recovery from the unit's square and cube by
    pell_from_known.  Chosen because it is the only workload where unit
    recovery does real work.  Consecutive discriminants with a narrowly
    seeded start keep the heavy tail of unit sizes (a few D cost 50x the
    median) nearly the same from seed to seed, so p98 is comparable.
    """

    name = "dual-route"
    count = 500
    start_band = (1000, 1064)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        d = self.rng.randrange(*self.start_band)
        sample = []
        while len(sample) < self.count:
            if quadforms.valid_discriminant(d):
                sample.append(d)
            d += 1
        self.sample = sample
        self.table = None

    def table_limit(self) -> int:
        return self.sample[-1]

    def prepare(self) -> None:
        self.table = numtheory.build_spf_table(self.table_limit())

    def job(self, workers: int) -> Output:
        clock = time.perf_counter
        lat, rows = [], []
        for D in self.sample:
            t0 = clock()
            exact = census.line_weight(D, backend="exact")
            analytic = census.line_weight(D, self.table, backend="analytic")
            tau, s = quadforms.fundamental_unit(D)
            square = quadforms.pell_from_known(tau * tau - 2, tau * s, D)
            cube = quadforms.pell_from_known(tau**3 - 3 * tau, s * (tau * tau - 1), D)
            lat.append(clock() - t0)
            rows.append((D, exact, analytic, (tau, s), square, cube))
        data = "\n".join(
            "%d %s %s %x %x" % (D, e.hex(), a.hex(), u[0], u[1]) for D, e, a, u, _, _ in rows
        )
        return Output(data.encode(), lat, rows)

    def checks(self, out: Output) -> list[tuple[str, bool]]:
        out_checks = []
        for D, exact, analytic, unit, square, cube in out.payload:
            out_checks.append(("routes agree at D=%d" % D, _rel(exact, analytic) <= DUAL_AGREE))
            out_checks.append(("unit from square at D=%d" % D, square == unit))
            out_checks.append(("unit from cube at D=%d" % D, cube == unit))
        return out_checks

    def weighed_per_job(self) -> int:
        return len(self.sample)

    def inputs(self) -> dict:
        return {"d_first": self.sample[0], "d_last": self.sample[-1], "count": len(self.sample)}


WORKLOADS = {w.name: w for w in (ExactMultiP, AnalyticLines, ByClassParallel, DualRoute)}


# ---- traced pass: the public names the package looks up at call time ----

def bindings():
    """(module, attribute, span name, kept value) for every traced layer.

    A function reached through two modules is bound in both, with one span
    name.  Per-step helpers (rho, kronecker, chi_values, _enum_reduced) are
    left alone; their work is counted from the kept values instead.
    """
    first_arg = lambda a, out: a[0]
    trace_bits = lambda a, out: a[0].bit_length()
    unit_bits = lambda a, out: out[0].bit_length()
    return [
        (cli, "main", "cli.main", None),
        (cli, "run_census", "census.run", None),
        (census, "run_census", "census.run", None),
        (census, "build_spf_table", "numtheory.sieve", first_arg),
        (census, "trace_decompositions", "census.decomp", first_arg),
        (census, "factorize", "numtheory.factorize", None),
        (census, "class_number_and_reps", "quadforms.cycle", first_arg),
        (quadforms, "class_number_and_reps", "quadforms.cycle", first_arg),
        (quadforms, "reduced_forms", "quadforms.enum", lambda a, out: (a[0], len(out))),
        (census, "pell_from_known", "quadforms.pell", trace_bits),
        (quadforms, "pell_from_known", "quadforms.pell", trace_bits),
        (census, "fundamental_unit", "quadforms.chakravala", unit_bits),
        (quadforms, "fundamental_unit", "quadforms.chakravala", unit_bits),
        (lfunctions, "l_value", "lfunctions.lvalue", first_arg),
        (sl2fp, "classify", "sl2fp.classify", None),
    ]


def kernel_ops(D: int) -> int:
    """b-candidates the reduced-form scan tests for D (computed, not timed).

    Mirrors the loop bounds of the scan: for each a <= isqrt(D), b runs
    over [max(s - 2a + 1, 2a - s, 1), s] in steps of two with b = D mod 2.
    """
    s = math.isqrt(D)
    ops = 0
    for a in range(1, s + 1):
        lo = max(s - 2 * a + 1, 2 * a - s, 1)
        if (lo ^ D) & 1:
            lo += 1
        if lo <= s:
            ops += (s - lo) // 2 + 1
    return ops


def decimal_digits(bits: int) -> int:
    """Decimal digits of an integer with this many bits, to within one."""
    return int(bits * math.log10(2)) + 1 if bits else 1
