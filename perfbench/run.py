"""tracecensus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  Workloads are defined in
workloads.py; each is a closed loop with one client.

Every time reported is in reference seconds: the raw wall time of the
item times REF_SECONDS / (mean time of a fixed reference loop run right
before and right after it).  On a 2-vCPU VM whose cores are shared with
other tenants, CPU speed drifts by up to 1.8x in phases that last a minute
or more.  Over two sets of ten seeds per workload, that spread the median
raw wall time of 25-second runs by 6-36% (interquartile range over
median), against 1-10% for the scaled time: the reference loop slows down
with the machine, so the ratio holds still.  Raw times and scale factors
are in the informational line.

--trace 0 repeats the workload's job until S seconds have passed (at least
once) and reports the end-to-end metrics:
  wall_s         median wall time of one job
  setup_s        median of five cold set-ups (interpreter start, import,
                 the job's sieve table and worker pool), each in a fresh
                 process timed from outside
  peak_rss_mb    peak resident set of this process, plus the largest child
                 for pooled workloads (RUSAGE_CHILDREN)
  lines_per_s    line weights per job / wall_s: (m, D) decompositions
                 summed over the requested primes, or discriminants weighed
                 by both routes on dual-route
  weight_p50_ms, weight_p98_ms
                 per-request latency; a request is one discriminant on
                 dual-route and one whole job on the census workloads.
                 p98 needs ten samples beyond it; with fewer requests (the
                 census workloads) it is the highest percentile that has
                 ten, or the median, and the info line says which

--trace 1 runs the job untraced (and, for pooled workloads, once more with
one worker), then once traced with one worker so that every span lands in
this process, and reports per-layer metrics.  Every *_s per-layer metric is
a self time: the span's duration minus its child spans.

Every output is checked; the checks feed "attempted" and "failed".  A line
of informational JSON (inputs, digests, provenance, failed checks)
precedes the result, which is the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_COVERAGE = 0.90
# what the reference loop takes on one unloaded core of a 2-vCPU x86 VM
REF_SECONDS = 0.050


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _tail_percent(n: int) -> int:
    """98, or the highest percentile with at least ten of n samples beyond
    it, and never below the median."""
    return max(50, min(98, math.floor(100 * (1 - 10 / n))))


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


def _reference_loop() -> float:
    """Seconds for fixed work mixing the kinds the program does: a
    small-integer scan like the form enumeration, big-integer products like
    the unit recovery, and numpy slice passes like the character tables.
    It allocates little, so it never sets the peak RSS."""
    t0 = time.perf_counter()
    hits = 0
    for a in range(1, 1001):
        four_a = 4 * a
        for b in range(1, 601, 2):
            if (b * b - 1_000_003) % four_a == 0:
                hits += 1
    x, m = 3**2000, 7**1500
    for i in range(400):
        x = x * x % m + i
    arr = np.ones(200_000, dtype=np.int8)
    for q in range(2, 200):
        arr[q::q] *= -1
    return time.perf_counter() - t0


class ReferenceClock:
    """Times calls and scales each to reference seconds.

    The reference loop runs between consecutive calls, so every call is
    scaled by the mean of the loops just before and just after it.
    """

    def __init__(self) -> None:
        _reference_loop()  # the first pass pays for page faults and caches
        self.last = _reference_loop()
        self.raw: list[float] = []
        self.factors: list[float] = []

    def time(self, fn, *args, **kwargs):
        gc.collect()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        ref = _reference_loop()
        factor = REF_SECONDS / (0.5 * (self.last + ref))
        self.last = ref
        self.raw.append(raw)
        self.factors.append(factor)
        return raw * factor, factor, out


def _peak_rss_mb(pooled: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pooled:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def _setup_seconds(wl, clock: ReferenceClock) -> list[float]:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve().parent / "setup_probe.py"),
        "--limit", str(wl.table_limit()),
        "--pool", str(wl.workers),
    ]
    return [
        clock.time(subprocess.run, cmd, check=True, stdout=subprocess.DEVNULL)[0]
        for _ in range(SETUP_REPEATS)
    ]


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, results) -> None:
        for name, ok in results:
            self.attempted += 1
            if not ok:
                self.failed.append(name)


def untraced_run(wl, seconds: int, checks: Checks) -> tuple[dict, dict]:
    from workloads import digest

    wl.prepare()
    clock = ReferenceClock()
    walls, latencies, digests = [], [], set()
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start < seconds:
        wall, factor, out = clock.time(wl.job, wl.workers)
        walls.append(wall)
        latencies.extend([v * factor for v in out.latencies] if out.latencies else [wall])
        digests.add(digest(out.data))
        checks.add(wl.checks(out))
    checks.add([("output identical across jobs", len(digests) == 1)])
    rss = _peak_rss_mb(wl.workers > 1)
    setup = _setup_seconds(wl, clock)
    wall_s = _median(walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (_median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "lines_per_s": (wl.weighed_per_job() / wall_s, "1/s"),
        "weight_p50_ms": (1e3 * _percentile(latencies, 50), "ms"),
        "weight_p98_ms": (1e3 * _percentile(latencies, _tail_percent(len(latencies))), "ms"),
    }
    info = {
        "jobs": len(walls),
        "job_walls_s": walls,
        "latency_samples": len(latencies),
        "weight_p98_is_percentile": _tail_percent(len(latencies)),
        "setup_runs_s": setup,
        "raw_s": clock.raw,
        "scale_factors": clock.factors,
        "digests": sorted(digests),
    }
    return metrics, info


def traced_run(wl, seed: int, checks: Checks) -> tuple[dict, dict]:
    from spans import ROOT as ROOT_SPAN, Tracer
    from workloads import bindings, decimal_digits, kernel_ops, digest

    def traced_job():
        with tracer.root():
            return wl.job(1)

    wl.prepare()
    clock = ReferenceClock()
    wall, _, out = clock.time(wl.job, wl.workers)
    checks.add(wl.checks(out))
    if wl.workers > 1:
        serial_wall, _, serial_out = clock.time(wl.job, 1)
        checks.add(wl.checks(serial_out))
        checks.add([("1-worker output identical to pooled", serial_out.data == out.data)])
    else:
        serial_wall = wall

    tracer = Tracer()
    tracer.install(bindings())
    try:
        _, factor, traced = clock.time(traced_job)
    finally:
        tracer.uninstall()
    checks.add(wl.checks(traced))
    checks.add([("traced output identical to untraced", traced.data == out.data)])

    S = tracer.summary()
    V = tracer.values

    def self_s(name):
        return factor * S.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return S.get(name, {}).get("calls", 0)

    traced_wall = factor * S[ROOT_SPAN]["total_s"]
    coverage = 1.0 - self_s(ROOT_SPAN) / traced_wall
    walked = V.get("census.decomp", [])
    cycled = V.get("quadforms.cycle", [])
    enums = V.get("quadforms.enum", [])
    ops_by_d = {D: kernel_ops(D) for D in {D for D, _ in enums}}
    checks.add([
        ("named spans cover >= %.0f%% of traced wall" % (100 * MIN_COVERAGE), coverage >= MIN_COVERAGE),
        ("trace lines walked = primes x (T - 2)", len(walked) == wl.expected_walks()),
    ])

    metrics = {
        "quadforms.enum_s": (self_s("quadforms.enum"), "s"),
        "quadforms.forms_enumerated": (sum(n for _, n in enums), "count"),
        "quadforms.kernel_ops": (sum(ops_by_d[D] for D, _ in enums), "count"),
        "quadforms.cycle_s": (self_s("quadforms.cycle"), "s"),
        "lfunctions.lvalue_s": (self_s("lfunctions.lvalue"), "s"),
        "lfunctions.lvalue_calls": (calls("lfunctions.lvalue"), "count"),
        "lfunctions.chi_entries": (sum(V.get("lfunctions.lvalue", [])), "count"),
        "census.trace_lines": (len(walked), "count"),
        "census.walks_per_line": (len(walked) / len(set(walked)) if walked else 0.0, "ratio"),
        "census.class_data_calls": (len(cycled), "count"),
        "census.distinct_D": (len(set(cycled)), "count"),
        "census.class_data_reuse": (len(set(cycled)) / len(cycled) if cycled else 0.0, "ratio"),
        "census.decomp_s": (self_s("census.decomp"), "s"),
        "numtheory.factorize_s": (self_s("numtheory.factorize"), "s"),
        "numtheory.factorize_calls": (calls("numtheory.factorize"), "count"),
        "census.self_s": (self_s("census.run"), "s"),
        "census.pool_speedup": (serial_wall / wall, "ratio"),
        "sl2fp.classify_s": (self_s("sl2fp.classify"), "s"),
        "sl2fp.classify_calls": (calls("sl2fp.classify"), "count"),
        "quadforms.pell_s": (self_s("quadforms.pell"), "s"),
        "quadforms.pell_calls": (calls("quadforms.pell"), "count"),
        "quadforms.chakravala_s": (self_s("quadforms.chakravala"), "s"),
        "quadforms.unit_digits": (
            sum(decimal_digits(b) for b in V.get("quadforms.pell", []) + V.get("quadforms.chakravala", [])),
            "count",
        ),
        "numtheory.sieve_s": (self_s("numtheory.sieve"), "s"),
        "numtheory.sieve_limit": (max(V.get("numtheory.sieve", []), default=0), "count"),
        "cli.render_s": (self_s("cli.main"), "s"),
        "cli.output_bytes": (len(out.data) if wl.is_cli else 0, "bytes"),
        "trace.overhead_ratio": (traced_wall / serial_wall - 1.0, "ratio"),
        "trace.coverage": (coverage, "ratio"),
    }
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / ("spans-%s-seed%d.json" % (wl.name, seed))
    tracer.dump(span_file)
    info = {
        "untraced_wall_s": wall,
        "serial_wall_s": serial_wall,
        "traced_wall_s": traced_wall,
        "raw_s": clock.raw,
        "scale_factors": clock.factors,
        "spans": {k: v for k, v in S.items() if v["calls"]},
        "span_file": str(span_file.relative_to(ROOT)),
        "digests": sorted({digest(out.data), digest(traced.data)}),
    }
    return metrics, info


def provenance(tracecensus) -> dict:
    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    src_lines = sum(
        len(path.read_text().splitlines()) for path in (SRC / "tracecensus").rglob("*.py")
    )
    return {
        "package_version": tracecensus.__version__,
        "python": platform.python_version(),
        "numba": have_numba,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (SRC / "tracecensus" / "__init__.py").is_file():
        print("error: no tracecensus sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # pool workers and set-up probes must see the same sources
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # the job sets its own worker count; an inherited override would change it
    os.environ.pop("TRACECENSUS_THREADS", None)

    import tracecensus

    if Path(tracecensus.__file__).resolve().parent != SRC / "tracecensus":
        print("error: imported tracecensus from %s" % tracecensus.__file__, file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r (one of %s)" % (args.workload, ", ".join(WORKLOADS)))
    wl = WORKLOADS[args.workload](args.seed)
    checks = Checks()
    if args.trace:
        metrics, info = traced_run(wl, args.seed, checks)
    else:
        metrics, info = untraced_run(wl, args.seconds, checks)

    info = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": wl.inputs(),
        "provenance": provenance(tracecensus),
        "failed_checks": checks.failed[:20],
        **info,
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
