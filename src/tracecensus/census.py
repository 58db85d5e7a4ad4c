"""Census of unit-weighted class data along trace lines.

For every integer trace t with 3 <= t <= trace_bound(x), every splitting
t*t - 4 = m*m * D with D a valid discriminant contributes
h(D) * 2 * log(eps_D) to the residue class t mod p, where h(D) counts the
primitive reduced cycles of discriminant D and eps_D is the fundamental
totally positive unit.  The per-residue totals divided by x are the
quantities whose limits the closed-form conjugacy masses predict.

With t*t - 4 = D0 * F^2, D0 fundamental, the splittings are D = D0 * f^2
for f | F, and h(D) * log(eps_D) = sqrt(D) * L(1, chi_D) is an exact Euler
multiplier mult(f) times sqrt(D0) * L(1, chi_D0).  sum_{f | F} mult(f) is
one Euler product over q^k || F, and the line's sum is sqrt(t*t - 4) *
L(1, t*t - 4) with Zagier's L(s, delta) (1977), the Kuznetsov-Bykovskii
summand Soundararajan and Young (2013) start from: one L-value per line, no
forms walked (line_weight(D, backend="exact") is the oracle).  Only t = +-2
(mod p) holds more than one SL2(F_p) class to split a line between.

Each line's weight is a pure function of t.  run_censuses cuts the trace
range into blocks of consecutive lines, weighs each block with one
vectorised cohen_series pass over its lines' L-values, shared by every
prime of the run, and maps the blocks serially or over a process pool;
each line is still walked once per prime, for its class shares, until
ROADMAP item 14 (walk each line once); until then the benchmark's traced
check that trace lines walked = primes x (T - 2) (perfbench/workloads.py,
_Census.expected_walks) pins those walks.  The line weights are stored in
a vector indexed by t and every residue mass is one math.fsum (Shewchuk's
correctly rounded summation) over its lines, so results are bit-identical
whatever the worker count or the blocks.
"""

from __future__ import annotations

import functools
import math
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lfunctions
from .numtheory import SpfTable, build_spf_table, divisors_from_factorization, factorize, nonresidue, root_part
from .quadforms import class_number, fundamental_unit, unit_log
# unused here, but the benchmark's traced pass rebinds them on this module
from .quadforms import class_number_and_reps, pell_from_known  # noqa: F401
from . import sl2fp

# a block of trace lines holds at most this many (line, series term) slots
BLOCK_ELEMENTS = 2**16
# fewest blocks per pool process: by class at p = 3, 2 workers lose to 1 at
# 18 blocks (x = 5.5e5) and win at 22 (x = 7e5), so a pool breaks even near 10
POOL_BLOCKS = 10


def trace_bound(x: int) -> int:
    """Largest integer trace whose unit has square norm at most x.

    t + sqrt(t*t-4) <= 2*sqrt(x) is equivalent to t*sqrt(x) <= x + 1,
    so the cutoff is isqrt((x+1)**2 // x), exact in integers.
    """
    if x < 1:
        raise ValueError("norm bound must be positive")
    return math.isqrt((x + 1) ** 2 // x)


def trace_decompositions(t: int, table: SpfTable) -> list[tuple[int, int]]:
    """All pairs (m, D) with t*t - 4 = m*m*D and D a valid discriminant.

    Returned in ascending m.  D is automatically a nonsquare for t >= 3.
    One root_part walk of the spf table over the odd parts of t - 2 and
    t + 2, which are coprime, keeps the primes whose exponent in t*t - 4 is
    at least 2; the power of 2 is the sum of the two numbers' 2-adic exponents.
    """
    if t < 3:
        raise ValueError("trace must be at least 3")
    if t + 2 > table.limit:
        raise ValueError("trace %d: t + 2 exceeds the spf table limit %d" % (t, table.limit))
    lo, hi = t - 2, t + 2
    if t & 1:
        square_part = root_part((lo, hi), table, 2)
    else:  # 2^a || t - 2 and 2^b || t + 2, a and b >= 1
        a, b = (lo & -lo).bit_length() - 1, (hi & -hi).bit_length() - 1
        square_part = root_part((lo >> a, hi >> b), table, 2) + [(2, (a + b) // 2)]
    n = t * t - 4
    if not square_part:
        return [(1, n)]  # t*t - 4 = 0 or 1 (mod 4), so n itself is valid
    return [(m, d) for m in divisors_from_factorization(square_part) if (d := n // (m * m)) & 3 < 2]


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one census run.

    norm_bounds are the checkpoint values of x, ascending.  workers is at
    most the number of processes the trace lines are spread over; it never
    changes the result.  backend and delta_switch choose nothing: every
    line is weighed by the same route, and both fields are accepted only
    because the benchmark still passes them.
    """

    p: int
    norm_bounds: tuple[int, ...]
    workers: int = 1
    resolve_classes: bool = False
    backend: str = "exact"
    delta_switch: int = 10**6

    def __post_init__(self) -> None:
        sl2fp._require_prime(self.p)
        if not self.norm_bounds:
            raise ValueError("at least one norm bound is required")
        if any(x < 1 for x in self.norm_bounds):
            raise ValueError("norm bounds must be positive")
        if list(self.norm_bounds) != sorted(set(self.norm_bounds)):
            raise ValueError("norm bounds must be strictly increasing")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.backend not in ("exact", "analytic"):
            raise ValueError("backend must be exact or analytic")
        if self.delta_switch < 5:
            raise ValueError("delta_switch must be at least 5")


@dataclass
class CensusResult:
    """Checkpointed residue masses, one row per norm bound; class_psi's columns follow class_list(p)."""

    config: RunConfig
    trace_bounds: tuple[int, ...]
    psi: np.ndarray
    class_psi: np.ndarray | None = None
    table_limit: int = 0

    def psi_total(self) -> np.ndarray:
        return self.psi.sum(axis=1)

    def folded(self) -> np.ndarray:
        """(psi_a + psi_{-a}) / 2 per residue, same shape as psi."""
        p = self.config.p
        idx = [(-a) % p for a in range(p)]
        return 0.5 * (self.psi + self.psi[:, idx])


def _weigh_line(t: int, table: SpfTable, p: int) -> tuple[int, int, tuple[int, int, int]]:
    """D0 of line t, its Euler multiplier sum total, and twice its three class shares.

    On t = 2s (mod p) the matrix fixing m*(a, b, c) is s(I + N): central if
    p | m, else unipotent with chi = (-s m a / p), split evenly by the genus
    character (a/p) unless D0 = p (Cox, Primes of the Form x^2 + ny^2, 3).
    The shares go to s(I + N) for N = (0, 0, g, 0), g = 0, 1 and a
    nonresidue, in that order: 2 (total - kept), kept summing over p not
    dividing m, and kept +- twist, twist = F if D0 = p.  They do not depend
    on s, and nothing reads them on the other lines.
    """
    F, d0 = trace_decompositions(t, table)[-1]  # (F, D0) is the last splitting
    total = kept = 1
    for q, k in factorize(F, table):
        c = lfunctions.euler_terms(d0, q, k)
        total *= sum(c)
        kept *= c[k] if q == p else sum(c)
    twist = F if d0 == p else 0
    return d0, total, (2 * (total - kept), kept + twist, kept - twist)


def _weigh_block(configs: Sequence[RunConfig], table: SpfTable, lines: range) -> list[list[tuple[float, ...]]]:
    """Each config's line rows: _weigh_line's 2 total and, resolving classes, doubled, times sqrt(D0) L(1, chi_D0).

    The configs share one cohen_series pass over the block's L-values.  A
    failure is raised again naming its line, or the block's lines if in that pass.
    """
    parts = []
    for t in lines:
        try:
            parts.append([_weigh_line(t, table, c.p) for c in configs])
        except Exception as exc:
            raise RuntimeError("trace line t=%d: %s" % (t, exc)) from exc
    try:
        series = lfunctions.cohen_series([line[0][0] for line in parts], table)
    except Exception as exc:
        raise RuntimeError("trace lines t=%d..%d: %s" % (lines[0], lines[-1], exc)) from exc
    rows: list[list[tuple[float, ...]]] = [[] for _ in configs]
    for line, value in zip(parts, series):
        root = math.sqrt(line[0][0])
        lval = value / root  # L(1, chi_D0) rounded as l_value(d0) rounds it
        row = (2.0 * line[0][1] * root * lval,)  # the multiplier sum does not depend on p
        for config, (_, _, doubled), out in zip(configs, line, rows):
            out.append(row + tuple(n * root * lval for n in doubled) if config.resolve_classes else row)
    return rows


def _blocks(t_max: int) -> list[range]:
    """Consecutive trace lines 3..t_max cut into blocks for cohen_series.

    A block grows while its lines times TERMS_PER_ROOT t, about the longest
    series any of them can need (series_length(t*t - 4)), stay within
    BLOCK_ELEMENTS; a line that alone exceeds it is a block of one.
    """
    blocks, start = [], 3
    for t in range(4, t_max + 1):
        if (t - start + 1) * math.ceil(lfunctions.TERMS_PER_ROOT * t) > BLOCK_ELEMENTS:
            blocks.append(range(start, t))
            start = t
    if start <= t_max:
        blocks.append(range(start, t_max + 1))
    return blocks


def _class_columns(p: int) -> dict[sl2fp.Label, list[int]]:
    """Label -> the row columns j it owns, the j-th share of _weigh_line; any other class owns column 0."""
    picks = {}
    for s in {1, p - 1}:  # one sign when p = 2
        for j, g in enumerate((0, 1, nonresidue(p) if p > 2 else 1), 1):
            picks.setdefault(sl2fp.classify((s, 0, g, s), p), []).append(j)
    return picks


def _reduce(rows: Sequence[tuple[float, ...]], tbounds: Sequence[int], p: int,
            classes: Sequence[sl2fp.ConjClass]) -> tuple[np.ndarray, np.ndarray | None]:
    """Checkpointed residue and class masses (None without classes) from the line rows of t = 3, 4, ...

    The row columns land in lists indexed by t, and every mass is one
    correctly rounded math.fsum over its residue's lines of the columns it
    owns: column 0 for a residue, _class_columns for a class.
    """
    cols = [[0.0] * 3 + list(col) for col in zip(*rows)] if rows else [[0.0] * 3] * 4
    picks = _class_columns(p) if classes else {}
    psi = np.array([[math.fsum(cols[0][a : tb + 1 : p]) for a in range(p)] for tb in tbounds])
    cls = np.array([[math.fsum(v for j in picks.get(c.label, (0,)) for v in cols[j][c.trace : tb + 1 : p])
                     for c in classes] for tb in tbounds]) if classes else None
    return psi, cls


def required_table_limit(x: int, backend: str = "exact") -> int:
    """Spf table size covering every line up to bound x.

    4T + 16 reaches past every t +- 2 and every conductor, and past the
    about TERMS_PER_ROOT sqrt(D0) < 4T character values of each line's
    L-value series.  backend is accepted for the benchmark and changes nothing.
    """
    return max(4 * trace_bound(x) + 16, 64)


def line_weight(D: int, table: SpfTable | None = None, backend: str = "exact") -> float:
    """h(D) * log(eps_D) through either route.

    exact: class cycle count times the logarithm of the unit read off the
    principal cycle, the oracle of the census weights.
    analytic: sqrt(D) * L(1, chi_D) by the class number formula, computed
    through Cohen's erfc/E1 series as the census does; the table must
    reach isqrt(D) and about 3.7 sqrt(D0) for the fundamental part D0 of D.
    """
    if backend == "exact":
        tau, _ = fundamental_unit(D)
        return class_number(D) * unit_log(tau)
    if backend == "analytic":
        if table is None:
            raise ValueError("the analytic backend needs an spf table")
        return math.sqrt(D) * lfunctions.l_value(D, table)
    raise ValueError("unknown backend %r" % backend)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ignore_interrupt() -> None:
    """Pool worker set-up: Ctrl-C is the parent's, which cancels the blocks."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def run_census(config: RunConfig) -> CensusResult:
    """Run the census at every checkpoint in config.norm_bounds."""
    return run_censuses([config])[0]


def run_censuses(configs: Sequence[RunConfig]) -> list[CensusResult]:
    """Run one census per config, in order, sharing each block's L-value pass.

    The configs may differ in p and resolve_classes but must share
    norm_bounds and workers.  The trace lines go in blocks to a process pool
    of at most workers, block count // POOL_BLOCKS and CPU count processes
    when that is more than one, else in turn in this process.  A worker that
    dies raises RuntimeError and KeyboardInterrupt cancels the pending
    blocks; both name the lines not weighed.
    """
    if not configs:
        raise ValueError("at least one census config is required")
    for field in ("norm_bounds", "workers"):
        if len({getattr(c, field) for c in configs}) > 1:
            raise ValueError("the censuses of one run must share %s" % field)
    config = configs[0]
    table = build_spf_table(required_table_limit(config.norm_bounds[-1]))
    tbounds = tuple(trace_bound(x) for x in config.norm_bounds)
    weigh = functools.partial(_weigh_block, tuple(configs), table)
    blocks = _blocks(tbounds[-1])
    rows: list[list[tuple[float, ...]]] = [[] for _ in configs]
    pool = None
    procs = min(config.workers, len(blocks) // POOL_BLOCKS, usable_cpus())
    try:
        if procs > 1:
            pool = ProcessPoolExecutor(max_workers=procs, initializer=_ignore_interrupt)
            # every task carries the table, so the blocks go in a few chunks
            results = pool.map(weigh, blocks, chunksize=max(1, len(blocks) // (8 * procs)))
        else:
            results = map(weigh, blocks)
        for block_rows in results:
            for out, part in zip(rows, block_rows):
                out.extend(part)
    except BrokenProcessPool as exc:
        raise RuntimeError("trace lines t=%d..%d: a worker process died"
                           % (3 + len(rows[0]), tbounds[-1])) from exc
    except KeyboardInterrupt as exc:
        raise KeyboardInterrupt("trace lines t=%d..%d were not weighed"
                                % (3 + len(rows[0]), tbounds[-1])) from exc
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    classes = [sl2fp.class_list(c.p) if c.resolve_classes else () for c in configs]
    return [CensusResult(c, tbounds, *_reduce(part, tbounds, c.p, cl), table_limit=table.limit)
            for c, part, cl in zip(configs, rows, classes)]
