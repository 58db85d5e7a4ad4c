"""Exact census of unit-weighted class data along trace lines.

For every integer trace t with 3 <= t <= trace_bound(x), every splitting
t*t - 4 = m*m * D with D a valid discriminant contributes
h(D) * 2 * log(eps_D) to the residue class t mod p, where h(D) counts the
primitive reduced cycles of discriminant D and eps_D is the fundamental
totally positive unit.  The per-residue totals divided by x are the
quantities whose limits the closed-form conjugacy masses predict.

Each line's weight is computed from t alone, so the walk can be split
into tasks in any way.  The line weights are stored in a vector indexed by
t and every residue mass is one math.fsum (Shewchuk's correctly rounded
summation) over its lines, so serial and parallel runs, and any split of
the trace range, give bit-identical results.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numtheory import SpfTable, build_spf_table, divisors_from_factorization, factorize
from .quadforms import (
    Form,
    class_number,
    class_number_and_reps,
    fundamental_unit,
    pell_from_known,
    unit_log,
    valid_discriminant,
)
from . import sl2fp


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
    """
    if t < 3:
        raise ValueError("trace must be at least 3")
    merged: dict[int, int] = {}
    for part in (t - 2, t + 2):
        for q, e in factorize(part, table):
            merged[q] = merged.get(q, 0) + e
    square_part = [(q, e // 2) for q, e in merged.items() if e >= 2]
    n = t * t - 4
    out = []
    for m in divisors_from_factorization(square_part):
        d = n // (m * m)
        if d & 3 in (0, 1):
            out.append((m, d))
    return out


def matrix_from_form(t: int, m: int, form: Form) -> tuple[int, int, int, int]:
    """Integer matrix of trace t fixing the scaled form m*(a,b,c).

    Row-major (n11, n12, n21, n22) with determinant one.
    """
    a, b, c = form
    aa, bb, cc = m * a, m * b, m * c
    if (t - bb) % 2 != 0:
        raise ValueError("trace %d and form %r have mismatched parity" % (t, form))
    mat = ((t - bb) // 2, -cc, aa, (t + bb) // 2)
    if mat[0] * mat[3] - mat[1] * mat[2] != 1:
        raise RuntimeError("constructed matrix is not unimodular")
    return mat


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one census run.

    norm_bounds are the checkpoint values of x, ascending.  workers is the
    number of processes the trace lines are spread over; it never changes
    the result.  With the analytic backend, line weights for discriminants
    above delta_switch come from the L-value closed form instead of cycle
    counting; class resolution then has no representatives to classify
    and is refused.
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
        if self.backend == "analytic" and self.resolve_classes:
            raise ValueError("class resolution needs the exact backend")
        if self.delta_switch < 5:
            raise ValueError("delta_switch must be at least 5")


@dataclass
class CensusResult:
    """Checkpointed residue masses, one row per norm bound."""

    config: RunConfig
    trace_bounds: tuple[int, ...]
    psi: np.ndarray
    class_labels: tuple[sl2fp.Label, ...] | None = None
    class_psi: np.ndarray | None = None
    table_limit: int = 0

    def psi_total(self) -> np.ndarray:
        return self.psi.sum(axis=1)

    def folded(self) -> np.ndarray:
        """(psi_a + psi_{-a}) / 2 per residue, same shape as psi."""
        p = self.config.p
        idx = [(-a) % p for a in range(p)]
        return 0.5 * (self.psi + self.psi[:, idx])


_W: dict = {}


def _init_worker(config: RunConfig, table: SpfTable) -> None:
    _W["config"] = config
    _W["table"] = table
    classes = sl2fp.class_list(config.p) if config.resolve_classes else ()
    _W["label_index"] = {c.label: i for i, c in enumerate(classes)}


def _line_weights(ts: range) -> tuple[list[float], list[list[float]]]:
    """Weight of every trace line t in ts, and its split over classes.

    Each line's weight (and split) is a function of t alone: its terms are
    added in ascending (m, form) order, and the per-discriminant caches
    only hold values that do not depend on which line filled them.
    """
    config: RunConfig = _W["config"]
    table: SpfTable = _W["table"]
    label_index: dict = _W["label_index"]
    p = config.p
    resolve = config.resolve_classes
    analytic = config.backend == "analytic"
    ncls = len(label_index)
    if analytic:
        from .lfunctions import l_value

    weights = []
    splits = []
    cache: dict[int, tuple[int, float, tuple[Form, ...]]] = {}
    lw_cache: dict[int, float] = {}

    for t in ts:
        w_line = 0.0
        split = [0.0] * ncls
        for m, d in trace_decompositions(t, table):
            if analytic and d > config.delta_switch:
                w = lw_cache.get(d)
                if w is None:
                    w = 2.0 * math.sqrt(d) * l_value(d, table)
                    lw_cache[d] = w
                w_line += w
                continue
            data = cache.get(d)
            if data is None:
                h, reps = class_number_and_reps(d)
                tau0, _ = pell_from_known(t, m, d)
                data = (h, unit_log(tau0), tuple(reps) if resolve else ())
                cache[d] = data
            h, logeps, reps = data
            w_line += h * 2.0 * logeps
            for form in reps:
                mat = matrix_from_form(t, m, form)
                label = sl2fp.classify(tuple(v % p for v in mat), p)
                split[label_index[label]] += 2.0 * logeps
        weights.append(w_line)
        splits.append(split)
    return weights, splits


def _task_ranges(t_max: int, workers: int) -> list[range]:
    """Trace lines per pool task: one task serially, else 8 per worker.

    The tasks are strided rather than contiguous because the cost of a
    line grows like t^3; striding gives every task a similar share.
    """
    if workers == 1:
        return [range(3, t_max + 1)]
    n = 8 * workers
    return [range(3 + i, t_max + 1, n) for i in range(min(n, t_max - 2))]


def _reduce(tasks: Sequence[range], results, tbounds: Sequence[int], p: int,
            ncls: int) -> tuple[np.ndarray, np.ndarray]:
    """Checkpointed residue and class masses from per-line task results.

    Line weights land in vectors indexed by t, and every mass is one
    correctly rounded math.fsum over its lines, so the result does not
    depend on how the lines were split into tasks.
    """
    w = np.zeros(tbounds[-1] + 1)
    cw = np.zeros((tbounds[-1] + 1, ncls))
    for ts, (weights, splits) in zip(tasks, results):
        w[ts] = weights
        cw[ts] = np.reshape(splits, (len(ts), ncls))
    psi = np.array([[math.fsum(w[a : tb + 1 : p]) for a in range(p)] for tb in tbounds])
    cls = np.array([[math.fsum(cw[: tb + 1, k]) for k in range(ncls)] for tb in tbounds])
    return psi, cls


def required_table_limit(x: int, backend: str = "exact") -> int:
    """Spf table size covering factorization and root work up to bound x.

    The analytic backend also fills character tables over a full period,
    so it needs the sieve to reach the largest discriminant in range.
    """
    t = trace_bound(x)
    limit = max(4 * t + 16, 64)
    if backend == "analytic":
        limit = max(limit, t * t - 4)
        if limit > 3 * 10**8:
            raise ValueError("analytic backend infeasible at this bound")
    return limit


def line_weight(D: int, table: SpfTable | None = None, backend: str = "exact") -> float:
    """h(D) * log(eps_D) through either backend.

    exact: class cycle count times the chakravala unit logarithm.
    analytic: sqrt(D) * L(1, chi_D) by the class number formula, computed
    through the digamma closed form; needs a table with limit >= D - 1.
    """
    if backend == "exact":
        tau, _ = fundamental_unit(D)
        return class_number(D) * unit_log(tau)
    if backend == "analytic":
        if table is None:
            raise ValueError("the analytic backend needs an spf table")
        from .lfunctions import l_value

        return math.sqrt(D) * l_value(D, table)
    raise ValueError("unknown backend %r" % backend)


def unit_power_oracle(x: int, p: int) -> np.ndarray:
    """Per-residue census by scanning discriminants instead of traces.

    For every valid discriminant D <= T(x)^2 - 4 (the largest any trace
    line up to T(x) = trace_bound(x) can carry), finds the fundamental
    unit by an exhaustive scan over s (complete because a unit of norm
    at most x has s at most 2 sqrt(x) / sqrt(D)), then walks the trace
    recurrence over its powers.  Slow and quadratic; it exists purely as
    the second ordering of the same countable set for run_census to be
    checked against.
    """
    sl2fp._require_prime(p)
    tmax = trace_bound(x)
    psi = np.zeros(p)
    for d in range(5, tmax * tmax - 4 + 1):
        if not valid_discriminant(d):
            continue
        smax = (2 * math.isqrt(x) + 2) // math.isqrt(d) + 1
        fund = None
        for s in range(1, smax + 1):
            v = 4 + s * s * d
            rv = math.isqrt(v)
            if rv * rv == v:
                fund = rv
                break
        if fund is None or fund > tmax:
            continue
        w = class_number(d) * 2.0 * unit_log(fund)
        t_prev, t_cur = 2, fund
        while t_cur <= tmax:
            psi[t_cur % p] += w
            t_prev, t_cur = t_cur, fund * t_cur - t_prev
    return psi


def run_census(config: RunConfig) -> CensusResult:
    """Run the census at every checkpoint in config.norm_bounds."""
    table = build_spf_table(required_table_limit(config.norm_bounds[-1], config.backend))
    tbounds = tuple(trace_bound(x) for x in config.norm_bounds)
    tasks = _task_ranges(tbounds[-1], config.workers)

    p = config.p
    if config.resolve_classes:
        labels = tuple(c.label for c in sl2fp.class_list(p))
    else:
        labels = None

    if len(tasks) > 1:
        with ProcessPoolExecutor(
            max_workers=min(config.workers, len(tasks)),
            initializer=_init_worker,
            initargs=(config, table),
        ) as ex:
            results = list(ex.map(_line_weights, tasks))
    else:
        _init_worker(config, table)
        results = [_line_weights(ts) for ts in tasks]

    psi, cls = _reduce(tasks, results, tbounds, p, len(labels) if labels else 0)
    return CensusResult(
        config=config,
        trace_bounds=tbounds,
        psi=psi,
        class_labels=labels,
        class_psi=cls if labels else None,
        table_limit=table.limit,
    )
