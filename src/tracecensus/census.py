"""Exact census of unit-weighted class data along trace lines.

For every integer trace t with 3 <= t <= trace_bound(x), every splitting
t*t - 4 = m*m * D with D a valid discriminant contributes
h(D) * 2 * log(eps_D) to the residue class t mod p, where h(D) counts the
primitive reduced cycles of discriminant D and eps_D is the fundamental
totally positive unit.  The per-residue totals divided by x are the
quantities whose limits the closed-form conjugacy masses predict.

Each line's weight is a pure function of t, and run_census maps it over
the trace range, serially or in a process pool.  The line weights are
stored in a vector indexed by t and every residue mass is one math.fsum
(Shewchuk's correctly rounded summation) over its lines, so results are
bit-identical whatever the worker count or the chunking of the map.
"""

from __future__ import annotations

import functools
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
    the result.  With the analytic backend, the splittings of a line whose
    discriminant exceeds delta_switch are weighed by one L-value of the
    line's fundamental discriminant D0 (Cohen's series, O(sqrt(D0))) times
    each splitting's exact Euler multiplier, instead of by cycle counting;
    class resolution then has no representatives to classify and is
    refused.
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


def _line_weight(config: RunConfig, table: SpfTable, label_index: dict,
                 t: int) -> tuple[float, list[float]]:
    """Weight of trace line t, and its split over the classes in label_index.

    Exact terms are added in ascending (m, form) order.  The analytic
    splittings then add one term: every splitting D = D0 * f^2 of the line
    shares D0, so they take one L-value times the sum of their exact Euler
    multipliers.  Any failure is raised again naming the line, so a run
    never reports without it.
    """
    from . import lfunctions

    try:
        w_line = 0.0
        split = [0.0] * len(label_index)
        splittings = trace_decompositions(t, table)
        # t*t - 4 = D0 * F^2 makes (F, D0) a splitting, the one with largest m
        m0, d0 = splittings[-1]
        multiplier = 0
        for m, d in splittings:
            if config.backend == "analytic" and d > config.delta_switch:
                multiplier += lfunctions.euler_multiplier(d0, m0 // m, table)
                continue
            h, reps = class_number_and_reps(d)
            tau0, _ = pell_from_known(t, m, d)
            logeps = unit_log(tau0)
            w_line += h * 2.0 * logeps
            for form in (reps if label_index else ()):
                mat = matrix_from_form(t, m, form)
                label = sl2fp.classify(tuple(v % config.p for v in mat), config.p)
                split[label_index[label]] += 2.0 * logeps
        if multiplier:
            w_line += 2.0 * multiplier * math.sqrt(d0) * lfunctions.l_value(d0, table)
        return w_line, split
    except Exception as exc:
        raise RuntimeError("trace line t=%d: %s" % (t, exc)) from exc


def _reduce(rows: Sequence[tuple[float, list[float]]], tbounds: Sequence[int], p: int,
            ncls: int) -> tuple[np.ndarray, np.ndarray]:
    """Checkpointed residue and class masses from the line rows of t = 3, 4, ...

    Line weights land in vectors indexed by t, and every mass is one
    correctly rounded math.fsum over its lines.
    """
    w = np.zeros(tbounds[-1] + 1)
    cw = np.zeros((tbounds[-1] + 1, ncls))
    for t, (weight, split) in enumerate(rows, 3):
        w[t] = weight
        cw[t] = split
    psi = np.array([[math.fsum(w[a : tb + 1 : p]) for a in range(p)] for tb in tbounds])
    cls = np.array([[math.fsum(cw[: tb + 1, k]) for k in range(ncls)] for tb in tbounds])
    return psi, cls


def required_table_limit(x: int, backend: str = "exact") -> int:
    """Spf table size covering every line up to bound x, for either backend.

    4T + 16 reaches past every t +- 2 and every conductor, and past the
    isqrt(D) trial division and the about 3.7 sqrt(D0) <= 3.7 T character
    values of the analytic backend, so backend does not change it.
    """
    return max(4 * trace_bound(x) + 16, 64)


def line_weight(D: int, table: SpfTable | None = None, backend: str = "exact") -> float:
    """h(D) * log(eps_D) through either backend.

    exact: class cycle count times the chakravala unit logarithm.
    analytic: sqrt(D) * L(1, chi_D) by the class number formula, computed
    through Cohen's erfc/E1 series; the table must reach isqrt(D) and
    about 3.7 sqrt(D0) for the fundamental part D0 of D.
    """
    if backend == "exact":
        tau, _ = fundamental_unit(D)
        return class_number(D) * unit_log(tau)
    if backend == "analytic":
        if table is None:
            raise ValueError("the analytic backend needs an spf table")
        from . import lfunctions

        return math.sqrt(D) * lfunctions.l_value(D, table)
    raise ValueError("unknown backend %r" % backend)


def run_census(config: RunConfig) -> CensusResult:
    """Run the census at every checkpoint in config.norm_bounds."""
    table = build_spf_table(required_table_limit(config.norm_bounds[-1], config.backend))
    tbounds = tuple(trace_bound(x) for x in config.norm_bounds)
    classes = sl2fp.class_list(config.p) if config.resolve_classes else ()
    label_index = {c.label: i for i, c in enumerate(classes)}
    weigh = functools.partial(_line_weight, config, table, label_index)
    lines = range(3, tbounds[-1] + 1)
    if config.workers > 1 and len(lines) > 1:
        with ProcessPoolExecutor(max_workers=min(config.workers, len(lines))) as ex:
            chunk = max(1, len(lines) // (8 * config.workers))
            rows = list(ex.map(weigh, lines, chunksize=chunk))
    else:
        rows = list(map(weigh, lines))

    psi, cls = _reduce(rows, tbounds, config.p, len(classes))
    labels = tuple(c.label for c in classes) if classes else None
    return CensusResult(
        config=config,
        trace_bounds=tbounds,
        psi=psi,
        class_labels=labels,
        class_psi=cls if labels else None,
        table_limit=table.limit,
    )
