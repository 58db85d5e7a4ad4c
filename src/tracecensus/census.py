"""Census of unit-weighted class data along trace lines.

For every integer trace t with 3 <= t <= trace_bound(x), every splitting
t*t - 4 = m*m * D with D a valid discriminant contributes
h(D) * 2 * log(eps_D) to the residue class t mod p, where h(D) counts the
primitive reduced cycles of discriminant D and eps_D is the fundamental
totally positive unit.  The per-residue totals divided by x are the
quantities whose limits the closed-form conjugacy masses predict.

Every splitting of one line shares the fundamental discriminant D0 of
t*t - 4, and h(D) * log(eps_D) = sqrt(D) * L(1, chi_D) is an exact integer
Euler multiplier times sqrt(D0) * L(1, chi_D0).  So each line is weighed by
one L-value (Cohen's series, O(sqrt(D0))), and its SL2(F_p) classes by
t mod p, m and Gauss's genus character, with no forms walked.  The exact
route (class cycles times units) stays as the oracle, line_weight(D,
backend="exact").

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
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numtheory import SpfTable, build_spf_table, divisors_from_factorization, factorize
from .quadforms import class_number, fundamental_unit, unit_log
# unused here, but the benchmark's traced pass rebinds them on this module
from .quadforms import class_number_and_reps, pell_from_known  # noqa: F401
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


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one census run.

    norm_bounds are the checkpoint values of x, ascending.  workers is the
    number of processes the trace lines are spread over; it never changes
    the result.  backend and delta_switch choose nothing: every line is
    weighed by the same route, and both fields are accepted only because
    the benchmark still passes them.
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


def _splitting_classes(p: int, t: int, m: int, d0: int) -> tuple[sl2fp.Label, ...]:
    """SL2(F_p) classes sharing equally the weight of splitting (m, D) of line t.

    Off t = +-2 (mod p) that is the one class of trace t mod p.  On
    t = 2s (mod p) the matrix fixing m*(a, b, c) is s(I + N) mod p, central
    if p | m, else unipotent with chi = (-s m a / p), a a value of the form
    prime to p.  The genus character (a/p) is trivial if D0 = p and else
    +1 on half the classes (Cox, Primes of the Form x^2 + ny^2, section 3).
    """
    if (t - 2) % p and (t + 2) % p:
        return (sl2fp.classify((0, p - 1, 1, t % p), p),)
    s = 1 if (t - 2) % p == 0 else -1
    gs = (1,) if p == 2 or d0 == p else (1, sl2fp._nonresidue(p))
    return tuple(sl2fp.classify((s, 0, m * g, s), p) for g in gs)


def _line_weight(config: RunConfig, table: SpfTable, label_index: dict,
                 t: int) -> tuple[float, list[float]]:
    """Weight of trace line t, and its split over the classes in label_index.

    Every splitting D = D0 * f^2 of the line shares D0, so the weight is
    2 sqrt(D0) L(1, chi_D0) times the sum of the splittings' exact Euler
    multipliers: one L-value per line.  With classes, each splitting's
    share goes in equal parts to its _splitting_classes, summed per class
    in integers first.  Any failure is raised again naming the line, so a
    run never reports without it.
    """
    from . import lfunctions

    try:
        splittings = trace_decompositions(t, table)
        # t*t - 4 = D0 * F^2 makes (F, D0) a splitting, the one with largest m
        m0, d0 = splittings[-1]
        mults = [lfunctions.euler_multiplier(d0, m0 // m, table) for m, _ in splittings]
        lval = lfunctions.l_value(d0, table)
        w_line = 2.0 * sum(mults) * math.sqrt(d0) * lval
        # twice each class's multiplier sum, so half shares stay integers
        doubled = [0] * len(label_index)
        if label_index:
            for (m, _), mult in zip(splittings, mults):
                labels = _splitting_classes(config.p, t, m, d0)
                for label in labels:
                    doubled[label_index[label]] += 2 * mult // len(labels)
        return w_line, [n * math.sqrt(d0) * lval for n in doubled]
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
    """Spf table size covering every line up to bound x.

    4T + 16 reaches past every t +- 2 and every conductor, and past the
    isqrt(D0) trial division and the about 3.7 sqrt(D0) <= 3.7 T character
    values of the L-value.  backend is accepted for the benchmark and
    changes nothing.
    """
    return max(4 * trace_bound(x) + 16, 64)


def line_weight(D: int, table: SpfTable | None = None, backend: str = "exact") -> float:
    """h(D) * log(eps_D) through either route.

    exact: class cycle count times the chakravala unit logarithm, the
    oracle of the census weights.
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
        from . import lfunctions

        return math.sqrt(D) * lfunctions.l_value(D, table)
    raise ValueError("unknown backend %r" % backend)


def run_census(config: RunConfig) -> CensusResult:
    """Run the census at every checkpoint in config.norm_bounds."""
    table = build_spf_table(required_table_limit(config.norm_bounds[-1]))
    tbounds = tuple(trace_bound(x) for x in config.norm_bounds)
    classes = sl2fp.class_list(config.p) if config.resolve_classes else ()
    label_index = {c.label: i for i, c in enumerate(classes)}
    weigh = functools.partial(_line_weight, config, table, label_index)
    lines = range(3, tbounds[-1] + 1)
    if config.workers > 1 and len(lines) > 1:
        rows = []
        with ProcessPoolExecutor(max_workers=min(config.workers, len(lines))) as ex:
            chunk = max(1, len(lines) // (8 * config.workers))
            try:
                rows.extend(ex.map(weigh, lines, chunksize=chunk))
            except BrokenProcessPool as exc:
                raise RuntimeError("trace lines t=%d..%d: a worker process died"
                                   % (lines[len(rows)], lines[-1])) from exc
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
