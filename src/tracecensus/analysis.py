"""Reports on census output: density comparisons and error-exponent fits.

Everything here is a pure transform of a CensusResult; identical inputs
give identical reports.  density_rows reads a result's masses and
predictions as Python floats once, not per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .census import CensusResult
from .sl2fp import class_list, class_mass, predicted_densities


@dataclass(frozen=True)
class DensityRow:
    a: int
    psi_a: float
    psi_pm: float
    predicted: Fraction
    empirical: float
    abs_err: float
    rel_err: float


@dataclass(frozen=True)
class DensityReport:
    p: int
    x: int
    rows: tuple[DensityRow, ...]
    trend: tuple[tuple[int, float], ...]
    pre_asymptotic: bool

    def max_rel_err(self) -> float:
        return max(r.rel_err for r in self.rows)


def density_rows(result: CensusResult) -> tuple[tuple[DensityRow, ...], ...]:
    """Empirical psi_pm/x against the closed-form densities, one tuple of
    p rows (ascending a) per checkpoint."""
    preds = predicted_densities(result.config.p)
    predfs = [float(pred) for pred in preds]
    out = []
    for x, psi, fold in zip(result.config.norm_bounds, result.psi.tolist(), result.folded().tolist()):
        rows = []
        for a, (pred, predf, pm) in enumerate(zip(preds, predfs, fold)):
            emp = pm / x
            err = abs(emp - predf)
            rows.append(DensityRow(a, psi[a], pm, pred, emp, err, err / predf))
        out.append(tuple(rows))
    return tuple(out)


def density_report(result: CensusResult, checkpoint: int = -1) -> DensityReport:
    """Empirical psi_pm/x against the closed-form densities.

    The trend table carries the max-over-residues relative error at every
    checkpoint; the requested checkpoint supplies the detailed rows.
    """
    all_rows = density_rows(result)
    i = range(len(all_rows))[checkpoint]
    rows = all_rows[i]
    total = sum(r.predicted for r in rows)
    if total != 1:
        raise RuntimeError("predicted densities for p=%d sum to %s, not 1" % (result.config.p, total))
    xs = result.config.norm_bounds
    return DensityReport(
        p=result.config.p,
        x=xs[i],
        rows=rows,
        trend=tuple((x, max(r.rel_err for r in xrows)) for x, xrows in zip(xs, all_rows)),
        pre_asymptotic=bool(result.psi[i].sum() == 0.0),
    )


@dataclass(frozen=True)
class ExponentFit:
    beta: float
    coeff: float
    residual: float
    points_used: int
    points_dropped: int


def error_exponent_fit(points, min_x: float = 100.0) -> ExponentFit:
    """Least-squares beta, c for err ~ c * x^beta in log-log coordinates.

    Points with err <= 0 or x < min_x are dropped (and counted); fewer
    than 4 surviving points is an error.
    """
    points = list(points)
    usable = [(x, e) for x, e in points if e > 0 and x >= min_x]
    dropped = len(points) - len(usable)
    if len(usable) < 4:
        raise ValueError(
            "insufficient data: %d usable points, need at least 4" % len(usable)
        )
    lx = np.log([x for x, _ in usable])
    le = np.log([e for _, e in usable])
    beta, logc = np.polyfit(lx, le, 1)
    resid = float(np.sqrt(np.mean((le - (beta * lx + logc)) ** 2)))
    return ExponentFit(
        beta=float(beta),
        coeff=float(np.exp(logc)),
        residual=resid,
        points_used=len(usable),
        points_dropped=dropped,
    )


def density_error_series(result: CensusResult):
    """(x, max-over-a |psi_pm - predicted*x|) per checkpoint, fit-ready.

    Computed as x * max(abs_err) over the density rows, the same formula
    a stored report's rows give back, so fitting either is identical.
    """
    return [
        (x, x * max(r.abs_err for r in rows))
        for x, rows in zip(result.config.norm_bounds, density_rows(result))
    ]


@dataclass(frozen=True)
class ClassRow:
    label: tuple
    trace: int
    size: int
    empirical: float
    predicted: Fraction
    ratio: float


@dataclass(frozen=True)
class ClassReport:
    p: int
    x: int
    rows: tuple[ClassRow, ...]
    constant: int
    worst_rel_dev: float


def class_report(result: CensusResult, checkpoint: int = -1) -> ClassReport:
    """Per-conjugacy-class masses against size/|G|, with the global
    constant resolved empirically over {1, 2}."""
    if result.class_psi is None:
        raise ValueError("census was run without class resolution")
    p = result.config.p
    n = len(result.config.norm_bounds)
    i = range(n)[checkpoint]
    x = result.config.norm_bounds[i]
    classes = class_list(p)
    masses = class_mass(p)
    rows = []
    for k, cls in enumerate(classes):
        emp = result.class_psi[i, k] / x
        pred = masses[cls.label]
        rows.append(
            ClassRow(
                label=cls.label,
                trace=cls.trace,
                size=cls.size,
                empirical=emp,
                predicted=pred,
                ratio=emp / float(pred),
            )
        )
    best_c, best_dev = None, None
    for c in (1, 2):
        dev = max(abs(r.ratio / c - 1.0) for r in rows)
        if best_dev is None or dev < best_dev:
            best_c, best_dev = c, dev
    return ClassReport(p=p, x=x, rows=tuple(rows), constant=best_c, worst_rel_dev=best_dev)
