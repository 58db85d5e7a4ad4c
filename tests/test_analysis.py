import math
from fractions import Fraction

import numpy as np
import pytest

from tracecensus.analysis import (
    class_report,
    density_error_series,
    density_report,
    error_exponent_fit,
)
from tracecensus.census import RunConfig, run_census
from tracecensus.sl2fp import predicted_density


def planted_series(beta, coeff=3.0, n=12):
    xs = np.geomspace(100, 10**5, n)
    return [(float(x), coeff * float(x) ** beta) for x in xs]


def test_exponent_fit_recovers_planted_power():
    fit = error_exponent_fit(planted_series(0.75))
    assert abs(fit.beta - 0.75) < 1e-9
    assert abs(fit.coeff - 3.0) < 1e-6
    assert fit.residual < 1e-9
    assert fit.points_used == 12
    assert fit.points_dropped == 0


def test_exponent_fit_constant_error_gives_zero_beta():
    fit = error_exponent_fit([(float(x), 7.5) for x in np.geomspace(100, 10**4, 8)])
    assert abs(fit.beta) < 0.01


def test_exponent_fit_oscillatory():
    """A sqrt-size error with a bounded wobble should still fit near 1/2."""
    pts = [
        (float(x), float(x) ** 0.5 * (2.0 + math.sin(3.0 * math.log(x))))
        for x in np.geomspace(100, 10**5, 40)
    ]
    fit = error_exponent_fit(pts)
    assert 0.45 <= fit.beta <= 0.55
    assert fit.residual > 0


@pytest.mark.parametrize("wrap", [list, iter], ids=["list", "iter"])
def test_exponent_fit_drops_small_x_and_nonpositive(wrap):
    pts = planted_series(0.6, n=10)
    pts.append((30.0, 99.0))
    pts.append((5000.0, 0.0))
    pts.append((7000.0, -1.0))
    fit = error_exponent_fit(wrap(pts), min_x=100.0)
    assert fit.points_used == 10
    assert fit.points_dropped == 3
    assert abs(fit.beta - 0.6) < 1e-9


def test_exponent_fit_insufficient_data():
    with pytest.raises(ValueError, match="insufficient"):
        error_exponent_fit([(100.0, 1.0), (200.0, 1.0), (400.0, 1.0)])


RES3 = run_census(RunConfig(p=3, norm_bounds=(100, 500, 2000)))


def test_density_report_predictions_p3():
    rep = density_report(RES3)
    assert rep.p == 3
    assert rep.x == 2000
    assert [row.predicted for row in rep.rows] == [
        Fraction(1, 4),
        Fraction(3, 8),
        Fraction(3, 8),
    ]
    assert not rep.pre_asymptotic


def test_density_report_row_arithmetic():
    rep = density_report(RES3, checkpoint=1)
    assert rep.x == 500
    fold = RES3.folded()
    for a, row in enumerate(rep.rows):
        assert row.a == a
        assert row.psi_pm == pytest.approx(float(fold[1, a]))
        assert row.empirical == pytest.approx(row.psi_pm / 500)
        assert row.abs_err == pytest.approx(abs(row.empirical - float(row.predicted)))
        assert row.rel_err == pytest.approx(row.abs_err / float(row.predicted))
    assert rep.max_rel_err() == max(row.rel_err for row in rep.rows)


def test_density_report_trend_is_per_checkpoint():
    rep = density_report(RES3)
    assert [x for x, _ in rep.trend] == [100, 500, 2000]
    for _, err in rep.trend:
        assert err > 0


def test_density_report_pre_asymptotic_flag():
    tiny = run_census(RunConfig(p=3, norm_bounds=(3,)))
    rep = density_report(tiny)
    assert rep.pre_asymptotic
    assert all(row.psi_a == 0.0 for row in rep.rows)


def test_density_report_rejects_predictions_not_summing_to_one(monkeypatch):
    from tracecensus import analysis

    skewed = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
    monkeypatch.setattr(analysis, "predicted_densities", lambda p: skewed)
    with pytest.raises(RuntimeError, match="p=3 sum to 7/8"):
        density_report(RES3)


def test_error_series_shapes():
    pts = density_error_series(RES3)
    assert [x for x, _ in pts] == [100, 500, 2000]
    fold = RES3.folded()
    for i, (x, err) in enumerate(pts):
        want = max(
            abs(float(fold[i, a]) - float(predicted_density(3, a)) * x) for a in range(3)
        )
        assert err == pytest.approx(want)


def test_class_report_requires_resolved_run():
    with pytest.raises(ValueError):
        class_report(RES3)


def test_class_report_p3():
    res = run_census(RunConfig(p=3, norm_bounds=(2000,), resolve_classes=True))
    rep = class_report(res)
    assert rep.p == 3 and rep.x == 2000
    assert len(rep.rows) == 7
    assert rep.constant == 1
    assert rep.worst_rel_dev < 0.2
    assert sum(row.predicted for row in rep.rows) == 1
    for row in rep.rows:
        assert row.ratio == pytest.approx(
            row.empirical / (rep.constant * float(row.predicted))
        )
