"""End-to-end acceptance gauntlet.

Each test covers one numbered criterion and reports a single verdict line
(collected in the terminal summary). Gates marked "frozen" were calibrated
once on the reference machine and pinned with headroom; the looser outer
gates are the contract.
"""

import functools
import time
from fractions import Fraction

import numpy as np
from conftest import ACCEPTANCE
from oracles import (
    _brute_class_count,
    closed_form_density,
    orbit_class_table,
    psi_by_discriminant_scan,
)

from tracecensus.analysis import (
    class_report,
    density_error_series,
    density_report,
    error_exponent_fit,
)
from tracecensus.census import RunConfig, line_weight, run_census
from tracecensus.numtheory import build_spf_table
from tracecensus.quadforms import (
    class_number,
    fundamental_unit,
    pell_from_known,
    valid_discriminant,
)
from tracecensus.sl2fp import (
    class_list,
    group_order,
    predicted_density,
    trace_mass,
)

PRIMES_TO_97 = [p for p in range(2, 98) if all(p % q for q in range(2, p))]

# geometric checkpoint ladder 1e3 .. 1e5, nine points, used by criteria 8-10
GRID = tuple(int(round(10 ** (3 + k / 4))) for k in range(9))
IX3, IX4 = GRID.index(1000), GRID.index(10**4)

CENSUS_PRIMES = (2, 3, 5, 7)

# frozen calibration (reference machine, single thread)
FROZEN_PSI_GAP_BAND = (0.0035, 0.0105)  # observed 0.0070 at x=1e4
FROZEN_MAX_REL = {2: 0.0105, 3: 0.0107, 5: 0.0354, 7: 0.1299}
FROZEN_BETA = {3: 0.448, 5: 0.474}
FROZEN_CLASS_DEV = 0.10  # observed 0.072
FROZEN_SINGLE_SECONDS = 60.0  # observed well under 1 s
FROZEN_EIGHT_SECONDS = 60.0


def verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    line = "criterion %02d %s %s (%s)" % (num, "PASS" if ok else "FAIL", name, detail)
    ACCEPTANCE.append(line)
    print(line)
    return ok


@functools.lru_cache(maxsize=None)
def census(p: int, resolve: bool = False):
    return run_census(RunConfig(p=p, norm_bounds=GRID, resolve_classes=resolve))


def test_criterion_01_brute_force_class_tables():
    t0 = time.perf_counter()
    bad = []
    for p in (2, 3, 5, 7, 11, 13):
        want = sorted((c.trace, c.size, c.centralizer) for c in class_list(p))
        if orbit_class_table(p) != want:
            bad.append(p)
    dt = time.perf_counter() - t0
    ok = not bad and dt < 10.0
    assert verdict(1, "brute-force-class-tables", ok, "p up to 13, %.2f s" % dt)


def test_criterion_02_class_equation_to_97():
    bad = []
    for p in PRIMES_TO_97:
        classes = class_list(p)
        want_count = 3 if p == 2 else p + 4
        if len(classes) != want_count:
            bad.append((p, "count"))
        if sum(c.size for c in classes) != group_order(p):
            bad.append((p, "mass"))
    ok = not bad
    assert verdict(2, "class-equation", ok, "%d primes" % len(PRIMES_TO_97))


def test_criterion_03_predicted_densities_exact():
    bad = []
    for p in PRIMES_TO_97:
        total = Fraction(0)
        for a in range(p):
            pred = predicted_density(p, a)
            want = Fraction(1, 4) * (trace_mass(p, a) + trace_mass(p, (-a) % p))
            if pred != want or pred != closed_form_density(p, a):
                bad.append((p, a))
            total += pred
        if total != 1:
            bad.append((p, "sum"))
    ok = not bad
    assert verdict(3, "predicted-densities", ok, "%d primes, exact rationals" % len(PRIMES_TO_97))


def test_criterion_04_class_numbers_vs_brute_force():
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for d in range(5, 2001):
        if not valid_discriminant(d):
            continue
        checked += 1
        if class_number(d) != _brute_class_count(d):
            bad.append(d)
    dt = time.perf_counter() - t0
    ok = not bad and dt < 60.0
    assert verdict(4, "class-numbers", ok, "%d discriminants, %.1f s" % (checked, dt))


def test_criterion_05_unit_recovery_from_powers():
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for d in range(5, 10**4 + 1):
        if not valid_discriminant(d):
            continue
        checked += 1
        tau, s = fundamental_unit(d)
        t2, m2 = tau * tau - 2, tau * s
        t3, m3 = tau**3 - 3 * tau, s * (tau * tau - 1)
        if pell_from_known(t2, m2, d) != (tau, s) or pell_from_known(t3, m3, d) != (tau, s):
            bad.append(d)
    dt = time.perf_counter() - t0
    ok = not bad
    assert verdict(5, "unit-recovery", ok, "%d discriminants, %.1f s" % (checked, dt))


def test_criterion_06_line_weight_dual_route():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    table = build_spf_table(10**6)
    sample: set[int] = set()
    while len(sample) < 500:
        for d in rng.integers(5, 10**6 + 1, size=4000):
            d = int(d)
            if valid_discriminant(d):
                sample.add(d)
                if len(sample) == 500:
                    break
    worst = 0.0
    for d in sorted(sample):
        exact = line_weight(d)
        analytic = line_weight(d, table=table, backend="analytic")
        worst = max(worst, abs(exact - analytic) / exact)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-3
    assert verdict(6, "line-weight-dual-route", ok, "500 sampled, worst rel %.2e, %.1f s" % (worst, dt))


def test_criterion_07_census_vs_unit_power_oracle():
    worst = 0.0
    for p in CENSUS_PRIMES:
        res = run_census(RunConfig(p=p, norm_bounds=(500,)))
        want = psi_by_discriminant_scan(500, p)[0]
        gap = float(np.max(np.abs(res.psi[0] - want) / want))
        worst = max(worst, gap)
    ok = worst <= 1e-9
    assert verdict(7, "census-vs-oracle", ok, "x=500, worst rel %.2e" % worst)


def test_criterion_08_psi_ratio_at_1e4():
    totals = census(2).psi_total()
    gap = abs(float(totals[IX4]) / 10**4 - 1.0)
    lo, hi = FROZEN_PSI_GAP_BAND
    ok = gap <= 0.1 and lo <= gap <= hi
    assert verdict(8, "psi-over-x", ok, "|psi/x - 1| = %.4f, frozen band [%.4f, %.4f]" % (gap, lo, hi))


def test_criterion_09_residue_densities_at_1e4():
    worst = 0.0
    violations = []
    drift = 0.0
    for p in CENSUS_PRIMES:
        rep4 = density_report(census(p), checkpoint=IX4)
        rep3 = density_report(census(p), checkpoint=IX3)
        m4, m3 = rep4.max_rel_err(), rep3.max_rel_err()
        worst = max(worst, m4)
        drift = max(drift, abs(m4 - FROZEN_MAX_REL[p]))
        if m4 >= m3:
            violations.append(p)
    ok = worst <= 0.15 and len(violations) <= 1 and drift <= 1e-3
    assert verdict(
        9,
        "residue-densities",
        ok,
        "worst rel %.4f at x=1e4, trend violations %d" % (worst, len(violations)),
    )


def test_criterion_10_error_exponent():
    betas = {}
    for p in (3, 5):
        fit = error_exponent_fit(density_error_series(census(p)), min_x=1000.0)
        betas[p] = fit.beta
    ok = all(b <= 0.9 for b in betas.values()) and all(
        abs(betas[p] - FROZEN_BETA[p]) <= 0.05 for p in betas
    )
    assert verdict(
        10,
        "error-exponent",
        ok,
        ", ".join("p=%d beta=%.3f" % (p, b) for p, b in sorted(betas.items())),
    )


def test_criterion_11_class_resolved_constant():
    rep = class_report(census(3, resolve=True), checkpoint=IX4)
    ok = rep.constant == 1 and rep.worst_rel_dev <= 0.20 and rep.worst_rel_dev <= FROZEN_CLASS_DEV
    assert verdict(
        11,
        "class-resolved-constant",
        ok,
        "c=%d, worst dev %.3f at x=1e4 p=3" % (rep.constant, rep.worst_rel_dev),
    )


def test_criterion_12_thread_count_determinism():
    runs = {
        w: run_census(RunConfig(p=5, norm_bounds=(10**4,), workers=w))
        for w in (1, 4, 8)
    }
    base = runs[1].psi.tobytes()
    ok = all(runs[w].psi.tobytes() == base for w in (4, 8))
    assert verdict(12, "thread-determinism", ok, "workers 1/4/8 byte-identical")


def test_criterion_13_wall_clock():
    t0 = time.perf_counter()
    run_census(RunConfig(p=5, norm_bounds=(10**4,), workers=1))
    single = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_census(RunConfig(p=5, norm_bounds=(10**4,), workers=8))
    eight = time.perf_counter() - t0
    ok = single <= FROZEN_SINGLE_SECONDS and eight <= FROZEN_EIGHT_SECONDS
    assert verdict(13, "wall-clock", ok, "single %.2f s, 8-thread %.2f s" % (single, eight))
