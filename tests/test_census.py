import dataclasses
import functools
import inspect
import math
import multiprocessing
import os
import random
import signal
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecensus import census, cli, lfunctions, quadforms
from tracecensus.census import (
    CensusResult,
    RunConfig,
    line_weight,
    required_table_limit,
    run_census,
    trace_bound,
    trace_decompositions,
)
from tracecensus.numtheory import build_spf_table, kronecker
from tracecensus.quadforms import class_number_and_reps
from tracecensus import sl2fp

import oracles
from oracles import matrix_from_form

TABLE = build_spf_table(6000)


def test_reduce_rounds_the_exact_sum_of_each_mass_once(monkeypatch):
    # every residue and class mass is its lines' float weights summed in
    # rationals and rounded once, so any other summation shows
    seen = []
    real = census._reduce

    def spy(rows, tbounds, p, classes):
        seen.append((rows, tbounds, classes, real(rows, tbounds, p, classes)))
        return seen[-1][3]

    monkeypatch.setattr(census, "_reduce", spy)
    run_census(RunConfig(p=5, norm_bounds=(10**3, 10**4, 10**5), resolve_classes=True))
    [(rows, tbounds, classes, (psi, cls))] = seen
    lines = list(enumerate(rows, 3))
    picks = census._class_columns(5)
    for i, tb in enumerate(tbounds):
        for a in range(5):
            exact = sum(Fraction(row[0]) for t, row in lines if t <= tb and t % 5 == a)
            assert psi[i, a] == float(exact), (tb, a)
        for k, c in enumerate(classes):
            # a class alone on its trace residue takes each of its lines whole
            alone = [other.trace for other in classes].count(c.trace) == 1
            assert alone == (c.label not in picks), c.label
            exact = sum(Fraction(row[j]) for t, row in lines if t <= tb and t % 5 == c.trace
                        for j in picks.get(c.label, (0,)))
            assert cls[i, k] == float(exact), (tb, k)


@pytest.mark.parametrize("p", [2, 3, 5, 13, 101, 1009])
def test_only_classes_of_trace_pm2_are_split(p, monkeypatch):
    # a class alone on its trace residue has that residue's mass, bit for
    # bit; only the classes of trace +-2 own share columns, and on each of
    # the two residues they own columns 1, 2 and 3 once each, so their
    # masses sum to the residue's.  T(1.05e6) = 1024 reaches t = 1007, 1011.
    seen = []
    real = census._reduce

    def spy(rows, tbounds, p, classes):
        seen.append(rows)
        return real(rows, tbounds, p, classes)

    monkeypatch.setattr(census, "_reduce", spy)
    classes = sl2fp.class_list(p)
    picks = census._class_columns(p)
    shared = {2 % p, -2 % p}
    assert set(picks) == {c.label for c in classes if c.trace in shared}
    for a in shared:
        owned = [j for c in classes if c.trace == a for j in picks[c.label]]
        assert sorted(owned) == [1, 2, 3], a
    for workers in (1, 2):
        res = run_census(RunConfig(p=p, norm_bounds=(10**3, 10**5, 1_050_000), workers=workers,
                                   resolve_classes=True))
        for k, c in enumerate(classes):
            if c.label not in picks:
                assert res.class_psi[:, k].tobytes() == res.psi[:, c.trace].tobytes(), c.label
        for a in shared:
            split = sum(res.class_psi[:, k] for k, c in enumerate(classes) if c.trace == a)
            np.testing.assert_allclose(split, res.psi[:, a], rtol=1e-14, atol=0)
        rows = seen.pop()
        assert len(rows) == res.trace_bounds[-1] - 2 and {len(row) for row in rows} == {4}
        want = {t for t in (p - 2, p + 2, 2 * p - 2, 2 * p + 2) if 3 <= t <= res.trace_bounds[-1]}
        assert want and all(sum(rows[t - 3][1:]) > 0 for t in want)
    assert not seen


def test_trace_bound_pinned():
    assert trace_bound(50) == 7
    assert trace_bound(10**4) == 100
    assert trace_bound(7) == 3
    assert trace_bound(6) == 2
    assert trace_bound(1) == 2
    # eps_7^2 = 46.97..., so 46 excludes trace 7 and 47 includes it
    assert trace_bound(46) == 6
    assert trace_bound(47) == 7


def test_trace_bound_is_exact_cutoff():
    for x in range(1, 4000):
        t = trace_bound(x)
        # norm of the trace-t unit is ((t + sqrt(t^2-4))/2)^2 <= x,
        # equivalently t*isqrt-free check t^2 x <= (x+1)^2
        assert t * t * x <= (x + 1) ** 2
        assert (t + 1) ** 2 * x > (x + 1) ** 2


def test_decompositions_pinned():
    assert trace_decompositions(3, TABLE) == [(1, 5)]
    assert trace_decompositions(4, TABLE) == [(1, 12)]
    assert trace_decompositions(5, TABLE) == [(1, 21)]
    assert trace_decompositions(6, TABLE) == [(1, 32), (2, 8)]
    assert trace_decompositions(7, TABLE) == [(1, 45), (3, 5)]
    assert trace_decompositions(10, TABLE) == [(1, 96), (2, 24)]
    assert trace_decompositions(18, TABLE) == [(1, 320), (2, 80), (4, 20), (8, 5)]


def test_decompositions_against_divisor_scan():
    top = trace_bound(10**8)  # 10 000
    table = build_spf_table(required_table_limit(10**8))
    # t - 2 or t + 2 a prime power: 2^k, 3^k and the squares of primes q
    powers = [q**k for q in (2, 3) for k in range(1, 14)] + [int(q) ** 2 for q in table.primes[table.primes < 100]]
    drawn = random.Random(29).sample(range(3, top + 1), 1000)
    ts = set(range(3, 1500)) | {v + s for v in powers for s in (-2, 2) if 3 <= v + s <= top} | set(drawn)
    assert {t % 4 for t in drawn} == {0, 1, 2, 3}
    for t in sorted(ts):
        assert trace_decompositions(t, table) == oracles.scan_splittings(t), t
    # the table's last line is t = limit - 2; past it t - 2 is in the table
    # and t + 2 is not, for an odd and an even t
    assert trace_decompositions(TABLE.limit - 2, TABLE) == oracles.scan_splittings(TABLE.limit - 2)
    for t in (TABLE.limit - 1, TABLE.limit):
        with pytest.raises(ValueError, match="exceeds the spf table limit"):
            trace_decompositions(t, TABLE)


def test_matrix_fixes_its_form():
    for t in (3, 7, 18, 51, 100):
        for m, d in trace_decompositions(t, TABLE):
            _, reps = class_number_and_reps(d)
            for form in reps:
                n11, n12, n21, n22 = matrix_from_form(t, m, form)
                assert n11 + n22 == t
                assert n11 * n22 - n12 * n21 == 1
                aa, bb, cc = m * form[0], m * form[1], m * form[2]
                q = lambda x, y: aa * x * x + bb * x * y + cc * y * y
                for v in ((1, 0), (0, 1), (1, 1), (2, -3)):
                    w = (n11 * v[0] + n12 * v[1], n21 * v[0] + n22 * v[1])
                    assert q(*w) == q(*v), (t, m, form)


def test_census_x50_hand_value():
    # every (t, m, D) for x = 50 worked out by hand:
    # t=3:(1,5) h=1 tau=3; t=4:(1,12) h=2 tau=4; t=5:(1,21) h=2 tau=5;
    # t=6:(1,32) h=2 and (2,8) h=1, both tau=6; t=7:(1,45) h=2 tau=7
    # and (3,5) h=1 tau=3.
    want = [0.0] * 5
    want[3] += 1 * 2 * math.acosh(1.5)
    want[4] += 2 * 2 * math.acosh(2.0)
    want[0] += 2 * 2 * math.acosh(2.5)
    want[1] += 2 * 2 * math.acosh(3.0) + 1 * 2 * math.acosh(3.0)
    want[2] += 2 * 2 * math.acosh(3.5) + 1 * 2 * math.acosh(1.5)
    res = run_census(RunConfig(p=5, norm_bounds=(50,)))
    assert res.trace_bounds == (7,)
    np.testing.assert_allclose(res.psi[0], want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("p", [2, 5])
def test_census_against_discriminant_scan(p):
    x = 400
    res = run_census(RunConfig(p=p, norm_bounds=(x,)))
    want, want_total = oracles.psi_by_discriminant_scan(x, p)
    np.testing.assert_allclose(res.psi[0], want, rtol=1e-9)
    assert abs(res.psi_total()[0] - want_total) < 1e-9 * want_total


def test_checkpoints_match_individual_runs():
    xs = (40, 100, 700, 2500)
    combined = run_census(RunConfig(p=7, norm_bounds=xs))
    for i, x in enumerate(xs):
        single = run_census(RunConfig(p=7, norm_bounds=(x,)))
        assert np.array_equal(combined.psi[i], single.psi[0]), x


def test_tiny_bound_has_empty_census():
    res = run_census(RunConfig(p=3, norm_bounds=(2, 6, 50)))
    assert np.all(res.psi[0] == 0.0)
    assert np.all(res.psi[1] == 0.0)
    assert res.psi[2].sum() > 0


def test_worker_count_does_not_change_bits():
    cfg1 = RunConfig(p=7, norm_bounds=(150, 4000), workers=1)
    cfg3 = RunConfig(p=7, norm_bounds=(150, 4000), workers=3)
    r1 = run_census(cfg1)
    r3 = run_census(cfg3)
    assert np.array_equal(r1.psi, r3.psi)


def test_worker_count_does_not_change_bits_with_classes():
    kw = dict(p=5, norm_bounds=(120, 3000), resolve_classes=True)
    r1 = run_census(RunConfig(workers=1, **kw))
    r4 = run_census(RunConfig(workers=4, **kw))
    assert np.array_equal(r1.psi, r4.psi)
    assert np.array_equal(r1.class_psi, r4.class_psi)


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(1, 3000),
    p=st.sampled_from([2, 3, 5, 7]),
    resolve=st.booleans(),
    data=st.data(),
)
def test_lines_in_any_order_give_identical_bits(x, p, resolve, data):
    extra = data.draw(st.sets(st.integers(1, x), max_size=3))
    config = RunConfig(p=p, norm_bounds=tuple(sorted(extra | {x})), resolve_classes=resolve)
    tbounds = tuple(trace_bound(xi) for xi in config.norm_bounds)
    classes = sl2fp.class_list(p) if resolve else ()
    order = data.draw(st.permutations(range(3, tbounds[-1] + 1)))
    rows = {t: census._weigh_block([config], TABLE, range(t, t + 1))[0][0] for t in order}
    psi, cls = census._reduce([rows[t] for t in sorted(rows)], tbounds, p, classes)
    for workers in (1, 2, 3):
        res = run_census(dataclasses.replace(config, workers=workers))
        assert res.trace_bounds == tbounds
        assert psi.tobytes() == res.psi.tobytes()
        if resolve:
            assert cls.tobytes() == res.class_psi.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    x=st.integers(1, 3 * 10**4),
    p=st.sampled_from([2, 3, 5, 7]),
    resolve=st.booleans(),
    budget=st.sampled_from([1, 500, 5000, 2**16, 10**12]),
)
def test_results_do_not_depend_on_blocks_or_workers(x, p, resolve, budget):
    # budget 1 makes every line its own block and 10**12 puts the whole run
    # in one block; the pooled run sees the same blocks
    config = RunConfig(p=p, norm_bounds=tuple(sorted({max(1, x // 7), x})), resolve_classes=resolve)
    want = run_census(config)
    with mock.patch.object(census, "BLOCK_ELEMENTS", budget):
        blocks = census._blocks(want.trace_bounds[-1])
        assert [t for block in blocks for t in block] == list(range(3, want.trace_bounds[-1] + 1))
        if budget == 1:
            assert all(len(block) == 1 for block in blocks)
        if budget == 10**12:
            assert len(blocks) <= 1
        for workers in (1, 2):
            got = run_census(dataclasses.replace(config, workers=workers))
            assert got.psi.tobytes() == want.psi.tobytes()
            if resolve:
                assert got.class_psi.tobytes() == want.class_psi.tobytes()


# (p, resolve_classes) of one batch; p = 2 first and without classes, so a
# batch that gave every config the first config's shares would show
MIXED_BATCH = ((2, False), (3, True), (5, False), (13, True), (101, True))


def _assert_batch_matches_single_runs(norm_bounds, workers=1):
    configs = [RunConfig(p=p, norm_bounds=norm_bounds, workers=workers, resolve_classes=resolve)
               for p, resolve in MIXED_BATCH]
    batch = census.run_censuses(configs)
    assert [res.config for res in batch] == configs
    for config, got in zip(configs, batch):
        want = run_census(config)
        assert (got.trace_bounds, got.table_limit) == (want.trace_bounds, want.table_limit)
        assert got.psi.tobytes() == want.psi.tobytes(), config.p
        if config.resolve_classes:
            assert got.class_psi.tobytes() == want.class_psi.tobytes(), config.p
        else:
            assert got.class_psi is None and want.class_psi is None


@pytest.mark.parametrize("x", [10**3, 3 * 10**5])
def test_mixed_batch_matches_one_run_per_config(x):
    # the configs of a batch share each block's series pass, and each takes
    # its own class shares, which differ between primes on lines such as
    # t = 7 (p = 3 divides F), t = 23 (5 divides F) and t = 11 (D0 = 13)
    _assert_batch_matches_single_runs((x // 10, x))


@pytest.mark.parametrize("workers", [1, 2])
def test_mixed_batch_matches_one_run_per_config_in_a_pool(monkeypatch, real_pool, workers):
    # the blocks are cut in this process, so the patch needs no forked pool
    monkeypatch.setattr(census, "BLOCK_ELEMENTS", 2**14)
    assert len(census._blocks(trace_bound(3 * 10**5))) > 10
    _assert_batch_matches_single_runs((3 * 10**4, 3 * 10**5), workers)
    # one pool for the batch, and one for each of its five single runs
    assert real_pool == ([2] * 6 if workers > 1 else [])


def test_batch_takes_one_series_pass_per_block_and_walks_per_prime(monkeypatch):
    calls = Counter()

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(lfunctions, "cohen_series", counted("series", lfunctions.cohen_series))
    monkeypatch.setattr(census, "trace_decompositions", counted("walk", census.trace_decompositions))
    configs = [RunConfig(p=p, norm_bounds=(10**4, 10**6)) for p in (3, 5, 7)]
    results = census.run_censuses(configs)
    t_max = results[0].trace_bounds[-1]
    assert calls == {"series": len(census._blocks(t_max)), "walk": 3 * (t_max - 2)}
    assert calls["series"] > 1


def test_block_series_is_bitwise_l_value_on_every_line_to_1e6():
    # and every line weight is 2 n sqrt(D0) L(1, chi_D0) with L the one-row
    # l_value, n the splittings' Euler multiplier sum, rounded in that order
    config = RunConfig(p=3, norm_bounds=(10**6,))
    blocks = census._blocks(trace_bound(10**6))
    assert len(blocks) > 1
    for block in blocks:
        splittings = {t: trace_decompositions(t, TABLE) for t in block}
        d0 = {t: s[-1][1] for t, s in splittings.items()}
        series = lfunctions.cohen_series([d0[t] for t in block], TABLE)
        [rows] = census._weigh_block([config], TABLE, block)
        for t, value, (w,) in zip(block, series, rows):
            lval = lfunctions.l_value(d0[t], TABLE)
            assert (value / math.sqrt(d0[t])).hex() == lval.hex(), t
            m0 = splittings[t][-1][0]
            n = sum(lfunctions.euler_multiplier(d0[t], m0 // m, TABLE) for m, _ in splittings[t])
            assert w.hex() == (2.0 * n * math.sqrt(d0[t]) * lval).hex(), t


class _StubPool:
    """Stands in for ProcessPoolExecutor: records how it was made and used,
    and weighs the blocks in this process, or interrupts after the first."""

    made: list = []
    interrupt = False

    def __init__(self, max_workers, **kwargs):
        self.max_workers = max_workers
        self.kwargs = kwargs
        self.cancelled = None
        _StubPool.made.append(self)

    def map(self, fn, blocks, chunksize=1):
        for block in blocks:
            yield fn(block)
            if self.interrupt:
                raise KeyboardInterrupt

    def shutdown(self, wait=True, cancel_futures=False):
        self.cancelled = cancel_futures


@pytest.fixture
def stub_pool(monkeypatch):
    monkeypatch.setattr(_StubPool, "made", [])
    monkeypatch.setattr(_StubPool, "interrupt", False)
    monkeypatch.setattr(census, "ProcessPoolExecutor", _StubPool)
    return _StubPool


def test_pool_never_exceeds_blocks_or_cpus(stub_pool, monkeypatch):
    # a pool gets at least POOL_BLOCKS blocks per process, or is not made:
    # one block and 2 POOL_BLOCKS - 1 blocks weigh in this process however
    # many workers are asked for
    monkeypatch.setattr(census, "usable_cpus", lambda: 64)
    for x, blocks in ((10**4, 1), (600_000, 2 * census.POOL_BLOCKS - 1), (10**6, 31)):
        serial = run_census(RunConfig(p=5, norm_bounds=(x,)))
        assert len(census._blocks(serial.trace_bounds[-1])) == blocks
        for workers in (2, 8):
            pooled = run_census(RunConfig(p=5, norm_bounds=(x,), workers=workers))
            assert pooled.psi.tobytes() == serial.psi.tobytes()
            procs = min(workers, blocks // census.POOL_BLOCKS, 64)
            assert [pool.max_workers for pool in stub_pool.made] == ([procs] if procs > 1 else [])
            stub_pool.made.clear()
    # x = 10**9 has about 25 000 blocks, so the CPU count caps the pool; the
    # stub stops after one block and nothing else is weighed
    monkeypatch.setattr(census, "usable_cpus", lambda: 4)
    stub_pool.interrupt = True
    with pytest.raises(KeyboardInterrupt, match=r"^trace lines t=135\.\.31622 were not weighed$"):
        run_census(RunConfig(p=5, norm_bounds=(10**9,), workers=100000))
    pool = stub_pool.made[-1]
    assert pool.max_workers == census.usable_cpus()
    assert pool.cancelled is True
    assert pool.kwargs == {"initializer": census._ignore_interrupt}


def test_pool_counts_cpus_without_sched_getaffinity(stub_pool, monkeypatch):
    # os.sched_getaffinity exists only on some Unix systems, such as Linux
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    config = RunConfig(p=5, norm_bounds=(10**6,))
    pooled = run_census(dataclasses.replace(config, workers=8))
    assert pooled.psi.tobytes() == run_census(config).psi.tobytes()
    assert [pool.max_workers for pool in stub_pool.made] == [3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert census.usable_cpus() == 1


def test_pool_workers_leave_ctrl_c_to_the_parent(monkeypatch, real_pool):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched function reaches pool workers only when they fork")
    real = census.trace_decompositions

    def checked(t, table):
        if signal.getsignal(signal.SIGINT) is not signal.SIG_IGN:
            raise AssertionError("a pool worker would take Ctrl-C")
        return real(t, table)

    monkeypatch.setattr(census, "trace_decompositions", checked)
    run_census(RunConfig(p=3, norm_bounds=(10**5,), workers=2))
    assert real_pool == [2]


def test_class_resolution_consistency():
    res = run_census(RunConfig(p=5, norm_bounds=(500, 2000), resolve_classes=True))
    classes = sl2fp.class_list(5)
    assert res.class_psi.shape == (2, len(classes))
    # grouping the class masses by trace residue recovers psi
    for i in range(2):
        by_trace = [0.0] * 5
        for k, cls in enumerate(classes):
            by_trace[cls.trace] += res.class_psi[i, k]
        np.testing.assert_allclose(by_trace, res.psi[i], rtol=1e-9)
        np.testing.assert_allclose(
            res.class_psi[i].sum(), res.psi[i].sum(), rtol=1e-9
        )


def test_class_resolved_run_without_lines_is_all_zero(capsys):
    # T = 2 at both bounds, so no line is weighed and every mass is 0.0
    for p in (2, 3, 5):
        res = run_census(RunConfig(p, norm_bounds=(1, 6), resolve_classes=True))
        assert res.trace_bounds == (2, 2)
        assert res.psi.shape == (2, p) and np.all(res.psi == 0.0), p
        assert res.class_psi.shape == (2, len(sl2fp.class_list(p))) and np.all(res.class_psi == 0.0), p
    assert cli.main(["by-class", "--x", "1", "--p", "2"]) == 0
    capsys.readouterr()


def test_folded_masses():
    res = run_census(RunConfig(p=7, norm_bounds=(1000,)))
    fold = res.folded()
    for a in range(7):
        assert fold[0, a] == fold[0, (-a) % 7]
        assert abs(fold[0, a] - 0.5 * (res.psi[0, a] + res.psi[0, (-a) % 7])) < 1e-15


def test_required_table_limit_covers_run():
    x = 2500
    table = build_spf_table(required_table_limit(x))
    res = run_census(RunConfig(p=3, norm_bounds=(x,)))
    assert res.table_limit == table.limit
    assert res.psi_total()[0] > 0


def test_required_table_limit_is_backend_free():
    # the L-value needs no sieve to T^2, so there is no upper cliff
    for x in (2500, 6 * 10**4, 4 * 10**8, 10**9):
        t = trace_bound(x)
        assert required_table_limit(x, "analytic") == required_table_limit(x) == max(4 * t + 16, 64)


def test_line_ends_with_fundamental_splitting():
    # the line weight reads D0 off the last (largest m) splitting
    for t in range(3, 1500):
        m0, d0 = trace_decompositions(t, TABLE)[-1]
        assert lfunctions.fundamental_part(d0, TABLE) == (d0, 1), t
        assert m0 * m0 * d0 == t * t - 4


def _weight_by_cycles(t, table=TABLE):
    """Sum of h(D) * 2 log eps_D over the splittings of line t: cycles x units."""
    return math.fsum(2.0 * line_weight(d) for _, d in trace_decompositions(t, table))


def _weighed_lines(config):
    """(t, row) for every line up to the last bound, weighed block by block."""
    for block in census._blocks(trace_bound(config.norm_bounds[-1])):
        yield from zip(block, census._weigh_block([config], TABLE, block)[0])


def _line_class_masses(t, row, p, classes):
    """Line t's part of each class mass, from the row columns the class owns."""
    picks = census._class_columns(p)
    return [math.fsum(row[j] for j in picks.get(c.label, (0,))) if c.trace == t % p else 0.0
            for c in classes]


def test_every_line_weight_matches_cycles_times_units():
    # a run without classes carries the weight alone on each line
    config = RunConfig(p=3, norm_bounds=(10**6,))
    worst = 0.0
    for t, (w,) in _weighed_lines(config):
        want = _weight_by_cycles(t)
        worst = max(worst, abs(w - want) / want)
    assert worst <= 1e-14


# lines past x = 10^6, by the path chi_columns takes for the series of
# their fundamental part D0: the residue table (at most RESIDUE_TOP terms),
# Euler's criterion in uint32 (below 2^16 terms) and in uint64.  Each path
# holds the first four t that random.Random(26).randrange(1200, 31000)
# drew for it, in 46 draws.
FAR_LINES = {
    "table": (2567, 7922, 20341, 26248),
    "uint32": (7843, 15370, 19026, 22810),
    "uint64": (20885, 25687, 25701, 30911),
}


def test_far_line_weights_and_shares_match_cycles_times_units(monkeypatch):
    # each line is weighed as a block of one, so its own series picks the
    # path; D reaches 9.6e8, and the oracles walk each D's cycles once
    monkeypatch.setattr(quadforms, "class_cycles", functools.cache(quadforms.class_cycles))
    table = build_spf_table(4 * 31000 + 16)
    worst = 0.0
    for path, lines in FAR_LINES.items():
        for t in lines:
            n = lfunctions.series_length(trace_decompositions(t, table)[-1][1])
            assert path == ("table" if n <= lfunctions.RESIDUE_TOP else "uint32" if n < 2**16 else "uint64"), t
            want = _weight_by_cycles(t, table)
            for p in (3, 5):
                config = RunConfig(p=p, norm_bounds=(10,), resolve_classes=True)
                [[row]] = census._weigh_block([config], table, range(t, t + 1))
                worst = max(worst, abs(row[0] - want) / want)
                if t % p not in (2 % p, -2 % p):
                    continue
                classes = sl2fp.class_list(p)
                refs = oracles.class_split_by_cycles(t, p, {c.label: i for i, c in enumerate(classes)}, table)
                for c, got, ref in zip(classes, _line_class_masses(t, row, p, classes), refs):
                    assert (got == 0.0) == (ref == 0.0), (t, p, c.label)
                    worst = max(worst, abs(got - ref) / ref if ref else 0.0)
    assert worst <= 1e-14


@pytest.mark.parametrize("p", [3, 5])
def test_analytic_backend_matches_exact(p):
    # a run that asks for the analytic backend matches the exact per-line
    # oracle: sum of h(D) * 2 log eps_D over the splittings (cycles x units)
    x = 10**5
    res = run_census(RunConfig(p=p, norm_bounds=(x,), backend="analytic", delta_switch=10))
    weights = {t: _weight_by_cycles(t) for t in range(3, trace_bound(x) + 1)}
    want = [math.fsum(w for t, w in weights.items() if t % p == a) for a in range(p)]
    np.testing.assert_allclose(res.psi[0], want, rtol=1e-14, atol=0)


def test_analytic_backend_worker_count_does_not_change_bits():
    kw = dict(p=5, norm_bounds=(3000, 20000), backend="analytic", delta_switch=50)
    r1 = run_census(RunConfig(workers=1, **kw))
    r2 = run_census(RunConfig(workers=2, **kw))
    assert r1.psi.tobytes() == r2.psi.tobytes()


def test_backend_fields_change_nothing():
    kw = dict(p=5, norm_bounds=(3000, 20000), resolve_classes=True)
    plain = run_census(RunConfig(**kw))
    for backend, switch in (("analytic", 50), ("exact", 10)):
        other = run_census(RunConfig(backend=backend, delta_switch=switch, **kw))
        assert other.psi.tobytes() == plain.psi.tobytes()
        assert other.class_psi.tobytes() == plain.class_psi.tobytes()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 29])
def test_genus_rule_matches_cycle_walk(p):
    # off t = +-2 (mod p) every cycle lies in the one class of trace t mod p,
    # which _reduce gives the residue's mass; on it, half of the doubled
    # shares in each class's columns is, exactly, the sum over the line's
    # splittings of their Euler multipliers spread over their cycles' classes
    classes = sl2fp.class_list(p)
    trace = {c.label: c.trace for c in classes}
    picks = census._class_columns(p)
    d0_is_p, p_divides_f = set(), set()
    for t in range(3, 700):
        splittings = trace_decompositions(t, TABLE)
        f, d0 = splittings[-1]
        if d0 == p:
            d0_is_p.add(t)
            if f % p == 0:
                p_divides_f.add(t)
        shared = t % p in (2 % p, -2 % p)
        want = Counter()
        for m, d in splittings:
            walked = oracles.cycle_classes(t, m, d, p)
            if not shared:
                [alone] = [c.label for c in classes if c.trace == t % p]
                assert set(walked) == {alone}, (t, m, d)
                continue
            mult = lfunctions.euler_multiplier(d0, f // m, TABLE)
            for label in walked:
                want[label] += Fraction(mult, len(walked))
        if not shared:
            continue
        _, _, doubled = census._weigh_line(t, TABLE, p)
        got = {label: Fraction(sum(doubled[j - 1] for j in cols), 2)
               for label, cols in picks.items() if trace[label] == t % p}
        assert {label: n for label, n in got.items() if n} == want, t
    # the lines with D0 = p, where the genus character is trivial; on
    # t = 123, 123^2 - 4 = 5 * 55^2, p also divides F
    assert d0_is_p >= {5: {3, 7, 18, 47, 123}, 13: {11}}.get(p, set())
    assert p_divides_f >= {5: {123}}.get(p, set())


def test_line_multiplier_sum_is_one_euler_product():
    # for every t < 20000, with t*t - 4 = D0 * F^2: the splittings' Euler
    # multipliers sum to the product of euler_terms' local sums over q^k || F,
    # and weighted by chi_D0(m) they sum to F, the twist of a line's classes
    # when D0 = p.  The doubled shares are 2 (total - kept), kept + twist and
    # kept - twist, kept the sum over the splittings with p not dividing m.
    table = build_spf_table(20016)
    for t in range(3, 20000):
        splittings = trace_decompositions(t, table)
        f, d0 = splittings[-1]
        mults = {m: lfunctions.euler_multiplier(d0, f // m, table) for m, _ in splittings}
        assert sum(n * kronecker(d0, m) for m, n in mults.items()) == f, t
        total, kept = sum(mults.values()), sum(n for m, n in mults.items() if m % 5)
        twist = f if d0 == 5 else 0
        assert census._weigh_line(t, table, 5) == (d0, total, (2 * (total - kept), kept + twist, kept - twist)), t


@pytest.mark.parametrize("p", [3, 5])
def test_every_class_share_matches_cycles_times_units(p):
    config = RunConfig(p=p, norm_bounds=(10**6,), resolve_classes=True)
    classes = sl2fp.class_list(p)
    label_index = {c.label: i for i, c in enumerate(classes)}
    worst = 0.0
    for t, row in _weighed_lines(config):
        want = oracles.class_split_by_cycles(t, p, label_index, TABLE)
        # off t = +-2 (mod p) the line goes whole to the one class of its residue
        for c, got, ref in zip(classes, _line_class_masses(t, row, p, classes), want):
            assert (got == 0.0) == (ref == 0.0), t
            worst = max(worst, abs(got - ref) / ref if ref else 0.0)
    assert worst <= 1e-14


def test_no_census_run_walks_forms_or_recovers_units(monkeypatch, capsys):
    # the census, by-class and psi runs call nothing of the class-cycle
    # route, and the L-value module binds nothing from quadforms
    calls = []

    def record(name, real):
        def wrapper(*args, **kwargs):
            calls.append((name, args))
            return real(*args, **kwargs)

        return wrapper

    route = [(quadforms, name) for name, value in vars(quadforms).items()
             if not name.startswith("_") and inspect.isfunction(value) and value.__module__ == quadforms.__name__]
    for module, name in route + [(census, "line_weight")]:
        real = getattr(module, name)
        wrapper = record(name, real)
        monkeypatch.setattr(module, name, wrapper)
        if getattr(census, name, None) is real:
            monkeypatch.setattr(census, name, wrapper)
    assert len(route) >= 8
    for argv in (["census", "--p", "3", "--p", "5"], ["by-class", "--p", "3"], ["psi"]):
        assert cli.main(argv + ["--x", "20000", "--threads", "1"]) == 0
    capsys.readouterr()
    assert calls == []
    assert [name for name, value in vars(lfunctions).items()
            if value is quadforms or getattr(value, "__module__", None) == quadforms.__name__] == []


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(p=4, norm_bounds=(100,))
    with pytest.raises(ValueError):
        RunConfig(p=5, norm_bounds=())
    with pytest.raises(ValueError):
        RunConfig(p=5, norm_bounds=(100, 100))
    with pytest.raises(ValueError):
        RunConfig(p=5, norm_bounds=(200, 100))
    with pytest.raises(ValueError):
        RunConfig(p=5, norm_bounds=(100,), workers=0)
    with pytest.raises(ValueError):
        RunConfig(p=5, norm_bounds=(100,), backend="digamma")
    # every run takes the same route, so no backend refuses class resolution
    RunConfig(p=5, norm_bounds=(100,), backend="analytic", resolve_classes=True)
    with pytest.raises(ValueError):
        trace_decompositions(2, TABLE)
    with pytest.raises(ValueError):
        trace_bound(0)


def test_batch_validation():
    with pytest.raises(ValueError, match="at least one"):
        census.run_censuses([])
    base = RunConfig(p=3, norm_bounds=(100, 1000))
    for field, value in (("norm_bounds", (1000,)), ("workers", 2)):
        with pytest.raises(ValueError, match=field):
            census.run_censuses([base, dataclasses.replace(base, p=5, **{field: value})])
    # p, resolve_classes and the two fields that choose nothing may differ
    census.run_censuses([base, dataclasses.replace(base, p=5, resolve_classes=True, backend="analytic")])


def test_ratio_drifts_toward_one():
    res = run_census(RunConfig(p=3, norm_bounds=(200, 2000, 20000)))
    ratios = res.psi_total() / np.array(res.config.norm_bounds, dtype=float)
    gaps = np.abs(ratios - 1.0)
    assert gaps[2] < gaps[0]
    assert gaps[2] < 0.05
