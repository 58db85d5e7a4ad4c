import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from tracecensus import census, cli, lfunctions
from tracecensus.analysis import density_error_series, error_exponent_fit
from tracecensus.census import RunConfig, run_census
from tracecensus.cli import CSV_HEADER, _checkpoint_grid, _load_error_series, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    ref = resources.files("tracecensus") / "schemas" / "census_series.schema.json"
    return json.loads(ref.read_text())


def test_checkpoint_grid_properties():
    grid = _checkpoint_grid(10**4, 20)
    assert grid[0] == 100
    assert grid[-1] == 10**4
    assert list(grid) == sorted(set(grid))
    assert _checkpoint_grid(50, 20) == (50,)
    assert _checkpoint_grid(10**4, 1) == (10**4,)
    # the top point is x_max, which floats round up (10**50) or down (2**53 + 1)
    for x_max in (2**53 + 1, 10**50):
        grid = _checkpoint_grid(x_max, 12)
        assert grid[-1] == x_max and max(grid) == x_max
        assert len(grid) == 12


def test_census_csv_shape(capsys, tmp_path):
    out = tmp_path / "series.csv"
    code, _, _ = run(
        capsys, "census", "--x", "600", "--p", "3", "--p", "5",
        "--checkpoints", "4", "--format", "csv", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # 4 checkpoints, p=3 gives 3 residue rows and p=5 gives 5, per checkpoint
    assert len(lines) == 1 + 4 * (3 + 5)
    first = lines[1].split(",")
    assert first[0] == "100" and first[1] == "3" and first[2] == "0"
    assert float(first[5]) == 0.25


def test_census_csv_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path, threads in ((a, "1"), (b, "3")):
        code, _, _ = run(
            capsys, "census", "--x", "900", "--p", "5", "--checkpoints", "3",
            "--threads", threads, "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_census_json_matches_schema(capsys, tmp_path):
    out = tmp_path / "series.json"
    code, _, _ = run(
        capsys, "census", "--x", "400", "--p", "3", "--checkpoints", "3",
        "--format", "json", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, load_schema())
    assert doc["format"] == "census_series"
    assert doc["format_version"] == 3
    assert set(doc["config"]) == {"norm_bounds", "workers", "resolve_classes"}
    series = doc["series"][0]
    assert series["p"] == 3
    xs = sorted({row["x"] for row in series["rows"]})
    assert xs[-1] == 400
    for row in series["rows"]:
        assert row["predicted"] == row["predicted_num"] / row["predicted_den"]


def test_by_class_json_and_text(capsys, tmp_path):
    out = tmp_path / "bc.json"
    code, _, _ = run(
        capsys, "by-class", "--x", "400", "--p", "3",
        "--format", "json", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, load_schema())
    assert len(doc["series"][0]["classes"]) == 7

    code, text, _ = run(capsys, "by-class", "--x", "400", "--p", "3")
    assert code == 0
    assert "global constant c=" in text
    assert "nonsplit:0" in text


def test_classes_text_row_count(capsys):
    code, text, _ = run(capsys, "classes", "--p", "5")
    assert code == 0
    rows = text.strip().splitlines()[2:]
    assert len(rows) == 5 + 4


def test_classes_json_masses_sum_to_one(capsys):
    code, text, _ = run(capsys, "classes", "--p", "7", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["group_order"] == 7 * 48
    assert len(doc["classes"]) == 11
    total = sum(
        c["mass_num"] / c["mass_den"] for c in doc["classes"]
    )
    assert total == pytest.approx(1.0)


def test_classes_csv(capsys):
    code, text, _ = run(capsys, "classes", "--p", "2", "--format", "csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "label,trace,size,centralizer,mass_num,mass_den"
    assert len(lines) == 1 + 3


# The class tables are integers and exact fractions only, so their bytes
# cannot depend on the platform or on numpy's CPU dispatch.
CLASSES_SHA256 = {
    (2, "text"): "1c2e63224f3d4e2b803bc109fce9b56361cc5ab7dd9856b6f9cb68137a8445db",
    (2, "csv"): "824136b350f0d571fe7ac01c63a63936027562efc433fdec58b28d42ac444b90",
    (2, "json"): "77120c2ab92e00a380431480fe0e7f6dd3222f2f7f06cdf9ea9b516f839a5c89",
    (3, "text"): "75ef6822bb08b2ccd846d4774fb7395c0cbb632b59e6d28ff1476ea21826f3f6",
    (3, "csv"): "41f35f7ce36f8bc9ea3d05d78ae33103e8de7464b3928a86e719d67d2af7fa8f",
    (3, "json"): "94fbc2cd3b421576bac33157560022b13c63f07ef2d41a28bbed4fd27a24b266",
    (13, "text"): "53a06820b90bea17c7863162b2ad9e53c52b7c5467db6d11a56c1ec6d9f67443",
    (13, "csv"): "a8f39944927e7c749fd57ecfc1c1da82097c65b78405995059cb697652bd8c2c",
    (13, "json"): "2397b45a24b0fbac462e98d660c830f9a48a0db00f7d855ade1ca3bd7ee25d76",
    (101, "text"): "4f66b1b0bf58391ffcc31e912dafe75eb661227bb974b074aae3aba1d4af4d36",
    (101, "csv"): "57eeeadb29071ca3bbefd1c186672d6d14f66522a7c8b129c44b98bb4e3af9e1",
    (101, "json"): "f079c0f736c4446e276e1b793c760c08a09c4c522d5e1a5a5623795cddfc3ecf",
}


@pytest.mark.parametrize("p, fmt", sorted(CLASSES_SHA256))
def test_classes_bytes_pinned(capsys, p, fmt):
    code, text, err = run(capsys, "classes", "--p", str(p), "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(text.encode()).hexdigest() == CLASSES_SHA256[p, fmt]


def test_psi_table(capsys):
    code, text, _ = run(capsys, "psi", "--x", "300", "--checkpoints", "2")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].split() == ["x", "T(x)", "psi", "psi/x", "|psi/x-1|"]
    last = lines[-1].split()
    assert last[0] == "300"
    assert float(last[3]) == pytest.approx(float(last[2]) / 300)


def test_fit_roundtrip(capsys, tmp_path):
    out = tmp_path / "series.csv"
    code, _, _ = run(
        capsys, "census", "--x", "5000", "--p", "3", "--checkpoints", "8",
        "--out", str(out),
    )
    assert code == 0
    code, text, _ = run(capsys, "fit", "--in", str(out))
    assert code == 0
    assert text.startswith("p=3")
    assert "beta=" in text and "points=8" in text
    # the stored rows give back exactly the in-memory series, hence its fit
    res = run_census(RunConfig(p=3, norm_bounds=_checkpoint_grid(5000, 8)))
    pts = density_error_series(res)
    assert _load_error_series(str(out)) == {3: pts}
    fit = error_exponent_fit(pts)
    assert text == "p=3  beta=%.4f  coeff=%.4g  residual=%.4f  points=%d (dropped %d)\n" % (
        fit.beta, fit.coeff, fit.residual, fit.points_used, fit.points_dropped
    )


def test_census_bytes_are_the_same_from_eulers_criterion_alone(tmp_path, monkeypatch):
    # with RESIDUE_TOP = 2 no odd prime is looked up and every chi(q) comes
    # from Euler's criterion, the reference for the residue table
    argv = ["census", "--x", "100000", "--p", "3", "--p", "5", "--p", "7", "--format", "csv", "--out"]
    assert main([*argv, str(tmp_path / "table.csv")]) == 0
    tops = []
    real = lfunctions._residue_table
    monkeypatch.setattr(lfunctions, "RESIDUE_TOP", 2)
    monkeypatch.setattr(lfunctions, "_residue_table", lambda top: tops.append(top) or real(top))
    assert main([*argv, str(tmp_path / "euler.csv")]) == 0
    assert tops and set(tops) <= {1, 2}
    assert (tmp_path / "euler.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()


def _census_report(tmp_path, *argv):
    path = tmp_path / "series.csv"
    assert main(["census", "--p", "3", *argv, "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("command", ["census", "classes", "by-class", "psi", "fit"])
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, command):
    argv = {
        "census": ["census", "--x", "300", "--p", "3", "--p", "5", "--checkpoints", "3"],
        "classes": ["classes", "--p", "7", "--format", "csv"],
        "by-class": ["by-class", "--x", "300", "--p", "3"],
        "psi": ["psi", "--x", "300", "--checkpoints", "2"],
        "fit": ["fit", "--in"],
    }[command]
    if command == "fit":
        argv.append(str(_census_report(tmp_path, "--x", "5000", "--checkpoints", "8")))
    code, first, err = run(capsys, *argv)
    assert code == 0 and err == "" and first
    # the parser is shared across calls, so a second run must not see the first
    code, again, _ = run(capsys, *argv)
    assert code == 0 and again == first
    out = tmp_path / "report"
    code, text, err = run(capsys, *argv, "--out", str(out))
    assert code == 0 and text == "" and err == ""
    assert out.read_bytes() == first.encode()


def test_parser_is_built_once_and_keeps_no_state(capsys):
    cli.build_parser.cache_clear()
    code, text, _ = run(capsys, "census", "--x", "300", "--p", "3", "--checkpoints", "1")
    assert code == 0 and {row.split(",")[1] for row in text.splitlines()[1:]} == {"3"}
    # a census without --p after one with it still takes the default p = 5
    code, text, _ = run(capsys, "census", "--x", "300", "--checkpoints", "1")
    assert code == 0 and {row.split(",")[1] for row in text.splitlines()[1:]} == {"5"}
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_parser_is_not_built_at_import():
    src = Path(cli.__file__).resolve().parents[1]
    code = "import tracecensus.cli as c; print(c.build_parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_fit_without_usable_rows_is_one_error_line(capsys, tmp_path):
    report = tmp_path / "header-only.csv"
    report.write_text(CSV_HEADER + "\n")
    out = tmp_path / "fit.txt"
    code, text, err = run(capsys, "fit", "--in", str(report), "--out", str(out))
    assert code == 2
    assert err == "error: no usable rows in %s\n" % report
    assert text == ""
    assert not out.exists()


def _plant_failure(monkeypatch, module, name, bad_arg):
    real = getattr(module, name)

    def failing(D, *rest):
        if D == bad_arg:
            raise ArithmeticError("planted failure")
        return real(D, *rest)

    monkeypatch.setattr(module, name, failing)


def _assert_fails_at_line(capsys, tmp_path, t, *argv):
    out = tmp_path / "f"
    code, text, err = run(capsys, *argv, "--out", str(out))
    assert code == 1
    assert err == "error: trace line t=%d: planted failure\n" % t
    assert text == ""
    assert not out.exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_trace_line_fails_the_run(capsys, tmp_path, monkeypatch, real_pool, threads):
    if threads > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched function reaches pool workers only when they fork")
    # t = 6 is the first line with two splittings (36 - 4 = 8 * 2^2), so its
    # D0 = 8 is the first to take an Euler factor, a per-line step
    _plant_failure(monkeypatch, lfunctions, "euler_terms", 8)
    monkeypatch.setattr(census, "BLOCK_ELEMENTS", 2**11)  # x = 3000 in 4 blocks
    _assert_fails_at_line(capsys, tmp_path, 6,
                          "census", "--x", "3000", "--p", "5", "--threads", str(threads))
    assert real_pool == ([2] if threads > 1 else [])


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_trace_line_fails_a_multi_prime_run(capsys, tmp_path, monkeypatch, real_pool, threads):
    if threads > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched function reaches pool workers only when they fork")
    # the three primes weigh their lines in one run, which names the line
    # as a run of one prime does
    _plant_failure(monkeypatch, lfunctions, "euler_terms", 8)
    monkeypatch.setattr(census, "BLOCK_ELEMENTS", 2**11)
    _assert_fails_at_line(capsys, tmp_path, 6, "census", "--x", "3000", "--p", "3", "--p", "5", "--p", "7",
                          "--threads", str(threads))
    assert real_pool == ([2] if threads > 1 else [])


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_class_line_fails_by_class(capsys, tmp_path, monkeypatch, real_pool, threads):
    if threads > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched function reaches pool workers only when they fork")
    # t = 7 = -2 (mod 3) is a line split between classes, and the first
    # whose D0 = 5 takes an Euler factor: 49 - 4 = 5 * 3^2
    _plant_failure(monkeypatch, lfunctions, "euler_terms", 5)
    monkeypatch.setattr(census, "BLOCK_ELEMENTS", 2**11)
    _assert_fails_at_line(capsys, tmp_path, 7,
                          "by-class", "--x", "3000", "--p", "3", "--threads", str(threads))
    assert real_pool == ([2] if threads > 1 else [])


def test_dead_worker_names_lost_lines(capsys, tmp_path, monkeypatch, real_pool):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched function reaches pool workers only when they fork")
    real = census.trace_decompositions

    def dying(t, table):
        if t == 40:
            os._exit(1)
        return real(t, table)

    monkeypatch.setattr(census, "trace_decompositions", dying)
    # a worker, not this process, must die: x = 3000 in 4 blocks, and a pool
    monkeypatch.setattr(census, "BLOCK_ELEMENTS", 2**11)
    assert len(census._blocks(census.trace_bound(3000))) == 4
    out = tmp_path / "f"
    code, text, err = run(capsys, "census", "--x", "3000", "--p", "5", "--threads", "2",
                          "--out", str(out))
    assert code == 1
    lost = re.fullmatch(r"error: trace lines t=(\d+)\.\.(\d+): a worker process died\n", err)
    assert lost and 3 <= int(lost[1]) <= 40 and int(lost[2]) == census.trace_bound(3000)
    assert text == ""
    assert not out.exists()
    assert real_pool == [2]


@pytest.mark.parametrize("threads", [1, 2])
def test_ctrl_c_names_unfinished_lines_and_writes_nothing(capsys, tmp_path, monkeypatch, real_pool,
                                                          threads):
    if threads > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched function reaches pool workers only when they fork")
    real = census.trace_decompositions

    def interrupted(t, table):
        if t == 200:
            raise KeyboardInterrupt
        return real(t, table)

    monkeypatch.setattr(census, "trace_decompositions", interrupted)
    # x = 1e5 is the blocks 3..134, 135..215, 216..278 and 279..316, so the
    # block holding t = 200 and every later one are lost
    assert [b[0] for b in census._blocks(census.trace_bound(10**5))] == [3, 135, 216, 279]
    out = tmp_path / "f"
    code, text, err = run(capsys, "census", "--x", "100000", "--p", "5", "--threads", str(threads),
                          "--out", str(out))
    assert code == 130
    assert err == "interrupted: trace lines t=135..316 were not weighed\n"
    assert text == ""
    assert not out.exists()
    assert real_pool == ([2] if threads > 1 else [])


def test_fit_names_primes_missing_from_the_report(capsys, tmp_path):
    out = tmp_path / "s.csv"
    code, _, _ = run(capsys, "census", "--x", "5000", "--p", "3", "--p", "5", "--checkpoints", "8",
                     "--out", str(out))
    assert code == 0
    for primes, missing in ((["11"], "11"), (["3", "13", "11"], "11,13")):
        argv = [arg for p in primes for arg in ("--p", p)]
        code, text, err = run(capsys, "fit", "--in", str(out), *argv)
        assert code == 2
        assert err == "error: %s has no rows for p=%s\n" % (out, missing)
        assert text == ""
    code, text, _ = run(capsys, "fit", "--in", str(out), "--p", "5")
    assert code == 0 and text.startswith("p=5")


@pytest.mark.parametrize("name, body, complaint", [
    ("no-p.csv", "x,a,abs_err\n100,0,0.5\n", "has no 'p' field"),
    ("no-abs-err.json", '{"series": [{"p": 3, "rows": [{"x": 100, "a": 0}]}]}', "has no 'abs_err' field"),
    ("list.json", "[1, 2]", "is not a census series: "),
    ("short-row.csv", "x,p,a,abs_err\n100,3\n", "is not a census series: "),
    ("text-abs-err.csv", "x,p,a,abs_err\n100,3,0,abc\n",
     "is not a census series: could not convert string to float: 'abc'"),
], ids=["csv-without-p", "json-row-without-abs-err", "json-list", "csv-short-row", "csv-text-abs-err"])
def test_fit_on_a_malformed_report_is_one_error_line(capsys, tmp_path, name, body, complaint):
    path = tmp_path / name
    path.write_text(body)
    code, text, err = run(capsys, "fit", "--in", str(path))
    assert code == 2
    assert err.startswith("error: %s %s" % (path, complaint)) and err.count("\n") == 1
    assert text == ""


def test_removed_backend_options_are_usage_errors(capsys):
    for opt in ("--backend=analytic", "--delta-switch=10"):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--x", "100", opt])
        assert exc.value.code == 2


def test_fit_insufficient_points(capsys, tmp_path):
    report = _census_report(tmp_path, "--x", "300", "--checkpoints", "2")
    out = tmp_path / "fit.txt"
    code, text, err = run(capsys, "fit", "--in", str(report), "--out", str(out))
    assert code == 2
    assert err == "error: p=3: insufficient data: 2 usable points, need at least 4\n"
    assert text == ""
    assert not out.exists()


def test_repeated_prime_is_usage_error(capsys, tmp_path, monkeypatch):
    def no_census(configs):
        raise AssertionError("a census ran")

    monkeypatch.setattr(cli, "run_censuses", no_census)
    out = tmp_path / "r.csv"
    code, text, err = run(capsys, "census", "--x", "200", "--p", "3", "--p", "5", "--p", "3",
                          "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert text == ""
    assert not out.exists()


@pytest.mark.parametrize("x", ["10" + "0" * 29, "10" + "0" * 49])
@pytest.mark.parametrize("command", ["census", "psi", "by-class"])
def test_oversize_x_is_one_error_line(capsys, command, x):
    # the spf table for these x cannot be allocated: 10^30 asks for about
    # 3.2e16 bytes (MemoryError), 10^50 for more than an index can hold
    # (OverflowError); both fail at the request, before any memory is touched
    code, text, err = run(capsys, command, "--x", x)
    assert code == 2
    assert re.fullmatch(r"error: spf table limit \d+ is too large to allocate\n", err), err
    assert text == ""


def test_nonprime_modulus_is_usage_error(capsys):
    code, _, err = run(capsys, "census", "--x", "100", "--p", "6")
    assert code == 2
    assert "prime" in err


def test_census_runs_without_scipy():
    # scipy is a test dependency only; a fresh interpreter running a census
    # must not load any of it
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys, tracecensus.cli\n"
        "assert tracecensus.cli.main(['census', '--x', '1000']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("x,p,a,")
    assert proc.stderr.strip() == "[]"


def test_missing_required_argument_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    assert "invalid choice: 'verify'" in capsys.readouterr().err
