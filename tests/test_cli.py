import json
import multiprocessing
import os
import re
from importlib import resources

import jsonschema
import pytest

from tracecensus import census, cli, lfunctions, sl2fp
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
def test_failing_trace_line_fails_the_run(capsys, tmp_path, monkeypatch, threads):
    if threads > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched function reaches pool workers only when they fork")
    # D0 = 21 is first the fundamental discriminant of t = 5 (25 - 4 = 21)
    _plant_failure(monkeypatch, lfunctions, "l_value", 21)
    _assert_fails_at_line(capsys, tmp_path, 5,
                          "census", "--x", "3000", "--p", "5", "--threads", str(threads))


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_class_line_fails_by_class(capsys, tmp_path, monkeypatch, threads):
    if threads > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched function reaches pool workers only when they fork")
    # t = 4 = -2 (mod 3) is the first line split between classes; its one
    # splitting (1, 12) is labelled from the matrix -(I + N), N = (0, 0, -1, 0)
    _plant_failure(monkeypatch, sl2fp, "classify", (-1, 0, 1, -1))
    _assert_fails_at_line(capsys, tmp_path, 4,
                          "by-class", "--x", "3000", "--p", "3", "--threads", str(threads))


def test_dead_worker_names_lost_lines(capsys, tmp_path, monkeypatch):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched function reaches pool workers only when they fork")
    real = census.trace_decompositions

    def dying(t, table):
        if t == 40:
            os._exit(1)
        return real(t, table)

    monkeypatch.setattr(census, "trace_decompositions", dying)
    out = tmp_path / "f"
    code, text, err = run(capsys, "census", "--x", "3000", "--p", "5", "--threads", "2",
                          "--out", str(out))
    assert code == 1
    lost = re.fullmatch(r"error: trace lines t=(\d+)\.\.(\d+): a worker process died\n", err)
    assert lost and 3 <= int(lost[1]) <= 40 and int(lost[2]) == census.trace_bound(3000)
    assert text == ""
    assert not out.exists()


def test_removed_backend_options_are_usage_errors(capsys):
    for opt in ("--backend=analytic", "--delta-switch=10"):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--x", "100", opt])
        assert exc.value.code == 2


def test_fit_insufficient_points(capsys, tmp_path):
    out = tmp_path / "short.csv"
    code, _, _ = run(
        capsys, "census", "--x", "300", "--p", "3", "--checkpoints", "2",
        "--out", str(out),
    )
    assert code == 0
    code, _, err = run(capsys, "fit", "--in", str(out))
    assert code == 2
    assert "insufficient" in err


def test_repeated_prime_is_usage_error(capsys, tmp_path, monkeypatch):
    def no_census(config):
        raise AssertionError("a census ran")

    monkeypatch.setattr(cli, "run_census", no_census)
    out = tmp_path / "r.csv"
    code, text, err = run(capsys, "census", "--x", "200", "--p", "3", "--p", "5", "--p", "3",
                          "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert text == ""
    assert not out.exists()


def test_nonprime_modulus_is_usage_error(capsys):
    code, _, err = run(capsys, "census", "--x", "100", "--p", "6")
    assert code == 2
    assert "prime" in err


def test_missing_required_argument_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    assert "invalid choice: 'verify'" in capsys.readouterr().err
