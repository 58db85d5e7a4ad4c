"""Command line front end.

Subcommands: census (residue-mass series), classes (conjugacy tables),
by-class (class-resolved census), fit (error exponent from a stored
series), psi (totals only).

Exit codes: 0 success, 1 a failing trace line (named in one error line,
with no report written), 2 usage or argument error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__
from .analysis import class_report, density_rows, error_exponent_fit
from .census import RunConfig, run_census
from .sl2fp import class_list, class_mass, group_order

CSV_HEADER = "x,p,a,psi_a,psi_pm,predicted,abs_err,rel_err"


def _fmt(v: float) -> str:
    return "%.17g" % v


def _label_str(label) -> str:
    return ":".join(str(part) for part in label)


def _checkpoint_grid(x_max: int, count: int) -> tuple[int, ...]:
    """Geometric grid of integer checkpoints from 100 to x_max."""
    if x_max < 1:
        raise ValueError("x must be positive")
    if count < 1:
        raise ValueError("checkpoints must be positive")
    if x_max <= 100 or count == 1:
        return (x_max,)
    pts = {
        int(round(100.0 * (x_max / 100.0) ** (k / (count - 1))))
        for k in range(count)
    }
    pts.add(x_max)
    return tuple(sorted(pt for pt in pts if pt >= 1))


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _series_doc(results) -> dict:
    cfg = results[0].config
    doc = {
        "format": "census_series",
        "format_version": 3,
        "package_version": __version__,
        "config": {
            "norm_bounds": list(cfg.norm_bounds),
            "workers": cfg.workers,
            "resolve_classes": cfg.resolve_classes,
        },
        "series": [],
    }
    for res in results:
        p = res.config.p
        rows = [
            {
                "x": x,
                "a": row.a,
                "psi_a": row.psi_a,
                "psi_pm": row.psi_pm,
                "predicted": float(row.predicted),
                "predicted_num": row.predicted.numerator,
                "predicted_den": row.predicted.denominator,
                "abs_err": row.abs_err,
                "rel_err": row.rel_err,
            }
            for x, xrows in zip(res.config.norm_bounds, density_rows(res))
            for row in xrows
        ]
        totals = [
            {"x": x, "psi": float(res.psi_total()[i]), "ratio": float(res.psi_total()[i]) / x}
            for i, x in enumerate(res.config.norm_bounds)
        ]
        entry = {
            "p": p,
            "table_limit": res.table_limit,
            "trace_bounds": list(res.trace_bounds),
            "rows": rows,
            "totals": totals,
        }
        if res.class_psi is not None:
            entry["classes"] = [
                {
                    "x": rep.x,
                    "label": _label_str(row.label),
                    "trace": row.trace,
                    "empirical": float(row.empirical),
                    "predicted_num": row.predicted.numerator,
                    "predicted_den": row.predicted.denominator,
                }
                for rep in (class_report(res, i) for i in range(len(res.config.norm_bounds)))
                for row in rep.rows
            ]
        doc["series"].append(entry)
    return doc


def _series_csv(results) -> str:
    lines = [CSV_HEADER]
    for res in results:
        p = res.config.p
        for x, xrows in zip(res.config.norm_bounds, density_rows(res)):
            for row in xrows:
                values = (row.psi_a, row.psi_pm, float(row.predicted), row.abs_err, row.rel_err)
                lines.append("%d,%d,%d," % (x, p, row.a) + ",".join(_fmt(v) for v in values))
    return "\n".join(lines) + "\n"


def _cmd_census(args) -> int:
    primes = args.p or [5]
    if len(set(primes)) < len(primes):
        raise ValueError("repeated --p in %s" % ", ".join(map(str, primes)))
    xs = _checkpoint_grid(args.x, args.checkpoints)
    results = [run_census(RunConfig(p=p, norm_bounds=xs, workers=args.threads)) for p in primes]
    if args.format == "csv":
        _write_text(args.out, _series_csv(results))
    else:
        _write_text(args.out, json.dumps(_series_doc(results), indent=1) + "\n")
    return 0


def _cmd_classes(args) -> int:
    p = args.p
    classes = class_list(p)
    masses = class_mass(p)
    if args.format == "json":
        doc = {
            "p": p,
            "group_order": group_order(p),
            "classes": [
                {
                    "label": _label_str(c.label),
                    "trace": c.trace,
                    "size": c.size,
                    "centralizer": c.centralizer,
                    "mass_num": masses[c.label].numerator,
                    "mass_den": masses[c.label].denominator,
                }
                for c in classes
            ],
        }
        _write_text(args.out, json.dumps(doc, indent=1) + "\n")
        return 0
    if args.format == "csv":
        lines = ["label,trace,size,centralizer,mass_num,mass_den"]
        for c in classes:
            m = masses[c.label]
            lines.append(
                "%s,%d,%d,%d,%d,%d"
                % (_label_str(c.label), c.trace, c.size, c.centralizer, m.numerator, m.denominator)
            )
        _write_text(args.out, "\n".join(lines) + "\n")
        return 0
    buf = io.StringIO()
    buf.write("conjugacy classes of SL2(F_%d), order %d\n" % (p, group_order(p)))
    buf.write("%-16s %6s %10s %12s %12s\n" % ("label", "trace", "size", "centralizer", "mass"))
    for c in classes:
        m = masses[c.label]
        buf.write(
            "%-16s %6d %10d %12d %8d/%-6d\n"
            % (_label_str(c.label), c.trace, c.size, c.centralizer, m.numerator, m.denominator)
        )
    _write_text(args.out, buf.getvalue())
    return 0


def _cmd_by_class(args) -> int:
    cfg = RunConfig(
        p=args.p,
        norm_bounds=_checkpoint_grid(args.x, args.checkpoints),
        workers=args.threads,
        resolve_classes=True,
    )
    res = run_census(cfg)
    if args.format == "json":
        _write_text(args.out, json.dumps(_series_doc([res]), indent=1) + "\n")
        return 0
    rep = class_report(res)
    buf = io.StringIO()
    buf.write("class-resolved census, p=%d, x=%d\n" % (rep.p, rep.x))
    buf.write("%-16s %6s %14s %14s %8s\n" % ("label", "trace", "empirical", "predicted", "ratio"))
    for row in rep.rows:
        buf.write(
            "%-16s %6d %14.8f %9d/%-6d %8.4f\n"
            % (
                _label_str(row.label),
                row.trace,
                row.empirical,
                row.predicted.numerator,
                row.predicted.denominator,
                row.ratio,
            )
        )
    buf.write(
        "global constant c=%d (worst relative deviation %.4f)\n"
        % (rep.constant, rep.worst_rel_dev)
    )
    _write_text(args.out, buf.getvalue())
    return 0


def _cmd_psi(args) -> int:
    xs = _checkpoint_grid(args.x, args.checkpoints)
    cfg = RunConfig(p=2, norm_bounds=xs, workers=args.threads)
    res = run_census(cfg)
    buf = io.StringIO()
    buf.write("%12s %8s %20s %12s %12s\n" % ("x", "T(x)", "psi", "psi/x", "|psi/x-1|"))
    totals = res.psi_total()
    for i, x in enumerate(xs):
        r = float(totals[i]) / x
        buf.write("%12d %8d %20.8f %12.8f %12.3e\n" % (x, res.trace_bounds[i], totals[i], r, abs(r - 1)))
    _write_text(args.out, buf.getvalue())
    return 0


def _cmd_fit(args) -> int:
    points_by_p = _load_error_series(args.infile)
    if not points_by_p:
        print("no usable rows in %s" % args.infile, file=sys.stderr)
        return 2
    buf = io.StringIO()
    for p in sorted(points_by_p):
        if args.p and p not in args.p:
            continue
        try:
            fit = error_exponent_fit(points_by_p[p], min_x=args.min_x)
        except ValueError as exc:
            print("p=%d: %s" % (p, exc), file=sys.stderr)
            return 2
        buf.write(
            "p=%d  beta=%.4f  coeff=%.4g  residual=%.4f  points=%d (dropped %d)\n"
            % (p, fit.beta, fit.coeff, fit.residual, fit.points_used, fit.points_dropped)
        )
    _write_text(args.out, buf.getvalue())
    return 0


def _load_error_series(path: str) -> dict[int, list[tuple[int, float]]]:
    """Per-prime (x, max-over-a absolute error) points from a stored report."""
    by_key: dict[tuple[int, int], float] = {}
    if path.endswith(".json"):
        with open(path) as fh:
            doc = json.load(fh)
        for entry in doc.get("series", []):
            p = entry["p"]
            for row in entry["rows"]:
                key = (p, row["x"])
                err = row["abs_err"] * row["x"]
                by_key[key] = max(by_key.get(key, 0.0), err)
    else:
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                key = (int(row["p"]), int(row["x"]))
                err = float(row["abs_err"]) * int(row["x"])
                by_key[key] = max(by_key.get(key, 0.0), err)
    out: dict[int, list[tuple[int, float]]] = {}
    for (p, x), err in sorted(by_key.items()):
        out.setdefault(p, []).append((x, err))
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracecensus",
        description="Weighted trace census of hyperbolic classes against SL2(F_p) conjugacy data.",
    )
    parser.add_argument("--version", action="version", version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads(sp):
        sp.add_argument("--threads", type=int, default=1, help="worker processes (default 1)")

    sp = sub.add_parser("census", help="run the residue-mass census")
    sp.add_argument("--x", type=int, required=True, help="norm bound")
    sp.add_argument("--checkpoints", type=int, default=20, help="geometric grid points from 100 to x (default 20)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--p", type=int, action="append", help="prime modulus, repeatable (default 5)")
    add_threads(sp)
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=_cmd_census)

    sp = sub.add_parser("classes", help="print the conjugacy class table")
    sp.add_argument("--p", type=int, default=5, help="prime modulus (default 5)")
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=_cmd_classes)

    sp = sub.add_parser("by-class", help="class-resolved census report")
    sp.add_argument("--x", type=int, default=10**4, help="norm bound (default 10000)")
    sp.add_argument("--checkpoints", type=int, default=1, help="geometric grid points (default 1: final bound only)")
    sp.add_argument("--p", type=int, default=3, help="prime modulus (default 3)")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    add_threads(sp)
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=_cmd_by_class)

    sp = sub.add_parser("fit", help="error-exponent fit from a stored census report")
    sp.add_argument("--in", dest="infile", required=True, help="census report path (.csv or .json)")
    sp.add_argument("--p", type=int, action="append", help="restrict to these primes")
    sp.add_argument("--min-x", type=float, default=100.0, help="exclude checkpoints below this (default 100)")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("psi", help="totals only")
    sp.add_argument("--x", type=int, required=True, help="norm bound")
    sp.add_argument("--checkpoints", type=int, default=20, help="geometric grid points (default 20)")
    add_threads(sp)
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=_cmd_psi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
