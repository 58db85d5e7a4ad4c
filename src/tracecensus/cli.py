"""Command line front end.

Subcommands: census (residue-mass series), classes (conjugacy tables),
by-class (class-resolved census), fit (error exponent from a stored
series), psi (totals only).

Each subcommand returns its report as text, or raises; main writes the
report once, to --out or to stdout.  Exit codes: 0 success; 1 a failing
trace line (RuntimeError); 2 an option the parser rejects, or a bad
argument value or file (ValueError or OSError); 130 interrupted by Ctrl-C.
Past the parser, every failure is one line on stderr ("error: ..." or
"interrupted: ...") and writes no report.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from . import __version__
from .analysis import class_report, density_rows, error_exponent_fit
from .census import POOL_BLOCKS, RunConfig, run_census, run_censuses
from .sl2fp import class_list, class_mass, group_order

CSV_HEADER = "x,p,a,psi_a,psi_pm,predicted,abs_err,rel_err"
CLASS_FIELDS = ("label", "trace", "size", "centralizer", "mass_num", "mass_den")


def _label_str(label) -> str:
    return ":".join(str(part) for part in label)


def _checkpoint_grid(x_max: int, count: int) -> tuple[int, ...]:
    """Geometric grid of integer checkpoints from 100 to x_max."""
    if x_max < 1:
        raise ValueError("x must be positive")
    if count < 1:
        raise ValueError("checkpoints must be positive")
    # the top point is x_max itself: in floats it can land on either side
    top = count - 1
    pts = {min(x_max, round(100.0 * (x_max / 100.0) ** (k / top))) for k in range(top)}
    return tuple(sorted(pts | {x_max}))


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
            {"x": x, "psi": psi, "ratio": psi / x}
            for x, psi in zip(res.config.norm_bounds, map(float, res.psi_total()))
        ]
        entry = {
            "p": res.config.p,
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
                lines.append("%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g" % (
                    x, p, row.a, row.psi_a, row.psi_pm, float(row.predicted), row.abs_err, row.rel_err))
    return "\n".join(lines) + "\n"


def _cmd_census(args) -> str:
    primes = args.p or [5]
    if len(set(primes)) < len(primes):
        raise ValueError("repeated --p in %s" % ", ".join(map(str, primes)))
    xs = _checkpoint_grid(args.x, args.checkpoints)
    results = run_censuses([RunConfig(p=p, norm_bounds=xs, workers=args.threads) for p in primes])
    if args.format == "csv":
        return _series_csv(results)
    return json.dumps(_series_doc(results), indent=1) + "\n"


def _cmd_classes(args) -> str:
    p = args.p
    masses = class_mass(p)
    rows = [
        (_label_str(c.label), c.trace, c.size, c.centralizer,
         masses[c.label].numerator, masses[c.label].denominator)
        for c in class_list(p)
    ]
    if args.format == "json":
        doc = {
            "p": p,
            "group_order": group_order(p),
            "classes": [dict(zip(CLASS_FIELDS, row)) for row in rows],
        }
        return json.dumps(doc, indent=1) + "\n"
    if args.format == "csv":
        return "".join(",".join(map(str, row)) + "\n" for row in [CLASS_FIELDS, *rows])
    return (
        "conjugacy classes of SL2(F_%d), order %d\n" % (p, group_order(p))
        + "%-16s %6s %10s %12s %12s\n" % ("label", "trace", "size", "centralizer", "mass")
        + "".join("%-16s %6d %10d %12d %8d/%-6d\n" % row for row in rows)
    )


def _cmd_by_class(args) -> str:
    cfg = RunConfig(
        p=args.p,
        norm_bounds=_checkpoint_grid(args.x, args.checkpoints),
        workers=args.threads,
        resolve_classes=True,
    )
    res = run_census(cfg)
    if args.format == "json":
        return json.dumps(_series_doc([res]), indent=1) + "\n"
    rep = class_report(res)
    return (
        "class-resolved census, p=%d, x=%d\n" % (rep.p, rep.x)
        + "%-16s %6s %14s %14s %8s\n" % ("label", "trace", "empirical", "predicted", "ratio")
        + "".join(
            "%-16s %6d %14.8f %9d/%-6d %8.4f\n"
            % (_label_str(row.label), row.trace, row.empirical,
               row.predicted.numerator, row.predicted.denominator, row.ratio)
            for row in rep.rows
        )
        + "global constant c=%d (worst relative deviation %.4f)\n" % (rep.constant, rep.worst_rel_dev)
    )


def _cmd_psi(args) -> str:
    xs = _checkpoint_grid(args.x, args.checkpoints)
    res = run_census(RunConfig(p=2, norm_bounds=xs, workers=args.threads))
    lines = ["%12s %8s %20s %12s %12s\n" % ("x", "T(x)", "psi", "psi/x", "|psi/x-1|")]
    for x, t, psi in zip(xs, res.trace_bounds, res.psi_total()):
        r = float(psi) / x
        lines.append("%12d %8d %20.8f %12.8f %12.3e\n" % (x, t, psi, r, abs(r - 1)))
    return "".join(lines)


def _cmd_fit(args) -> str:
    points_by_p = _load_error_series(args.infile)
    if not points_by_p:
        raise ValueError("no usable rows in %s" % args.infile)
    missing = sorted(set(args.p or ()) - set(points_by_p))
    if missing:
        raise ValueError("%s has no rows for p=%s" % (args.infile, ",".join(map(str, missing))))
    lines = []
    for p in sorted(set(args.p or points_by_p)):
        try:
            fit = error_exponent_fit(points_by_p[p], min_x=args.min_x)
        except ValueError as exc:
            raise ValueError("p=%d: %s" % (p, exc)) from None
        lines.append(
            "p=%d  beta=%.4f  coeff=%.4g  residual=%.4f  points=%d (dropped %d)\n"
            % (p, fit.beta, fit.coeff, fit.residual, fit.points_used, fit.points_dropped)
        )
    return "".join(lines)


def _load_error_series(path: str) -> dict[int, list[tuple[int, float]]]:
    """Per-prime (x, max-over-a absolute error) points from a stored report.

    A report that lacks a field or holds a value of the wrong shape raises
    ValueError naming the file and the field or the fault.
    """
    by_key: dict[tuple[int, int], float] = {}
    with open(path, newline="") as fh:
        try:
            if path.endswith(".json"):
                doc = json.load(fh)
                rows = [{"p": entry["p"], **row} for entry in doc["series"] for row in entry["rows"]]
            else:
                rows = csv.DictReader(fh)
            for row in rows:
                key = (int(row["p"]), int(row["x"]))
                by_key[key] = max(by_key.get(key, 0.0), float(row["abs_err"]) * key[1])
        except KeyError as exc:
            raise ValueError("%s has no %s field" % (path, exc)) from None
        except (TypeError, ValueError) as exc:
            raise ValueError("%s is not a census series: %s" % (path, exc)) from None
    out: dict[int, list[tuple[int, float]]] = {}
    for (p, x), err in sorted(by_key.items()):
        out.setdefault(p, []).append((x, err))
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later main call.

    It holds no state across parses: the repeatable --p options default to
    None, so each parse starts a fresh list.
    """
    parser = argparse.ArgumentParser(
        prog="tracecensus",
        description="Weighted trace census of hyperbolic classes against SL2(F_p) conjugacy data.",
    )
    parser.add_argument("--version", action="version", version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads(sp):
        sp.add_argument("--threads", type=int, default=1,
                        help="worker processes, at most one per %d blocks of trace lines (default 1)"
                        % POOL_BLOCKS)

    sp = sub.add_parser("census", help="run the residue-mass census")
    sp.add_argument("--x", type=int, required=True, help="norm bound")
    sp.add_argument("--checkpoints", type=int, default=20, help="geometric grid points from 100 to x (default 20)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--p", type=int, action="append", help="prime modulus, repeatable (default 5)")
    add_threads(sp)
    sp.set_defaults(func=_cmd_census)

    sp = sub.add_parser("classes", help="print the conjugacy class table")
    sp.add_argument("--p", type=int, default=5, help="prime modulus (default 5)")
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sp.set_defaults(func=_cmd_classes)

    sp = sub.add_parser("by-class", help="class-resolved census report")
    sp.add_argument("--x", type=int, default=10**4, help="norm bound (default 10000)")
    sp.add_argument("--checkpoints", type=int, default=1, help="geometric grid points (default 1: final bound only)")
    sp.add_argument("--p", type=int, default=3, help="prime modulus (default 3)")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    add_threads(sp)
    sp.set_defaults(func=_cmd_by_class)

    sp = sub.add_parser("fit", help="error-exponent fit from a stored census report")
    sp.add_argument("--in", dest="infile", required=True, help="census report path (.csv or .json)")
    sp.add_argument("--p", type=int, action="append", help="restrict to these primes")
    sp.add_argument("--min-x", type=float, default=100.0, help="exclude checkpoints below this (default 100)")
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("psi", help="totals only")
    sp.add_argument("--x", type=int, required=True, help="norm bound")
    sp.add_argument("--checkpoints", type=int, default=20, help="geometric grid points (default 20)")
    add_threads(sp)
    sp.set_defaults(func=_cmd_psi)

    for sp in sub.choices.values():
        sp.add_argument("--out", help="output path (default stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.func(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        return 0
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        print("interrupted: %s" % exc if str(exc) else "interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
