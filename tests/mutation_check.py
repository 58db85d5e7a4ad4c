"""Mutation check: each one-line mutant of src/ must fail the tests named here.

Copies src/ to a temporary directory, runs the tests against the unmutated
copy (they must pass), then applies each mutant in turn and runs them again
(they must fail).  Exits 0 when every mutant is killed, 1 otherwise.

    python tests/mutation_check.py

Not a pytest module: it runs pytest once per mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/tracecensus, line text, its mutant)
MUTANTS = [
    # the row sums of cohen_series: plain sum where fsum is due (small
    # blocks and uncertified rows), sigma one power of two lower, so that
    # tau can round, and every row kept without the lo == hi test.  Halving
    # err or dropping both nextafter widenings are equivalent mutants and
    # are left out: err = 2 n^2 2^-106 sigma is twice gamma_(n-1) n 2^-53
    # sigma, so half of it still bounds the error of the r sum, and the
    # other half covers the rounding of r -/+ err that nextafter steps over.
    ("lfunctions.py",
     "        sums[i] = math.fsum(rows[bounds[i] : bounds[i + 1]])",
     "        sums[i] = sum(rows[bounds[i] : bounds[i + 1]])"),
    ("lfunctions.py",
     "            shift = np.frexp(top)[1] + np.frexp(counts + 2.0)[1]",
     "            shift = np.frexp(top)[1] + np.frexp(counts + 2.0)[1] - 1"),
    ("lfunctions.py",
     "        redo = np.flatnonzero(lo != hi).tolist()",
     "        redo = []"),
    ("census.py",
     "    psi = np.array([[math.fsum(cols[0][a : tb + 1 : p]) for a in range(p)] for tb in tbounds])",
     "    psi = np.array([[sum(cols[0][a : tb + 1 : p]) for a in range(p)] for tb in tbounds])"),
    ("census.py",
     "    cls = np.array([[math.fsum(v for j in picks.get(c.label, (0,)) for v in cols[j][c.trace : tb + 1 : p])",
     "    cls = np.array([[sum(v for j in picks.get(c.label, (0,)) for v in cols[j][c.trace : tb + 1 : p])"),
    # the row columns offset to t = 3, and the four empty columns of a run
    # that weighs no line
    ("census.py",
     "    cols = [[0.0] * 3 + list(col) for col in zip(*rows)] if rows else [[0.0] * 3] * 4",
     "    cols = [[0.0] * 2 + list(col) for col in zip(*rows)] if rows else [[0.0] * 3] * 4"),
    ("census.py",
     "    cols = [[0.0] * 3 + list(col) for col in zip(*rows)] if rows else [[0.0] * 3] * 4",
     "    cols = [[0.0] * 3 + list(col) for col in zip(*rows)] if rows else [[0.0] * 3] * 1"),
    ("census.py",
     "    return math.isqrt((x + 1) ** 2 // x)",
     "    return math.isqrt((x + 2) ** 2 // x)"),
    ("census.py",
     "    twist = F if d0 == p else 0",
     "    twist = F if d0 != p else 0"),
    # twist is the product of sum_j c_j (q/p)^(k - j); with (q/p) -> 1 that
    # product is kept, the sum over every splitting with p not dividing m
    ("census.py",
     "    twist = F if d0 == p else 0",
     "    twist = kept if d0 == p else 0"),
    ("census.py",
     "        kept *= c[k] if q == p else sum(c)",
     "        kept *= sum(c)"),
    ("census.py",
     "    return d0, total, (2 * (total - kept), kept + twist, kept - twist)",
     "    return d0, total, ((total - kept), kept + twist, kept - twist)"),
    # the class columns: the classes of trace -2 left out, the columns
    # shifted onto the weight, lone classes reading a share column, and the
    # unipotent g = 1 and g = nu swapped, which only the lines with D0 = p
    # tell apart, as only there kept + twist and kept - twist differ
    ("census.py",
     "    for s in {1, p - 1}:  # one sign when p = 2",
     "    for s in {1}:  # one sign when p = 2"),
    ("census.py",
     "        for j, g in enumerate((0, 1, nonresidue(p) if p > 2 else 1), 1):",
     "        for j, g in enumerate((0, 1, nonresidue(p) if p > 2 else 1), 0):"),
    ("census.py",
     "        for j, g in enumerate((0, 1, nonresidue(p) if p > 2 else 1), 1):",
     "        for j, g in enumerate((0, nonresidue(p) if p > 2 else 1, 1), 1):"),
    ("census.py",
     "    cls = np.array([[math.fsum(v for j in picks.get(c.label, (0,)) for v in cols[j][c.trace : tb + 1 : p])",
     "    cls = np.array([[math.fsum(v for j in picks.get(c.label, (1,)) for v in cols[j][c.trace : tb + 1 : p])"),
    # the Euler terms c_j = q^(j-1) (q - chi_D0(q))
    ("lfunctions.py",
     "    return [1] + [q ** (j - 1) * step for j in range(1, k + 1)]",
     "    return [1] + [step for j in range(1, k + 1)]"),
    ("lfunctions.py",
     "    step = q - kronecker(D0, q)",
     "    step = q - 1"),
    # chi(2) is read off D0 mod 8 in the (2/n) table that kronecker shares.
    # chi_columns reaches only entries 0, 1, 4 and 5, as no fundamental D0
    # is 3 or 7 mod 8 (nor 2 or 6); these two flip entries it reaches.
    ("numtheory.py",
     "KRONECKER_2 = (0, 1, 0, -1, 0, -1, 0, 1)",
     "KRONECKER_2 = (0, -1, 0, -1, 0, -1, 0, 1)"),
    ("numtheory.py",
     "KRONECKER_2 = (0, 1, 0, -1, 0, -1, 0, 1)",
     "KRONECKER_2 = (0, 1, 0, -1, 0, 1, 0, 1)"),
    # Euler's criterion above the residue table: a residue read as -1, and
    # uint32 squares past q = 2^16, where q^2 overflows it
    ("lfunctions.py",
     "        chi[q, col] = np.where(power > 1, -1, power == 1)",
     "        chi[q, col] = np.where(power > 0, -1, power == 1)"),
    ("lfunctions.py",
     "        dtype = np.uint32 if n < 2**16 else np.uint64",
     "        dtype = np.uint32 if n < 2**20 else np.uint64"),
    # -I maps the classes of trace a onto those of trace -a with the same
    # centralizers, so masses[-a % p] == masses[a] and swapping the two is
    # an equivalent mutant; a wrong residue index is not.
    ("sl2fp.py",
     "    return [(masses[a] + masses[-a % p]) / 4 for a in range(p)]",
     "    return [(masses[a] + masses[(1 - a) % p]) / 4 for a in range(p)]"),
    # each residue scan drops the root 0, a root whenever the scanned prime
    # power divides D.  Testing the 2-part modulo 2^(v+1) in place of
    # 2^(v+2) is left out: it starts walks from triples of another
    # discriminant, whose rho walk never returns to its start, so that
    # mutant hangs instead of failing.
    ("quadforms.py",
     "                lr = local[pk] = [x for r in range(pk // 2 + 1) if r * r % pk == d for x in {r, -r % pk}]",
     "                lr = local[pk] = [x for r in range(1, pk // 2 + 1) if r * r % pk == d for x in {r, -r % pk}]"),
    ("quadforms.py",
     "            roots = local[2 * mod] = [r for r in range(mod) if (r * r - D) % (2 * mod) == 0]",
     "            roots = local[2 * mod] = [r for r in range(1, mod) if (r * r - D) % (2 * mod) == 0]"),
    # the forms of the class cycles come out in cycle order, not sorted
    ("quadforms.py",
     "    return sorted(f for cycle in class_cycles(D) for f in cycle)",
     "    return list(f for cycle in class_cycles(D) for f in cycle)"),
    # every config of a batch handed the first config's class shares
    ("census.py",
     "        for config, (_, _, doubled), out in zip(configs, line, rows):",
     "        for config, (_, _, doubled), out in zip(configs, [line[0]] * len(configs), rows):"),
    # the splittings' scan: an odd prime's exponent halved wrongly only from
    # q^3 on (factorize, k = 1, is untouched), and the 2-adic exponent of
    # t - 2 dropped
    ("numtheory.py",
     "                out.append((q, e // k))",
     "                out.append((q, e - k + 1))"),
    ("census.py",
     "        square_part = root_part((lo >> a, hi >> b), table, 2) + [(2, (a + b) // 2)]",
     "        square_part = root_part((lo >> a, hi >> b), table, 2) + [(2, b // 2)]"),
    # a pool process for every block, however little work each one shares
    ("census.py",
     "    procs = min(config.workers, len(blocks) // POOL_BLOCKS, usable_cpus())",
     "    procs = min(config.workers, len(blocks), usable_cpus())"),
    # the residue table: (0/q) left at -1, and the largest square k^2 mod q,
    # k = (q - 1) / 2, left unmarked.  Moving RESIDUE_TOP or the top of a
    # call to another power of two only moves primes between two paths
    # that give the same chi, an equivalent mutant, and is left out.
    ("lfunctions.py",
     "    symbols[starts] = 0",
     "    pass"),
    ("lfunctions.py",
     "        symbols[start : start + q][squares[: q // 2] % q] = 1",
     "        symbols[start : start + q][squares[: q // 2 - 1] % q] = 1"),
    # a view that reads the table's int64 buffer as twice as many int32s
    ("numtheory.py",
     "        return np.frombuffer(self.ints, dtype=np.int64)",
     "        return np.frombuffer(self.ints, dtype=np.int32)"),
]

TESTS = [
    "tests/test_lfunctions.py::test_cohen_series_rounds_the_exact_sum_of_its_terms_once",
    "tests/test_lfunctions.py::test_row_sums_fall_back_to_fsum_only_where_uncertified",
    "tests/test_census.py::test_reduce_rounds_the_exact_sum_of_each_mass_once",
    "tests/test_census.py::test_trace_bound_pinned",
    "tests/test_census.py::test_genus_rule_matches_cycle_walk",
    "tests/test_lfunctions.py::test_euler_multiplier_is_the_exact_product",
    "tests/test_census.py::test_only_classes_of_trace_pm2_are_split",
    "tests/test_census.py::test_every_class_share_matches_cycles_times_units",
    "tests/test_lfunctions.py::test_chi_columns_match_kronecker_for_any_lengths",
    "tests/test_lfunctions.py::test_residue_table_matches_kronecker",
    "tests/test_sl2fp.py::test_predicted_density_closed_form",
    "tests/test_quadforms.py::test_forms_match_root_route",
    "tests/test_quadforms.py::test_reduced_forms_pinned",
    "tests/test_numtheory.py::test_pickled_table_factorizes_identically",
    "tests/test_census.py::test_pool_never_exceeds_blocks_or_cpus",
    "tests/test_census.py::test_far_line_weights_and_shares_match_cycles_times_units",
    "tests/test_census.py::test_class_resolved_run_without_lines_is_all_zero",
    "tests/test_census.py::test_mixed_batch_matches_one_run_per_config",
    "tests/test_census.py::test_decompositions_against_divisor_scan",
]


def _pytest(src: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import tracecensus; print(tracecensus.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).is_relative_to(src):
        raise SystemExit("tracecensus imports from %s, not from the copy %s" % (where, src))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        code = _pytest(src)
        print("unmutated: pytest exit %d (%s)" % (code, "pass" if code == 0 else "FAIL"))
        ok &= code == 0
        for name, line, mutant in MUTANTS:
            path = src / "tracecensus" / name
            text = path.read_text()
            if text.count(line) != 1:
                print("%s: the line to mutate is not there once: %s" % (name, line.strip()))
                ok = False
                continue
            path.write_text(text.replace(line, mutant))
            code = _pytest(src)
            path.write_text(text)
            # exit 1 is failing tests; anything else is an error, not a kill
            killed = code == 1
            print("%s: %s -> pytest exit %d (%s)"
                  % (name, mutant.strip(), code, "killed" if killed else "SURVIVED"))
            ok &= killed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
