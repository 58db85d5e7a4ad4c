"""One cold set-up, timed by the caller from process start to exit.

Starts the interpreter, imports tracecensus and its CLI, builds the
smallest-prime-factor table a job of the workload builds before its first
trace line and, for pooled workloads, starts the worker pool.  Run as

    python3 perfbench/setup_probe.py --limit 4016 --pool 2
"""

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--limit", type=int, required=True)
    ap.add_argument("--pool", type=int, default=1)
    args = ap.parse_args()

    import tracecensus
    import tracecensus.cli  # noqa: F401  (the CLI workloads enter here)

    tracecensus.build_spf_table(args.limit)
    if args.pool > 1:
        with ProcessPoolExecutor(max_workers=args.pool) as ex:
            list(ex.map(abs, range(args.pool)))


if __name__ == "__main__":
    main()
