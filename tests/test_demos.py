"""Every fast demo runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# parallel_census.py is left out: its psi(10^7) run takes about ten seconds
FAST_DEMOS = sorted(
    path.name for path in (ROOT / "demos").glob("*.py") if path.name != "parallel_census.py"
)


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
