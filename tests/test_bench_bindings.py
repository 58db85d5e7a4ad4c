"""The names the benchmark's traced pass rebinds must stay in the package.

perfbench/workloads.py:bindings() lists (module, attribute) pairs that the
tracer replaces by getattr/setattr, so deleting or renaming one of them
crashes the traced benchmark pass.  This test catches that first.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_exists_and_is_callable():
    bound = load_workloads().bindings()
    assert bound
    for module, attr, span, _ in bound:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, span)
