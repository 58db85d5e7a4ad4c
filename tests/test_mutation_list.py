import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutation_check():
    spec = importlib.util.spec_from_file_location("mutation_check", ROOT / "tests" / "mutation_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_line_is_in_its_file_once():
    # a line the source no longer holds would otherwise show only when the
    # mutation check runs, which takes minutes
    check = _mutation_check()
    assert len(check.MUTANTS) >= 28
    for name, line, mutant in check.MUTANTS:
        text = (ROOT / "src" / "tracecensus" / name).read_text()
        assert text.count(line) == 1, (name, line)
        assert mutant != line, (name, line)
