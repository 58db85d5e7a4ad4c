from concurrent.futures import ProcessPoolExecutor

import pytest

from tracecensus import census

ACCEPTANCE: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE:
            terminalreporter.write_line(line)


@pytest.fixture
def real_pool(monkeypatch):
    """Sends every run of two or more blocks with workers > 1 to a real pool
    of two processes, whatever the host's CPU count, and lists each pool's
    max_workers as it is made."""
    made = []

    class Recorded(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(census, "POOL_BLOCKS", 1)
    monkeypatch.setattr(census, "usable_cpus", lambda: 2)
    monkeypatch.setattr(census, "ProcessPoolExecutor", Recorded)
    return made
