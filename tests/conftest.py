import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers `os.fork` starts, recorded in the parent."""
    started, real = [], os.fork

    def recording_fork():
        pid = real()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return started

_ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def record_criterion(number: int, description: str) -> None:
    """Called by acceptance tests after their assertions have passed."""
    _ACCEPTANCE_RESULTS.append((number, "PASS", description))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    reported = {n for n, _, _ in _ACCEPTANCE_RESULTS}
    for rep in terminalreporter.stats.get("failed", []):
        name = rep.nodeid.rsplit("::", 1)[-1]
        if name.startswith("test_criterion_"):
            number = int(name.split("_")[2])
            if number not in reported:
                _ACCEPTANCE_RESULTS.append((number, "FAIL", name))
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, verdict, description in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {number:>2}: {verdict} - {description}")
