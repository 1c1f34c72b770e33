"""Benchmark session plumbing.

Set ``NNQS_BENCH_FULL=1`` to run the full paper workloads (all Table 1
molecules with tractable FCI, 5-point PES grids, larger rank counts);
the default configuration finishes in a few minutes on a laptop.
"""
from __future__ import annotations

import os

import pytest

from reporting import registry


def full_mode() -> bool:
    return os.environ.get("NNQS_BENCH_FULL", "0") not in ("0", "")


@pytest.fixture(scope="session")
def full():
    return full_mode()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print every recorded paper-style table after the benchmark run."""
    if registry.reports:
        terminalreporter.write_line("")
        terminalreporter.write_line("=" * 78)
        terminalreporter.write_line("REPRODUCED TABLES AND FIGURES (paper vs measured)")
        terminalreporter.write_line("=" * 78)
        for line in registry.dump().splitlines():
            terminalreporter.write_line(line)
