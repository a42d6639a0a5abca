import os
import tracemalloc

import pytest


def pytest_configure(config):
    """The CLI tests start `python -m bootperc.cli` in child processes,
    which do not see pytest's `pythonpath`; hand them the checkout's src
    directory so a bare `python -m pytest` passes."""
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion lines after the run, one per
    criterion, so they survive output capture."""
    try:
        from test_acceptance import CRITERION_LINES
    except ImportError:
        return
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def traced_peak():
    """``traced_peak(f)`` calls f() and returns (its result, the peak of
    the memory that tracemalloc saw allocated during the call, in bytes),
    the result's own arrays included.  tracemalloc sees every numpy array
    buffer, but not the scratch that numpy's sorts allocate for
    themselves, such as the merge buffer of a stable sort, so a bound on
    code that sorts must state that buffer apart."""

    def measure(f):
        tracemalloc.start()
        try:
            result = f()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
