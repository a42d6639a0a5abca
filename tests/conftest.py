import os


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
