"""The README's examples run against the package.

Each ``bootperc ...`` line of the README's CLI block goes through
``cli.build_parser()`` only: nothing runs, and parsing loads no numpy.
So a flag that leaves a command cannot linger in the docs.  The library
example runs as written in a child interpreter.
"""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bootperc import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_block_lines() -> list[str]:
    text = README.read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text, re.S | re.M).group(1)
    return [line for line in block.splitlines() if line.startswith("bootperc ")]


def test_cli_block_is_found():
    assert len(_cli_block_lines()) >= 9


@pytest.mark.parametrize("line", _cli_block_lines())
def test_readme_command_parses(line):
    argv = shlex.split(line)[1:]
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"README line does not parse (exit {exc.code}): {line}")
    assert args.command == argv[0]


def test_library_example_runs():
    # the child finds the checkout's src through PYTHONPATH, which conftest sets
    block = re.search(r"^## Library example\n+```python\n(.*?)^```", README.read_text(), re.S | re.M)
    proc = subprocess.run([sys.executable, "-c", block.group(1)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.split()
    assert len(printed) == 2 and all(0.0 <= float(x) <= 1.0 for x in printed), proc.stdout
