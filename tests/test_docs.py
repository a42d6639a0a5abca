"""The README's CLI examples parse with the real parser.

Each ``bootperc ...`` line of the README's CLI block goes through
``cli.build_parser()`` only: nothing runs, and parsing loads no numpy.
So a flag that leaves a command cannot linger in the docs.
"""

import re
import shlex
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
