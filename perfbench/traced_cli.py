"""Run `bootperc` with the tracer installed and write its spans.

Usage: PYTHONPATH=src PERFBENCH_SPANS=spans.json python3 perfbench/traced_cli.py <bootperc args>

The traced cli_session round starts this in place of `python3 -m
bootperc.cli`; the exit code and output are bootperc's own.
"""

import os
import sys

from bootperc import cli
from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    code = cli.main(sys.argv[1:])
    if os.environ.get("PERFBENCH_SPANS"):
        tracer.dump(os.environ["PERFBENCH_SPANS"])
    sys.exit(code)
