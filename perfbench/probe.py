"""Set-up probe: start, import bootperc and prepare one workload's
inputs, then exit.  `run.py` times several of these from the outside and
reports the median as setup_s.

Usage: PYTHONPATH=src python3 perfbench/probe.py <library workload> <seed>
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.LIBRARY_WORKLOADS[sys.argv[1]](int(sys.argv[2]))
