"""Golden outputs: small fixed-seed CLI runs pinned byte for byte.

Output is a pure function of (arguments, seed), so any change to an RNG
stream or to the arithmetic behind a payload shows up here as a diff of a
file under ``tests/golden/``.  After a deliberate change, rewrite the pins
with ``BOOTPERC_UPDATE_GOLDEN=1 pytest tests/test_golden.py``, review the
diff, and record the stream change in CHANGES.md.
"""

import os
from pathlib import Path

import pytest

from bootperc import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

RUN = ["--n", "2000", "--p", "0.003", "--r", "2", "--a", "40", "--seed", "5"]
STAGES = ["--n", "20000", "--p", "0.001", "--r", "2", "--a", "80", "--seed", "5"]
SWEEP = ["--n", "1500", "--p", "0.004", "--r", "2", "--trials", "8", "--a-list", "5,40", "--seed", "17"]

CASES = {
    "run_implicit": ["run", *RUN],
    "run_explicit": ["run", *RUN, "--mode", "explicit"],
    "stages_implicit": ["stages", *STAGES],
    "stages_explicit": ["stages", *STAGES, "--mode", "explicit"],
    "sweep_implicit": ["sweep", *SWEEP],
    "sweep_explicit": ["sweep", *SWEEP, "--mode", "explicit"],
    "sweep_json_implicit": ["sweep", *SWEEP, "--format", "json"],
    "sweep_json_explicit": ["sweep", *SWEEP, "--mode", "explicit", "--format", "json"],
    "giant": ["giant", "--m", "20000", "--eps", "0.2", "--seed", "3"],
    "thresholds_r2": ["thresholds", "--n", "1000000", "--p", "2e-6", "--r", "2"],
    "thresholds_r3": ["thresholds", "--n", "1000000", "--p", "1e-5", "--r", "3"],
    "thresholds_in_regime": ["thresholds", "--n", "1000000000000", "--p", "2e-12", "--r", "2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(capsys, name):
    assert cli.main(CASES[name]) == 0
    out = capsys.readouterr().out
    path = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("BOOTPERC_UPDATE_GOLDEN"):
        path.write_text(out)
    assert out == path.read_text()
