"""The benchmark's tracer wraps bootperc functions by module and name.

A layer that is deleted or renamed in ``src/`` would only show up when a
traced benchmark run fails to install its wrappers; this test makes it a
tier-1 failure instead.  The tracer file is read, never modified.
"""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    targets = runpy.run_path(str(TRACER))["TARGETS"]
    missing = [
        f"bootperc.{mod}.{name}"
        for mod, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"bootperc.{mod}"), name, None))
    ]
    assert targets and not missing, f"tracer targets not found: {missing}"
