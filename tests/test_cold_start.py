"""What a CLI start imports, and that traced runs still see the calls.

Each check runs in a fresh interpreter, since this test process has long
since imported numpy and every bootperc module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE_STACK = (
    "bootperc.engine",
    "bootperc.graph",
    "bootperc.montecarlo",
    "bootperc.stages",
    "concurrent.futures.process",
)

# runs cli.main on the given arguments, then prints the loaded modules
PROBE = """
import contextlib, io, json, sys
from bootperc import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _child(args, **env):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", **env)
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(*argv):
    out = json.loads(_child(["-c", PROBE, *argv]))
    return out["code"], set(out["modules"])


def test_help_and_usage_errors_load_no_numpy():
    for argv, want in [
        (["--help"], 0),
        (["thresholds", "--help"], 0),
        (["thresholds", "--n", "1000"], 2),
        (["no-such-command"], 2),
    ]:
        code, loaded = _loaded_after(*argv)
        assert code == want, argv
        assert "numpy" not in loaded, argv
        assert not any(m.startswith("bootperc.") and m != "bootperc.cli" for m in loaded), argv


def test_thresholds_and_bounds_load_no_engine():
    point = ["--n", "1000000", "--p", "0.0001", "--r", "2", "--alpha", "30"]
    for argv in [
        ["thresholds", "--n", "1000", "--p", "0.01", "--r", "2"],
        ["bounds", "--theorem1", *point],
        ["bounds", "--theorem2", *point],
        ["bounds", "--chernoff", "lower", "--mean", "50", "--lam", "10"],
        ["bounds", "--martingale", "--lam", "30", "--max-step", "1", "--var-sum", "131.6"],
    ]:
        code, loaded = _loaded_after(*argv)
        assert code == 0, argv
        assert "bootperc.thresholds" in loaded
        assert not loaded & set(ENGINE_STACK), (argv, sorted(loaded & set(ENGINE_STACK)))
        # the closed-form bounds are plain math; only the critical scan needs numpy
        assert ("numpy" in loaded) == (argv[0] == "thresholds"), argv


def test_package_names_resolve_lazily():
    script = (
        "import sys, bootperc\n"
        "before = 'numpy' in sys.modules\n"
        "missing = [n for n in bootperc.__all__ if getattr(bootperc, n, None) is None]\n"
        "print(before, missing, set(bootperc.__all__) <= set(dir(bootperc)))\n"
    )
    assert _child(["-c", script]).split() == ["False", "[]", "True"]


def test_traced_cli_sees_calls_made_at_call_time(tmp_path):
    """perfbench's tracer wraps functions after `from bootperc import cli`,
    so a handler that bound its functions earlier would escape it."""
    traced = str(ROOT / "perfbench" / "traced_cli.py")
    commands = {
        "thresholds": ["thresholds", "--n", "1000", "--p", "0.01", "--r", "2"],
        "run": ["run", "--n", "2000", "--p", "0.003", "--r", "2", "--a", "40", "--seed", "5"],
    }
    names = {}
    for kind, argv in commands.items():
        spans = tmp_path / f"{kind}.json"
        _child([traced, *argv], PERFBENCH_SPANS=str(spans))
        names[kind] = {span["name"] for span in json.loads(spans.read_text())}
    assert "thresholds.critical_pair" in names["thresholds"]
    assert "engine.run_process" in names["run"]
