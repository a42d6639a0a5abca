"""bootperc benchmark: one workload per call, run from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: window_implicit, explicit_stages, cli_session
(see perfbench/README.md).  The workload repeats whole rounds of fixed
work until the next round would end past --seconds, checks every output,
writes a record to perfbench/results/ and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones, measured without any
wrapper installed.  With --trace 1 the first half of the time runs
untraced, then the same rounds are replayed with the tracer installed;
the metrics are the per-layer ones and trace.overhead_s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
CLI_KINDS = ("thresholds", "run", "stages", "giant", "sweep", "bounds")


def run_rounds(do_round, seconds: float):
    """Whole rounds until the next one, at the median pace so far, would
    end past `seconds`; at least one round."""
    rounds, times = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        rounds.append(do_round(len(rounds)))
        times.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return rounds, times


def replay(do_round, count: int):
    rounds, times = [], []
    for i in range(count):
        t = time.perf_counter()
        rounds.append(do_round(i))
        times.append(time.perf_counter() - t)
    return rounds, times


def end_to_end(rounds, times, setup_s: float, peak_kib: int) -> dict:
    body = sum(times)
    return {
        "wall_s": (statistics.median(times), "s"),
        "trials_per_s": (sum(rd["trials"] for rd in rounds) / body, "1/s"),
        "commands_per_s": (sum(rd["ops"] for rd in rounds) / body, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }


def library_workload(args):
    import workloads

    probe = [sys.executable, str(HERE / "probe.py"), args.workload, str(args.seed)]
    setup = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        # with captured output the wait ends when the probe's pipes close; a
        # bare wait with a timeout polls in 50 ms steps and quantises the time
        subprocess.run(probe, env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True, capture_output=True, timeout=60)
        setup.append(time.perf_counter() - t)
    w = workloads.LIBRARY_WORKLOADS[args.workload](args.seed)
    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds, times = run_rounds(w.round, seconds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = end_to_end(rounds, times, statistics.median(setup), peak)
    errs = w.check(rounds)
    record = {"round_s": times, "setup_s": setup}
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        traced, traced_times = replay(w.round, len(rounds))
        errs += w.check(traced)
        metrics = layer_metrics(tracer.spans)
        metrics.update(cli_layers([], 0.0))
        metrics["trace.overhead_s"] = (statistics.median(traced_times) - statistics.median(times), "s")
        record["traced_round_s"] = traced_times
        rounds += traced
    return rounds, metrics, errs, record


def cli_layers(outputs, startup: float) -> dict:
    rounds = max(1, len({o["round"] for o in outputs}))
    layers = {"cli.startup_s": (startup, "s")}
    for kind in CLI_KINDS:
        layers[f"cli.{kind}.s"] = (sum(o["s"] for o in outputs if o["kind"] == kind) / rounds, "s")
    return layers


def cli_workload(args):
    import workloads

    session = workloads.CliSession(args.seed, ROOT, RESULTS)
    setup = [session.startup() for _ in range(SETUP_REPEATS)]
    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds, times = run_rounds(session.round, seconds)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = end_to_end(rounds, times, statistics.median(setup), peak)
    errs = session.check(rounds)
    record = {"round_s": times, "setup_s": setup}
    if args.trace:
        from tracer import layer_metrics

        traced_session = workloads.CliSession(args.seed, ROOT, RESULTS, traced=True)
        spans_dir = RESULTS / "spans"
        spans_dir.mkdir(exist_ok=True)
        for old in spans_dir.glob("*.json"):
            old.unlink()
        traced, traced_times = replay(lambda i: traced_session.round(i, spans_dir), len(rounds))
        errs += traced_session.check(traced)
        spans = []
        for path in sorted(spans_dir.glob("*.json")):
            spans += json.loads(path.read_text())
        outputs = [dict(o, round=i) for i, rd in enumerate(traced) for o in rd["outputs"]]
        metrics = layer_metrics(spans)
        metrics.update(cli_layers(outputs, statistics.median(setup)))
        metrics["trace.overhead_s"] = (statistics.median(traced_times) - statistics.median(times), "s")
        record["traced_round_s"] = traced_times
        rounds += traced
    return rounds, metrics, errs, record


def environment() -> dict:
    import numpy

    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("window_implicit", "explicit_stages", "cli_session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bootperc" / "__init__.py").is_file():
        print(f"error: no bootperc package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(exist_ok=True)

    run = cli_workload if args.workload == "cli_session" else library_workload
    rounds, metrics, errs, record = run(args)
    for err in errs[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not errs,
        "attempted": sum(rd["ops"] for rd in rounds),
        "failed": sum(rd["failed"] for rd in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        environment=environment(), errors=errs, result=result,
    )
    out = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
