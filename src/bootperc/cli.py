"""Command-line surface.

Commands: ``thresholds``, ``run``, ``stages``, ``sweep``, ``giant`` and
``bounds``.  Output is machine readable: JSON by default, CSV for sweep
curves, never NaN or Infinity.  All probabilities print with 12
significant digits.  Exit codes: 0 success, 2 argument/validation error,
3 degenerate-regime error, 1 unexpected internal failure.

argparse checks the shape of every command line: flags and config keys
are spelled in full, ``sweep`` takes exactly one a-list, and ``bounds``
exactly one kind, plus only the flags that ``_BOUND_FLAGS`` says it reads.

Each command imports the modules it runs when it is called, and parsing
imports none of them, so ``--help`` and usage errors never load numpy.
"""

from __future__ import annotations

import argparse
import json
import sys

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


def _sig12(value):
    """Round floats to 12 significant digits, recursively."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _sig12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig12(v) for v in value]
    return value


def _emit(payload, args) -> None:
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(_sig12(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config_file(path) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; flags win over file."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, val = line.partition("=")
            if key.strip() == "config":
                raise ValueError(f"{path}:{lineno}: a config file cannot load another, got {raw.strip()!r}")
            values[key.strip()] = val.strip()
    return values


def _int_at_least(low: int, kind: str):
    """An argparse type: an integer >= low, described as a `kind` integer."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {value}")
        return value

    return parse


def _comma_list(convert, kind: str):
    """An argparse type: a nonempty comma-separated list of `kind` values."""

    def parse(text: str) -> list:
        try:
            return [convert(tok) for tok in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind}s, got {text!r}") from None

    return parse


def _flag(dest: str) -> str:
    """The long flag of an argparse dest (or config key): `_` reads as `-`."""
    return "--" + dest.replace("_", "-")


def _add_point(parser: argparse.ArgumentParser) -> None:
    """--n, --p and --r, the parameter triple, each required."""
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--p", type=float, required=True)
    parser.add_argument("--r", type=int, required=True)


def _add_command(sub, name: str, help_text: str, func, seed: bool = True) -> argparse.ArgumentParser:
    """A command that reads its flags only when spelled in full, with --out
    and --config; --seed on those that draw."""
    cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
    cmd.set_defaults(func=func)
    if seed:
        cmd.add_argument("--seed", type=_int_at_least(0, "non-negative"), default=0, help="master seed")
    cmd.add_argument("--out", type=str, default=None, help="write output to this path")
    cmd.add_argument("--config", type=str, default=None, help="key=value overlay file")
    return cmd


def _params_from(args):
    from .thresholds import ProcessParams

    return ProcessParams(n=args.n, p=args.p, r=args.r)


def _cmd_thresholds(args) -> int:
    from dataclasses import asdict

    from . import thresholds

    params = _params_from(args)
    crit = thresholds.critical_pair(params)
    payload = {
        "n": params.n,
        "p": params.p,
        "r": params.r,
        "np": params.mean_degree,
        "npr": params.npr,
        "regime_ok": params.regime_ok,
        **asdict(crit),
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_run(args) -> int:
    """``run`` and ``stages``: trial 0 of an experiment with master seed --seed."""
    from . import montecarlo, thresholds
    from .engine import write_trace_csv

    params = _params_from(args)
    plan = None
    if args.command == "stages":
        alpha = args.alpha
        if alpha is None:
            alpha = args.a - thresholds.critical_pair(params).ac
        if not alpha > 0:
            raise ValueError(
                f"stage diagnostics need alpha > 0 (a={args.a} is not above the "
                "critical seed count; pass --alpha explicitly)"
            )
        plan = thresholds.stage_predictions(params, alpha)
    # with no trace to write, a run records |A(t)| only as far as its stages read
    horizon = None if args.trace_out else 0
    [(trace, report)] = montecarlo.run_trial(
        params, args.mode, args.seed, 0, [args.a], horizon, args.threshold, plan
    )
    payload = {
        "n": params.n,
        "p": params.p,
        "r": params.r,
        "a": args.a,
        "seed": args.seed,
        "mode": args.mode,
        "T": trace.T,
        "final_size": trace.final_size,
        "classification": trace.classification,
        "percolation_threshold": args.threshold,
    }
    if args.trace_out:
        write_trace_csv(trace, params, args.trace_out)
        payload["trace_csv"] = args.trace_out
    if report is not None:
        payload["stages"] = report.to_dict()
    _emit(payload, args)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from dataclasses import asdict

    from . import montecarlo
    from .montecarlo import ExperimentConfig, SeedSizeSpec

    params = _params_from(args)
    if args.a_list is not None:
        seed_sizes = [SeedSizeSpec(a=a) for a in args.a_list]
    else:
        seed_sizes = [SeedSizeSpec(offset_c=c) for c in args.alpha_list]
    config = ExperimentConfig(
        params=params,
        seed_size=seed_sizes[0],
        trials=args.trials,
        master_seed=args.seed,
        mode=args.mode,
        percolation_threshold=args.threshold,
        workers=args.workers,
    )
    result = montecarlo.sweep(config, seed_sizes)
    _emit(result.to_csv() if args.format == "csv" else [asdict(pt) for pt in result.points], args)
    return EXIT_OK


def _cmd_giant(args) -> int:
    from . import thresholds
    from .graph import largest_component, sample_gnp

    if not args.eps > 0:
        raise ValueError(f"eps must be > 0, got {args.eps}")
    if args.m < 2:
        raise ValueError(f"m must be >= 2, got {args.m}")
    p = (1.0 + args.eps) / args.m
    g = sample_gnp(args.m, p, args.seed)
    summary = largest_component(g)
    rho = thresholds.rho_fixed_point(args.eps)
    _emit(
        {
            "m": args.m,
            "eps": args.eps,
            "p": p,
            "seed": args.seed,
            "largest_size": summary.largest_size,
            "component_count": summary.component_count,
            "rho": rho,
            "predicted_size": rho * args.m,
        },
        args,
    )
    return EXIT_OK


# each bounds kind and the dests of the value flags it reads
_BOUND_FLAGS = {
    "chernoff": ("mean", "lam"),
    "martingale": ("lam", "max_step", "var_sum"),
    "theorem1": ("n", "p", "r", "alpha"),
    "theorem2": ("n", "p", "r", "alpha"),
}


def _cmd_bounds(args) -> int:
    from . import thresholds

    kind = next(k for k in _BOUND_FLAGS if getattr(args, k))
    reads = _BOUND_FLAGS[kind]
    others = set().union(*_BOUND_FLAGS.values()) - set(reads)
    stray = [_flag(d) for d in sorted(others) if getattr(args, d) is not None]
    if stray:
        raise ValueError(f"--{kind} does not read {', '.join(stray)}")
    if any(getattr(args, d) is None for d in reads):
        names = [_flag(d) for d in reads]
        raise ValueError(f"--{kind} needs {', '.join(names[:-1])} and {names[-1]}")
    values = {d: getattr(args, d) for d in reads}
    if kind == "chernoff":
        fn = thresholds.chernoff_lower if args.chernoff == "lower" else thresholds.chernoff_upper
        bound = fn(**values)
        kind = f"chernoff_{args.chernoff}"
    elif kind == "martingale":
        bound = thresholds.martingale_tail_bound(thresholds.BoundInputs(**values))
    else:
        params = _params_from(args)
        fn = thresholds.theorem_supercritical_bound
        if kind == "theorem1":
            fn = thresholds.theorem_subcritical_bound
        bound = fn(params, args.alpha)
        values["t0"] = thresholds.t_zero(params)
    _emit({"bound": bound, "kind": kind, **values}, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootperc",
        description="Bootstrap percolation on G(n,p): thresholds, runs, sweeps, bounds.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_thr = _add_command(sub, "thresholds", "critical values for (n, p, r)", _cmd_thresholds, seed=False)
    _add_point(p_thr)

    for name, help_text in (("run", "single seeded run"), ("stages", "single run with stage diagnostics")):
        p_run = _add_command(sub, name, help_text, _cmd_run)
        _add_point(p_run)
        p_run.add_argument("--a", type=int, required=True)
        p_run.add_argument("--mode", choices=["implicit", "explicit"], default="implicit")
        p_run.add_argument("--threshold", type=float, default=0.9)
        p_run.add_argument("--trace-out", type=str, default=None)
        if name == "stages":
            p_run.add_argument("--alpha", type=float, default=None)

    p_sweep = _add_command(sub, "sweep", "phase-transition curve over seed sizes", _cmd_sweep)
    _add_point(p_sweep)
    p_sweep.add_argument("--trials", type=int, required=True)
    a_lists = p_sweep.add_mutually_exclusive_group(required=True)
    a_lists.add_argument("--a-list", type=_comma_list(int, "integer"), help="comma-separated a values")
    a_lists.add_argument(
        "--alpha-list",
        type=_comma_list(float, "number"),
        help="comma-separated offsets c; a = round(ac + c*sqrt(ac))",
    )
    p_sweep.add_argument("--mode", choices=["implicit", "explicit"], default="implicit")
    p_sweep.add_argument("--threshold", type=float, default=0.9)
    p_sweep.add_argument("--format", choices=["json", "csv"], default="csv")
    p_sweep.add_argument(
        "--workers",
        type=_int_at_least(1, "positive"),
        default=1,
        help="worker processes, at most the trial and core counts; never changes output",
    )

    p_giant = _add_command(sub, "giant", "largest component of G(m, (1+eps)/m) vs rho*m", _cmd_giant)
    p_giant.add_argument("--m", type=int, required=True)
    p_giant.add_argument("--eps", type=float, required=True)

    p_bounds = _add_command(sub, "bounds", "evaluate a closed-form bound", _cmd_bounds, seed=False)
    kinds = p_bounds.add_mutually_exclusive_group(required=True)
    kinds.add_argument("--chernoff", choices=["lower", "upper"])
    for kind in ("martingale", "theorem1", "theorem2"):
        kinds.add_argument(f"--{kind}", action="store_true")
    for dest in dict.fromkeys(d for dests in _BOUND_FLAGS.values() for d in dests):
        p_bounds.add_argument(_flag(dest), type=int if dest in ("n", "r") else float)

    return parser


def _config_path(argv: list[str]) -> str | None:
    """The last --config path on the command line, if any (no parser takes abbreviations)."""
    path = None
    for k, tok in enumerate(argv):
        if tok == "--config" and k + 1 < len(argv):
            path = argv[k + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    return path


def _parse(argv: list[str]):
    """The parsed arguments, or the exit code when parsing ends the run.

    A config file's lines go in as ``--key=value`` right after the command
    name, so argparse checks each with the flag's own type and a flag
    given later on the command line wins.
    """
    path = _config_path(argv)
    flags = []
    if path is not None:
        flags = [f"{_flag(key)}={val}" for key, val in _load_config_file(path).items()]
    try:
        args = build_parser().parse_args(argv[:1] + flags + argv[1:])
    except SystemExit as exc:
        if exc.code in (0, None):
            return EXIT_OK
        if flags:
            print(f"bootperc: config file {path} gave {' '.join(flags)}", file=sys.stderr)
        return EXIT_USAGE
    return args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        if isinstance(args, int):
            return args
        # the first numeric import: a command is about to run
        from .thresholds import DegenerateRegime, NoConvergence

        try:
            return args.func(args)
        except (DegenerateRegime, NoConvergence) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DEGENERATE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
