"""Command-line surface.

Commands: ``thresholds``, ``run``, ``stages``, ``sweep``, ``giant`` and
``bounds``.  Output is machine readable: JSON by default, CSV for sweep
curves.  All probabilities print with 12 significant digits.  Exit
codes: 0 success, 2 argument/validation error, 3 degenerate-regime
error, 1 unexpected internal failure.

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
        text = json.dumps(_sig12(payload), indent=2, sort_keys=True) + "\n"
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


def _add_common(parser: argparse.ArgumentParser, seed: bool = True) -> None:
    """--out and --config on every command; --seed on those that draw."""
    if seed:
        parser.add_argument("--seed", type=_int_at_least(0, "non-negative"), default=0, help="master seed")
    parser.add_argument("--out", type=str, default=None, help="write output to this path")
    parser.add_argument("--config", type=str, default=None, help="key=value overlay file")


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
    alpha = None
    if args.command == "stages":
        alpha = args.alpha
        if alpha is None:
            alpha = args.a - thresholds.critical_pair(params).ac
        if not alpha > 0:
            raise ValueError(
                f"stage diagnostics need alpha > 0 (a={args.a} is not above the "
                "critical seed count; pass --alpha explicitly)"
            )
    # with no trace to write, a run records |A(t)| only as far as its stages read
    horizon = None if args.trace_out else 0
    trace, report = montecarlo.run_trial(
        params, args.mode, args.seed, 0, args.a, horizon, args.threshold, alpha
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

    from . import montecarlo, thresholds
    from .montecarlo import ExperimentConfig, SeedSizeSpec

    params = _params_from(args)
    crit = thresholds.critical_pair(params)
    if args.a_list:
        a_values = [int(tok) for tok in args.a_list.split(",") if tok.strip()]
    elif args.alpha_list:
        offsets = [float(tok) for tok in args.alpha_list.split(",") if tok.strip()]
        a_values = [
            SeedSizeSpec(offset_c=c).resolve(crit, params.n) for c in offsets
        ]
    else:
        raise ValueError("sweep needs --a-list or --alpha-list")
    config = ExperimentConfig(
        params=params,
        seed_size=SeedSizeSpec(a=a_values[0]),
        trials=args.trials,
        master_seed=args.seed,
        mode=args.mode,
        percolation_threshold=args.threshold,
        workers=args.workers,
    )
    result = montecarlo.sweep(config, a_values)
    if args.format == "csv":
        _emit(result.to_csv(), args)
    else:
        _emit([asdict(pt) for pt in result.points], args)
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


def _cmd_bounds(args) -> int:
    from . import thresholds

    chosen = [
        name
        for name, flag in [
            ("chernoff", args.chernoff),
            ("martingale", args.martingale),
            ("theorem1", args.theorem1),
            ("theorem2", args.theorem2),
        ]
        if flag
    ]
    if len(chosen) != 1:
        raise ValueError("pass exactly one of --chernoff lower|upper, --martingale, --theorem1, --theorem2")
    kind = chosen[0]
    if kind == "chernoff":
        if args.mean is None or args.lam is None:
            raise ValueError("--chernoff needs --mean and --lam")
        fn = thresholds.chernoff_lower if args.chernoff == "lower" else thresholds.chernoff_upper
        value = fn(args.mean, args.lam)
        payload = {"bound": value, "kind": f"chernoff_{args.chernoff}", "mean": args.mean, "lam": args.lam}
    elif kind == "martingale":
        if args.lam is None or args.max_step is None or args.var_sum is None:
            raise ValueError("--martingale needs --lam, --max-step and --var-sum")
        b = thresholds.BoundInputs(lam=args.lam, max_step=args.max_step, var_sum=args.var_sum)
        payload = {
            "bound": thresholds.martingale_tail_bound(b),
            "kind": "martingale",
            "lam": args.lam,
            "max_step": args.max_step,
            "var_sum": args.var_sum,
        }
    else:
        if args.n is None or args.p is None or args.r is None or args.alpha is None:
            raise ValueError(f"--{kind} needs --n, --p, --r and --alpha")
        params = _params_from(args)
        fn = (
            thresholds.theorem_subcritical_bound
            if kind == "theorem1"
            else thresholds.theorem_supercritical_bound
        )
        payload = {
            "bound": fn(params, args.alpha),
            "kind": kind,
            "n": params.n,
            "p": params.p,
            "r": params.r,
            "alpha": args.alpha,
            "t0": thresholds.t_zero(params),
        }
    _emit(payload, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootperc",
        description="Bootstrap percolation on G(n,p): thresholds, runs, sweeps, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_thr = sub.add_parser("thresholds", help="critical values for (n, p, r)")
    p_thr.add_argument("--n", type=int, required=True)
    p_thr.add_argument("--p", type=float, required=True)
    p_thr.add_argument("--r", type=int, required=True)
    _add_common(p_thr, seed=False)
    p_thr.set_defaults(func=_cmd_thresholds)

    for name, help_text in (("run", "single seeded run"), ("stages", "single run with stage diagnostics")):
        p_run = sub.add_parser(name, help=help_text)
        p_run.add_argument("--n", type=int, required=True)
        p_run.add_argument("--p", type=float, required=True)
        p_run.add_argument("--r", type=int, required=True)
        p_run.add_argument("--a", type=int, required=True)
        p_run.add_argument("--mode", choices=["implicit", "explicit"], default="implicit")
        p_run.add_argument("--threshold", type=float, default=0.9)
        p_run.add_argument("--trace-out", type=str, default=None)
        if name == "stages":
            p_run.add_argument("--alpha", type=float, default=None)
        _add_common(p_run)
        p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="phase-transition curve over seed sizes")
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--p", type=float, required=True)
    p_sweep.add_argument("--r", type=int, required=True)
    p_sweep.add_argument("--trials", type=int, required=True)
    p_sweep.add_argument("--a-list", type=str, default=None, help="comma-separated absolute a values")
    p_sweep.add_argument(
        "--alpha-list",
        type=str,
        default=None,
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
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_giant = sub.add_parser("giant", help="largest component of G(m, (1+eps)/m) vs rho*m")
    p_giant.add_argument("--m", type=int, required=True)
    p_giant.add_argument("--eps", type=float, required=True)
    _add_common(p_giant)
    p_giant.set_defaults(func=_cmd_giant)

    p_bounds = sub.add_parser("bounds", help="evaluate a closed-form bound")
    p_bounds.add_argument("--chernoff", choices=["lower", "upper"], default=None)
    p_bounds.add_argument("--martingale", action="store_true")
    p_bounds.add_argument("--theorem1", action="store_true")
    p_bounds.add_argument("--theorem2", action="store_true")
    p_bounds.add_argument("--mean", type=float, default=None)
    p_bounds.add_argument("--lam", type=float, default=None)
    p_bounds.add_argument("--max-step", type=float, default=None)
    p_bounds.add_argument("--var-sum", type=float, default=None)
    p_bounds.add_argument("--n", type=int, default=None)
    p_bounds.add_argument("--p", type=float, default=None)
    p_bounds.add_argument("--r", type=int, default=None)
    p_bounds.add_argument("--alpha", type=float, default=None)
    _add_common(p_bounds, seed=False)
    p_bounds.set_defaults(func=_cmd_bounds)

    return parser


def _config_path(argv: list[str]) -> str | None:
    """The last --config path on the command line, if any."""
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
        flags = [f"--{key.replace('_', '-')}={val}" for key, val in _load_config_file(path).items()]
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
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
