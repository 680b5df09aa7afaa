"""Command-line front end.

Exit codes: 0 success, 1 configuration error, 2 I/O or trace-format error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (
    ConfigError,
    ExperimentConfig,
    Mode,
    config_inputs,
    parse_config_file,
    path_text,
)
from .experiment import (
    check_paths,
    detect_over_samples,
    format_overhead_report,
    overhead_report,
    run_experiment,
)
from .records import TraceError
from .workload import (
    PRESETS,
    load_trace,
    preset,
    save_workload_spec,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse hook
        raise ConfigError(message)


def _path(name: str):
    """The argparse type of path argument ``name``: config's path rule, so a
    bad path exits 1 naming the argument."""
    return lambda value: path_text(value, name)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phasesim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run a workload through the machine")
    simulate.add_argument(
        "--config", required=True, type=_path("--config"), help="experiment config file"
    )
    simulate.add_argument("--seed", type=int, default=None)
    tau_group = simulate.add_mutually_exclusive_group()
    tau_group.add_argument("--fixed-tau", type=int, default=None, metavar="N")
    tau_group.add_argument("--variable-tau", action="store_true")
    simulate.add_argument("--out", default=None, type=_path("--out"), metavar="DIR")
    simulate.add_argument(
        "--emit-trace", default=None, type=_path("--emit-trace"), metavar="PATH",
        help="also write each interval to a trace (csv or jsonl)",
    )

    detect = sub.add_parser("detect", help="run the detector over a recorded trace")
    detect.add_argument(
        "--trace", default=None, type=_path("--trace"), help="trace file (csv or jsonl)"
    )
    detect.add_argument(
        "--config", default=None, type=_path("--config"), help="detector overrides"
    )
    detect.add_argument("--format", choices=("csv", "jsonl"), default=None)
    detect.add_argument("--out", default=None, type=_path("--out"), metavar="DIR")

    compare = sub.add_parser(
        "compare-overhead", help="profiling-cost ratio of two finished runs"
    )
    compare.add_argument("fixed_dir", type=_path("fixed_dir"))
    compare.add_argument("variable_dir", type=_path("variable_dir"))

    gen = sub.add_parser("gen-workload", help="write a preset workload spec")
    gen.add_argument("--preset", required=True)
    gen.add_argument("--out", required=True, type=_path("--out"), metavar="PATH")
    gen.add_argument("--cycles", type=int, default=None, help="steady preset only")
    gen.add_argument("--demand", type=float, default=None, help="steady preset only")

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = parse_config_file(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.fixed_tau is not None:
        config.mode = Mode.FIXED
        config.fixed_tau = args.fixed_tau
    elif args.variable_tau:
        config.mode = Mode.VARIABLE
    out_dir = _out_dir(args, config)
    result = run_experiment(
        config, out_dir, trace=args.emit_trace or None, inputs=config_inputs(args.config)
    )
    _print_summary(result.summary, out_dir)
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    config = (
        ExperimentConfig() if args.config is None else parse_config_file(args.config, detect=True)
    )
    trace = Path(args.trace) if args.trace else config.workload_trace_path
    if trace is None:
        raise ConfigError("detect needs a trace: pass --trace or set workload.trace")
    out_dir = _out_dir(args, config)
    check_paths(out_dir, {"trace": trace, "config file": args.config})
    result = detect_over_samples(
        load_trace(trace, fmt=args.format), config.detector, trace.name, out_dir
    )
    _print_summary(result.summary, out_dir)
    return 0


def _out_dir(args: argparse.Namespace, config: ExperimentConfig) -> Path:
    """``--out``, else the config's ``out``; an empty flag counts as not given."""
    out_dir = Path(args.out) if args.out else config.out_dir
    if out_dir is None:
        raise ConfigError("no output directory: pass --out or set out= in the config")
    return out_dir


def _cmd_compare(args: argparse.Namespace) -> int:
    report = overhead_report(args.fixed_dir, args.variable_dir)
    print(format_overhead_report(report))
    return 0


def _cmd_gen_workload(args: argparse.Namespace) -> int:
    kwargs: dict = {}
    for flag, key, value in (
        ("--cycles", "total_cycles", args.cycles),
        ("--demand", "demand", args.demand),
    ):
        if value is None:
            continue
        if args.preset != "steady" and args.preset in PRESETS:
            raise ConfigError(
                f"{flag} was given with preset {args.preset!r}, but "
                "--cycles/--demand only apply to the steady preset"
            )
        kwargs[key] = value
    try:
        spec = preset(args.preset, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    save_workload_spec(spec, args.out)
    print(f"wrote workload spec {args.out} ({len(spec.segments)} segments)")
    return 0


def _print_summary(summary: dict, out_dir: Path) -> None:
    print(
        f"samples={summary['sample_count']} "
        f"phases={summary['phase_count']} "
        f"migrations={summary['migration_count']} "
        f"cycles={summary['cycles_covered']} "
        f"out={out_dir}"
    )


_COMMANDS = {
    "simulate": _cmd_simulate,
    "detect": _cmd_detect,
    "compare-overhead": _cmd_compare,
    "gen-workload": _cmd_gen_workload,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (TraceError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
