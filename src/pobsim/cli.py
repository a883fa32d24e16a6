"""Command-line entry point.

Exit codes: 0 success, 1 configuration/trace error, 2 runtime error or
any other exception, reported on one line without a traceback.
The default output directory is $POBSIM_OUT (or ./pobsim-out) plus the
scenario name.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ScenarioConfig, load_config, with_overrides
from .errors import ConfigError, SimulationError, TraceError
from .experiments import run_ic_check, run_scenario, run_sweep
from .netsim import parse_trace
from .presets import builtin_presets, bundled_trace_path


def _default_out(name: str) -> Path:
    root = os.environ.get("POBSIM_OUT", "pobsim-out")
    return Path(root) / name


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--trials", type=int, default=None, help="override trial count")
    parser.add_argument("--epochs", type=int, default=None, help="override epoch count")
    parser.add_argument("--seed", type=int, default=None, help="override root seed")
    parser.add_argument("--workers", type=int, default=None, help="parallel trial workers")
    parser.add_argument("--ledgers", action="store_true", help="write per-epoch ledgers")


def _apply_overrides(config: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    changes = {}
    for attr in ("trials", "epochs", "seed", "workers"):
        value = getattr(args, attr, None)
        if value is not None:
            changes[attr] = value
    if getattr(args, "ledgers", False):
        changes["emit_ledgers"] = True
    return with_overrides(config, **changes) if changes else config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pobsim",
        description="behavior-weighted consensus simulator and PoS comparison harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config file")
    p_run.add_argument("config", type=Path)
    _add_common(p_run)

    p_preset = sub.add_parser("preset", help="run a built-in scenario by name")
    p_preset.add_argument("name")
    _add_common(p_preset)

    p_sweep = sub.add_parser("sweep", help="run the parameter grid of a config")
    p_sweep.add_argument("config", type=Path)
    _add_common(p_sweep)

    p_ic = sub.add_parser("ic-check", help="paired honest-vs-deviating payoff check")
    p_ic.add_argument("config", type=Path)
    p_ic.add_argument("--discount", type=float, default=0.95)
    _add_common(p_ic)

    p_replay = sub.add_parser("replay", help="replay a block trace through a config")
    p_replay.add_argument("trace", type=Path)
    p_replay.add_argument("config", type=Path)
    _add_common(p_replay)

    sub.add_parser("list-presets", help="list built-in scenarios")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an unexpected fault still ends in one line, not a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list-presets":
        for name, preset in sorted(builtin_presets().items()):
            print(f"{name:24s} {preset.description}")
        return 0

    if args.command == "preset":
        presets = builtin_presets()
        if args.name not in presets:
            print(
                f"error: unknown preset {args.name!r} "
                f"(try: {', '.join(sorted(presets))})",
                file=sys.stderr,
            )
            return 1
        preset = presets[args.name]
        config = _apply_overrides(preset.build(), args)
        out = args.out or _default_out(config.name)
        if preset.ic_check:
            report = run_ic_check(config, out)
            print(
                f"ic-check: honest={report['honest_discounted_mean']:.3f} "
                f"deviant={report['deviant_discounted_mean']:.3f} "
                f"holds={report['ic_holds']}"
            )
        elif preset.trace is not None:
            trace = parse_trace(bundled_trace_path())
            run_scenario(config, out, trace=trace)
        elif config.sweep:
            run_sweep(config, out)
        else:
            run_scenario(config, out)
        print(f"wrote {out}")
        return 0

    if args.command == "run":
        config = _apply_overrides(load_config(args.config), args)
        out = args.out or _default_out(config.name)
        run_scenario(config, out)
        print(f"wrote {out}")
        return 0

    if args.command == "sweep":
        config = _apply_overrides(load_config(args.config), args)
        out = args.out or _default_out(f"{config.name}-sweep")
        run_sweep(config, out)
        print(f"wrote {out}")
        return 0

    if args.command == "ic-check":
        config = _apply_overrides(load_config(args.config), args)
        out = args.out or _default_out(f"{config.name}-ic")
        report = run_ic_check(config, out, discount=args.discount)
        print(
            f"ic-check: honest={report['honest_discounted_mean']:.3f} "
            f"deviant={report['deviant_discounted_mean']:.3f} "
            f"holds={report['ic_holds']}"
        )
        print(f"wrote {out}")
        return 0

    if args.command == "replay":
        config = _apply_overrides(load_config(args.config), args)
        trace = parse_trace(args.trace)
        out = args.out or _default_out(f"{config.name}-replay")
        run_scenario(config, out, trace=trace)
        print(f"wrote {out}")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
