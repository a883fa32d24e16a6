"""Command-line entry point.

Exit codes: 0 success, 1 configuration/trace error, 2 runtime error or
any other exception, reported on one line without a traceback.
The default output directory is $POBSIM_OUT (or ./pobsim-out) plus the
scenario name and the command's suffix (`_OUT_SUFFIX`).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ScenarioConfig, load_config, with_overrides
from .errors import ConfigError, SimulationError, TraceError
from .experiments import run_ic_check, run_scenario, run_sweep
from .presets import builtin_presets, bundled_trace_path
from .trace import parse_trace

_OUT_SUFFIX = {"sweep": "-sweep", "ic-check": "-ic", "replay": "-replay"}
_DISCOUNT = 0.95


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
    for command, help_text, *positionals in (
        ("run", "run a scenario config file", "config"),
        ("preset", "run a built-in scenario by name", "name"),
        ("sweep", "run the parameter grid of a config", "config"),
        ("ic-check", "paired honest-vs-deviating payoff check", "config"),
        ("replay", "replay a block trace through a config", "trace", "config"),
    ):
        p = sub.add_parser(command, help=help_text)
        for name in positionals:
            p.add_argument(name, type=str if name == "name" else Path)
        if command == "ic-check":
            p.add_argument("--discount", type=float, default=_DISCOUNT)
        elif command == "preset":
            p.set_defaults(discount=_DISCOUNT)  # what an ic-check preset runs with
        _add_common(p)

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

    command, suffix = args.command, _OUT_SUFFIX.get(args.command, "")
    if command == "preset":
        presets = builtin_presets()
        if args.name not in presets:
            print(
                f"error: unknown preset {args.name!r} "
                f"(try: {', '.join(sorted(presets))})",
                file=sys.stderr,
            )
            return 1
        preset = presets[args.name]
        config = preset.build()
        if preset.ic_check:
            command = "ic-check"
        elif preset.trace is not None:
            command, args.trace = "replay", bundled_trace_path()
        else:
            command = "sweep" if config.sweep else "run"
    else:
        config = load_config(args.config)
    if command == "replay" and args.epochs is not None:
        raise ConfigError("epochs", "a replay runs one epoch per trace block")
    config = _apply_overrides(config, args)
    trace = None
    if command == "replay":
        trace = parse_trace(args.trace)
        config = with_overrides(config, epochs=len(trace))  # so config.echo names what ran
    out = args.out or Path(os.environ.get("POBSIM_OUT", "pobsim-out")) / (config.name + suffix)
    if command == "ic-check":
        report = run_ic_check(config, out, discount=args.discount)
        print(
            f"ic-check: honest={report['honest_discounted_mean']:.3f} "
            f"deviant={report['deviant_discounted_mean']:.3f} "
            f"holds={report['ic_holds']}"
        )
    elif command == "sweep":
        run_sweep(config, out)
    else:
        run_scenario(config, out, trace=trace)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
