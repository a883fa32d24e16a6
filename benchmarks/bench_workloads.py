"""Workload definitions, output digests and output checks.

Nothing here imports pobsim at module level: child.py times the first
`import pobsim` as part of set-up, so this module must not pay it first.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from pathlib import Path

DEFAULT_SEED = 42  # the seed every built-in preset ships with

# Each workload is a built-in preset plus overrides; the seed comes from
# the command line. Why each one is here is in README.md.
WORKLOADS = {
    "fairness-1000": {
        "preset": "case-b-fairness-1000",
        "overrides": {"epochs": 200, "trials": 1},
    },
    "replay-ledgers": {
        "preset": "case-c-replay",
        "overrides": {"trials": 1, "emit_ledgers": True},
    },
    "sweep-grid": {
        "preset": "case-e-sweep",
        "overrides": {"workers": 2},
    },
}

# Reduced scale for the untimed golden check of every preset. The replay
# preset keeps a 40-block window of its trace around the exploit (height
# 500), since a trace sets the epoch count.
PRESET_EPOCHS = 20
PRESET_TRACE_WINDOW = (480, 520)

# The frozen column set of trials.csv and sweep.csv (see README "Outputs").
CSV_COLUMNS = [
    "trial", "seed", "protocol", "far", "proposer_gini", "mean_latency_ms",
    "newcomer_adaptation_blocks", "suppression_blocks", "loss_averted",
    "bottom_decile_share", "false_positives",
]

LEDGER_SAMPLES = 40  # ledger files checked per (trial, protocol) directory
SUM_TOL = 1e-9


def build(workload: str, seed: int, api) -> tuple:
    """The workload's config and trace, made through the CLI's public API."""
    spec = WORKLOADS[workload]
    preset = api.builtin_presets()[spec["preset"]]
    config = api.with_overrides(preset.build(), seed=seed, **spec["overrides"])
    trace = api.parse_trace(api.bundled_trace_path()) if preset.trace is not None else None
    return config, trace


def run(config, trace, out: Path, experiments) -> None:
    """What `pobsim preset` does with the config: one sweep or one scenario."""
    if config.sweep:
        experiments.run_sweep(config, out)
    else:
        experiments.run_scenario(config, out, trace=trace)


def protocols(config) -> list[str]:
    return ["pob", "pos"] if config.protocol == "paired" else [config.protocol]


def sweep_size(config) -> int:
    return math.prod(len(v) for v in config.sweep.values()) if config.sweep else 1


def nominal_work(config, trace) -> tuple[int, int]:
    """(operations, validator-epochs). An operation is one (trial, protocol) run."""
    ops = config.trials * len(protocols(config)) * sweep_size(config)
    epochs = len(trace) if trace is not None else config.epochs
    return ops, ops * config.n_validators * epochs


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def digest_outputs(out: Path) -> dict[str, str]:
    """sha256 of every top-level output file and of each ledger directory."""
    digests = {}
    for path in sorted(out.iterdir()):
        if path.is_file():
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    ledgers = out / "ledgers"
    if ledgers.is_dir():
        for led_dir in sorted(ledgers.iterdir()):
            h = hashlib.sha256()
            for path in sorted(led_dir.iterdir()):
                h.update(path.name.encode() + b"\0")
                h.update(path.read_bytes())
            digests[f"ledgers/{led_dir.name}"] = h.hexdigest()
    return digests


def check_outputs(config, trace, out: Path) -> list[str]:
    """Checks that hold on every seed; returns the problems found."""
    problems: list[str] = []
    params = sorted(config.sweep) if config.sweep else []
    csv_name, summary_name = ("sweep.csv", "sweep_summary.json") if params else (
        "trials.csv", "summary.json")
    for name in ("config.echo", csv_name, summary_name):
        if not (out / name).is_file():
            problems.append(f"{name} missing")
    if problems:
        return problems

    with open(out / csv_name, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != params + CSV_COLUMNS:
        problems.append(f"{csv_name} header {rows[0]}")
    keys = sorted(tuple(r[: len(params) + 3]) for r in rows[1:])
    if len(keys) != len(set(keys)) or len(keys) != nominal_work(config, trace)[0]:
        problems.append(f"{csv_name} has {len(keys)} rows, not one per (point, trial, protocol)")

    summary = json.loads((out / summary_name).read_text(encoding="utf-8"))
    per_point = summary.values() if params else [summary]
    if len(per_point) != sweep_size(config):
        problems.append(f"{summary_name} has {len(per_point)} points")
    for point in per_point:
        if sorted(point["protocols"]) != sorted(protocols(config)):
            problems.append(f"{summary_name} protocols {sorted(point['protocols'])}")

    if config.emit_ledgers:
        problems.extend(_check_ledgers(config, trace, out / "ledgers"))
    return problems


def _check_ledgers(config, trace, root: Path) -> list[str]:
    """Sampled ledger checks: epoch order, unit-sum weights, pool conservation."""
    problems = []
    epochs = len(trace) if trace is not None else config.epochs
    for trial in range(config.trials):
        for protocol in protocols(config):
            led_dir = root / f"trial-{trial:03d}-{protocol}"
            files = sorted(led_dir.glob("epoch-*.json")) if led_dir.is_dir() else []
            if len(files) != epochs:
                problems.append(f"{led_dir.name}: {len(files)} ledgers, expected {epochs}")
                continue
            step = max(1, epochs // LEDGER_SAMPLES)
            for index in range(0, epochs, step):
                problems.extend(_check_ledger(config, protocol, index, files[index]))
    return problems


def _check_ledger(config, protocol: str, index: int, path: Path) -> list[str]:
    ledger = json.loads(path.read_text(encoding="utf-8"))
    where = f"{path.parent.name}/{path.name}"
    problems = []
    if ledger["epoch"] != index or ledger["protocol"] != protocol:
        problems.append(f"{where}: epoch/protocol fields do not match the file")
    weights = ledger["weights_after"].values()
    if any(w < 0 for w in weights):
        problems.append(f"{where}: negative weight")
    if protocol == "pob" and abs(sum(weights) - 1.0) > SUM_TOL:
        problems.append(f"{where}: weights sum to {sum(weights)!r}")
    paid = sum(p["total"] for p in ledger["payouts"])
    if config.epsilon == 0.0 and ledger["payouts"] and abs(paid - config.r_total) > SUM_TOL * config.r_total:
        problems.append(f"{where}: payouts sum to {paid!r}, pool is {config.r_total!r}")
    return problems


def preset_checks(api, experiments, out_root: Path) -> dict:
    """Run every built-in preset at reduced scale; digest and count its outputs."""
    results = {}
    for name, preset in sorted(api.builtin_presets().items()):
        base = preset.build()
        config = api.with_overrides(base, epochs=min(PRESET_EPOCHS, base.epochs), trials=1)
        out = fresh_dir(out_root / name)
        trace = None
        if preset.ic_check:
            experiments.run_ic_check(config, out)
            ops = 2 * config.trials  # honest and deviating arm per trial
        else:
            if preset.trace is not None:
                lo, hi = PRESET_TRACE_WINDOW
                trace = api.parse_trace(api.bundled_trace_path())[lo:hi]
            run(config, trace, out, experiments)
            ops = nominal_work(config, trace)[0]
        problems = [] if preset.ic_check else check_outputs(config, trace, out)
        results[name] = {"digests": digest_outputs(out), "ops": ops, "problems": problems}
    return results
