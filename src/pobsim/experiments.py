"""Monte-Carlo experiment runner: trials, sweeps, and output files.

A scenario runs `trials` independent seeded trials (optionally in
parallel processes; aggregation is order-normalized so worker count
never changes results). Paired scenarios run both protocols per trial
under common random numbers so per-trial differences are meaningful.

Outputs per run directory:
    config.echo   - every effective parameter, reloadable as a config
    trials.csv    - one row per (trial, protocol), frozen column set
    summary.json  - per-protocol aggregates plus paired comparisons
    ledgers/      - canonical per-epoch JSON (only with emit_ledgers),
                    written by the worker as each epoch finishes

A sweep writes `sweep.csv` and `sweep_summary.json` instead, through the
same flow (`_run_points`), with the rows and a summary of every grid point.

A trial task is one netsim.trial_epochs call, which decides whether both
protocols of a paired trial share one trial state (its behaviors, delays,
arrival order and epoch facts) or run a state each, and one loop over its
epochs: each epoch yields the pob ledger, then the pos one, as soon as it is
done, and the loop adds each to its protocol's tally and, with ledgers on,
writes it. Ledgers go through one writer state: the twins share most of their
columns, and the writer formats each shared column once (ledger.ledger_to_json).
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import sys
from contextlib import closing
from pathlib import Path
from typing import Callable, Optional, Sequence

from .config import (
    ScenarioConfig,
    apply_sweep_point,
    echo_config,
)
from .errors import ConfigError
from .ledger import ledger_to_json
from .metrics import (
    CSV_COLUMNS,
    TrialTally,
    aggregate,
    paired_loss_averted,
)
from .netsim import (
    run_trial,  # noqa: F401  not called here, but benchmarks/bench_trace.py wraps it
    trial_epochs,
)
from .trace import TraceBlock, check_trace
from .weights import left_sum


def _trial_protocols(config: ScenarioConfig) -> list[str]:
    return ["pob", "pos"] if config.protocol == "paired" else [config.protocol]


def _run_trial_task(
    config: ScenarioConfig,
    trial: int,
    trace: Optional[list[TraceBlock]],
    ledger_root: Optional[Path] = None,
) -> dict:
    """One trial, all protocols; returns picklable rows.

    The protocols run through one `trial_epochs` call (see the module
    docstring), and one loop takes each epoch's ledgers: it adds each to its
    protocol's metrics tally and, when `ledger_root` is given, writes it
    under that root from this process, through one writer state.
    """
    seed = config.seed + trial
    protocols = _trial_protocols(config)
    tallies = {protocol: TrialTally(config, protocol) for protocol in protocols}
    dirs = {} if ledger_root is None else {
        protocol: ledger_root / f"trial-{trial:03d}-{protocol}" for protocol in protocols}
    for led_dir in dirs.values():
        led_dir.mkdir(parents=True, exist_ok=True)
    last: dict = {}  # the writer state every protocol shares (ledger.ledger_to_json)
    with closing(trial_epochs(config, seed, protocols, trace)) as epochs:
        for ledgers in epochs:
            for ledger in ledgers:
                tallies[ledger.protocol].add(ledger)
                if dirs:
                    (dirs[ledger.protocol] / f"epoch-{ledger.epoch:05d}.json").write_text(
                        ledger_to_json(ledger, last) + "\n", encoding="utf-8")
    rows = [{"trial": trial, "seed": seed, "protocol": protocol,
             "metrics": tallies[protocol].metrics()} for protocol in protocols]
    if config.protocol == "paired":
        rows[0]["metrics"].loss_averted = paired_loss_averted(  # the pob row
            tallies["pob"], tallies["pos"])
    return {"trial": trial, "rows": rows}


def __getattr__(name: str):
    """`ProcessPoolExecutor`, imported on first use, so a run without a pool does not load
    it. benchmarks/bench_trace.py and the tests replace it here."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _run_tasks(fn: Callable, workers: int, tasks: Sequence[tuple]) -> list:
    """Run `fn(*task)` for every task (`_run_trial_task`, or ic-check's
    `incentive._focal_arm`): in a pool of min(workers, len(tasks)) processes
    when that is two or more, else here.

    Results come back in task order whatever the worker count. When a task
    fails, the tasks not yet started are cancelled before the error is raised.
    """
    workers = min(workers, len(tasks))
    if workers < 2:
        return [fn(*task) for task in tasks]
    pool = sys.modules[__name__].ProcessPoolExecutor(max_workers=workers)  # as replaced, if so
    try:
        futures = [pool.submit(fn, *task) for task in tasks]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_trials_csv(path: Path, rows: Sequence[dict], extra_columns: Sequence[str] = ()) -> None:
    columns = list(extra_columns) + list(CSV_COLUMNS)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            record = {"trial": row["trial"], "seed": row["seed"], "protocol": row["protocol"],
                      **dataclasses.asdict(row["metrics"])}
            for col in extra_columns:
                record[col] = row.get(col)
            writer.writerow([_format_cell(record.get(c)) for c in columns])


def _summarize(config: ScenarioConfig, rows: Sequence[dict]) -> dict:
    summary: dict = {"scenario": config.name, "trials": config.trials, "protocols": {}}
    for protocol in _trial_protocols(config):
        per_trial = [r["metrics"] for r in rows if r["protocol"] == protocol]
        summary["protocols"][protocol] = aggregate(per_trial)
    if config.protocol == "paired":
        pob = {r["trial"]: r["metrics"] for r in rows if r["protocol"] == "pob"}
        pos = {r["trial"]: r["metrics"] for r in rows if r["protocol"] == "pos"}
        trials = sorted(pob)
        far_pairs = [
            (pob[t].far, pos[t].far)
            for t in trials
            if pob[t].far is not None and pos[t].far is not None
        ]
        sup_pairs = [(pob[t].suppression_blocks, pos[t].suppression_blocks) for t in trials]
        summary["paired"] = {
            "far_gap_all_trials": bool(far_pairs) and all(a < b for a, b in far_pairs),
            "loss_averted_positive_all_trials": all(
                pob[t].loss_averted is not None and pob[t].loss_averted > 0 for t in trials
            ),
            "suppression_faster_all_trials": all(
                a is not None and (b is None or a < b) for a, b in sup_pairs
            ),
            "latency_overhead_frac": _latency_overhead(pob, pos, trials),
        }
    return summary


def _latency_overhead(pob: dict, pos: dict, trials: Sequence[int]) -> Optional[float]:
    pob_mean = [pob[t].mean_latency_ms for t in trials]
    pos_mean = [pos[t].mean_latency_ms for t in trials]
    if not pob_mean or not pos_mean:
        return None
    base = left_sum(pos_mean) / len(pos_mean)
    if base <= 0:
        return None
    return (left_sum(pob_mean) / len(pob_mean) - base) / base


def _run_points(config: ScenarioConfig, out_dir: str | Path, points: Sequence[dict],
                subs: Sequence[ScenarioConfig], trace: Optional[list[TraceBlock]] = None) -> dict:
    """Run every trial of each grid point's config in `subs`, in one pool, and write
    the run directory: a scenario is the one point {} of `config` itself, a sweep
    keys each point's summary by its label. Each point's rows are sorted by
    (trial, protocol) and carry the point's values."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ledger_root = out / "ledgers" if config.emit_ledgers else None
    results = iter(_run_tasks(
        _run_trial_task, config.workers,
        [(sub, trial, trace, ledger_root) for sub in subs for trial in range(sub.trials)],
    ))
    params = sorted(config.sweep or ())
    all_rows: list[dict] = []
    summaries: dict[str, dict] = {}
    for point, sub in zip(points, subs):
        rows = [row for result in itertools.islice(results, sub.trials)
                for row in result["rows"]]
        rows.sort(key=lambda r: (r["trial"], r["protocol"]))
        for row in rows:
            row.update(point)
        all_rows.extend(rows)
        summaries[",".join(f"{p}={point[p]}" for p in params)] = _summarize(sub, rows)

    if config.sweep:
        csv_name, summary_name, summary = "sweep.csv", "sweep_summary.json", summaries
    else:
        csv_name, summary_name, summary = "trials.csv", "summary.json", summaries[""]
    (out / "config.echo").write_text(echo_config(config), encoding="utf-8")
    write_trials_csv(out / csv_name, all_rows, extra_columns=params)
    (out / summary_name).write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return summary


def run_scenario(
    config: ScenarioConfig,
    out_dir: str | Path,
    trace: Optional[Sequence[TraceBlock]] = None,
) -> dict:
    """Run all trials, write outputs, return the summary mapping.

    `config` was checked when it was made. A trace that does not fit it
    fails as a TraceError before the output directory exists, and so does
    a sweep grid (a ConfigError), which only `run_sweep` runs.
    """
    if config.sweep:
        raise ConfigError("sweep", "one scenario run ignores the grid; run it as a sweep")
    trace_list = list(trace) if trace is not None else None
    if trace_list is not None:
        check_trace(config, trace_list)
    return _run_points(config, out_dir, [{}], [config], trace_list)


def sweep_points(config: ScenarioConfig) -> list[dict]:
    """Cartesian product of the sweep grid, deterministically ordered."""
    if not config.sweep:
        raise ConfigError("sweep", "scenario has no sweep grid")
    params = sorted(config.sweep)
    points = []
    for combo in itertools.product(*(config.sweep[p] for p in params)):
        points.append(dict(zip(params, combo)))
    return points


def run_sweep(config: ScenarioConfig, out_dir: str | Path) -> dict:
    """Run every grid point and combine rows into one long-format CSV.

    `config`, and with it every grid value, was checked when it was made.
    A sweep writes no ledgers, so `emit_ledgers` is a ConfigError before
    the output directory exists.
    """
    if config.emit_ledgers:
        raise ConfigError("emit_ledgers", "a sweep writes no ledgers")
    points = sweep_points(config)
    subs = [apply_sweep_point(config, point) for point in points]  # each checked as it is made
    return _run_points(config, out_dir, points, subs)


def run_ic_check(
    config: ScenarioConfig,
    out_dir: str | Path,
    discount: float = 0.95,
) -> dict:
    """Run the empirical incentive comparison and write its report.

    `config` was checked when it was made. A sweep grid, `emit_ledgers`
    (which it does not use), a bad `discount` and a roster with no deviator
    fail as a ConfigError before the output directory exists.
    """
    from .incentive import empirical_ic, find_focal

    for name in ("sweep", "emit_ledgers"):
        if getattr(config, name):
            raise ConfigError(name, "ic-check does not use it")
    if not 0.0 < discount < 1.0:
        raise ConfigError("discount", f"{discount} outside (0, 1)")
    try:
        find_focal(config)
    except ValueError as exc:
        raise ConfigError("roster", str(exc)) from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = empirical_ic(config, discount=discount)
    (out / "config.echo").write_text(echo_config(config), encoding="utf-8")
    (out / "ic.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return report
