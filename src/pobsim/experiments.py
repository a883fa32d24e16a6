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

A paired trial is one loop over one trial state (netsim.trial_epochs):
the behaviors, delays, facts, activity and arrival order are drawn and
worked out once and shared, and each protocol's half elects, patches its
proposer's record, finds its quorum and runs its own slashes, review,
settlement, chain and fork on them. Each epoch yields the pob ledger,
then the pos one. Ledgers go through one writer state: the twins share
most of their columns, and the writer formats each shared column once
(netsim.ledger_to_json). A roster whose draws depend on the protocol
(netsim.shares_one_state) runs each protocol through that loop alone.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import sys
from contextlib import closing
from pathlib import Path
from typing import Optional, Sequence

from .config import (
    ScenarioConfig,
    apply_sweep_point,
    check_config,
    echo_config,
    with_overrides,
)
from .errors import ConfigError
from .metrics import (
    CSV_COLUMNS,
    TrialTally,
    aggregate,
    paired_loss_averted,
)
from .netsim import (
    EpochLedger,
    TraceBlock,
    check_trace,
    ledger_to_json,
    run_trial,  # noqa: F401  not called here, but benchmarks/bench_trace.py wraps it
    shares_one_state,
    trial_epochs,
)
from .weights import left_sum


def _trial_protocols(config: ScenarioConfig) -> list[str]:
    return ["pob", "pos"] if config.protocol == "paired" else [config.protocol]


def _ledger_writer(led_dir: Path, tally: TrialTally, last: dict):
    """A sink that tallies each ledger and writes it to `led_dir` with the writer state `last`."""
    led_dir.mkdir(parents=True, exist_ok=True)

    def sink(ledger: EpochLedger) -> None:
        tally.add(ledger)
        (led_dir / f"epoch-{ledger.epoch:05d}.json").write_text(
            ledger_to_json(ledger, last) + "\n", encoding="utf-8"
        )

    return sink


def _run_trial_task(
    config: ScenarioConfig,
    trial: int,
    trace: Optional[list[TraceBlock]],
    ledger_root: Optional[Path] = None,
) -> dict:
    """One trial, all protocols; returns picklable rows.

    The protocols run through one `trial_epochs` loop (see the module
    docstring). Each epoch's ledger is streamed into its protocol's
    metrics tally and, when `ledger_root` is given, written under it from
    this process.
    """
    seed = config.seed + trial
    protocols = _trial_protocols(config)
    tallies = {protocol: TrialTally(config, protocol) for protocol in protocols}
    sinks = {protocol: tallies[protocol].add for protocol in protocols}
    if ledger_root is not None:
        last: dict = {}  # the writer state every protocol shares (netsim.ledger_to_json)
        sinks = {protocol: _ledger_writer(ledger_root / f"trial-{trial:03d}-{protocol}",
                                          tallies[protocol], last) for protocol in protocols}
    groups = [protocols] if shares_one_state(config, trace) else [[p] for p in protocols]
    for group in groups:
        with closing(trial_epochs(config, seed, group, trace)) as epochs:
            for ledgers in epochs:
                for ledger in ledgers:
                    sinks[ledger.protocol](ledger)
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


def _run_tasks(workers: int, tasks: Sequence[tuple]) -> list[dict]:
    """Run `_run_trial_task(*task)` for every task: in a pool of
    min(workers, len(tasks)) processes when that is two or more, else here.

    Results come back in task order whatever the worker count. When a task
    fails, the tasks not yet started are cancelled before the error is raised.
    """
    workers = min(workers, len(tasks))
    if workers < 2:
        return [_run_trial_task(*task) for task in tasks]
    pool = sys.modules[__name__].ProcessPoolExecutor(max_workers=workers)  # as replaced, if so
    try:
        futures = [pool.submit(_run_trial_task, *task) for task in tasks]
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


def run_scenario(
    config: ScenarioConfig,
    out_dir: str | Path,
    trace: Optional[Sequence[TraceBlock]] = None,
) -> dict:
    """Run all trials, write outputs, return the summary mapping.

    Bad input fails as a ConfigError or TraceError before the output
    directory exists.
    """
    config = check_config(config)
    trace_list = list(trace) if trace is not None else None
    if trace_list is not None:
        check_trace(config, trace_list)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    ledger_root = out / "ledgers" if config.emit_ledgers else None
    results = _run_tasks(
        config.workers,
        [(config, trial, trace_list, ledger_root) for trial in range(config.trials)],
    )
    rows = [row for result in results for row in result["rows"]]
    rows.sort(key=lambda r: (r["trial"], r["protocol"]))

    (out / "config.echo").write_text(echo_config(config), encoding="utf-8")
    write_trials_csv(out / "trials.csv", rows)
    summary = _summarize(config, rows)
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return summary


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
    """Run every grid point and combine rows into one long-format CSV."""
    config = check_config(config)
    points = sweep_points(config)
    params = sorted(config.sweep)

    subs = [apply_sweep_point(config, point) for point in points]  # a bad point fails here
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Every (point, trial) task goes through one pool.
    results = iter(_run_tasks(
        config.workers,
        [(sub, trial, None) for sub in subs for trial in range(sub.trials)],
    ))

    all_rows: list[dict] = []
    summaries: dict[str, dict] = {}
    for point, sub in zip(points, subs):
        point_label = ",".join(f"{p}={point[p]}" for p in params)
        rows = [row for result in itertools.islice(results, sub.trials)
                for row in result["rows"]]
        rows.sort(key=lambda r: (r["trial"], r["protocol"]))
        for row in rows:
            for p in params:
                row[p] = point[p]
        all_rows.extend(rows)
        summaries[point_label] = _summarize(sub, rows)

    (out / "config.echo").write_text(echo_config(config), encoding="utf-8")
    write_trials_csv(out / "sweep.csv", all_rows, extra_columns=params)
    (out / "sweep_summary.json").write_text(
        json.dumps(summaries, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return summaries


def run_ic_check(
    config: ScenarioConfig,
    out_dir: str | Path,
    discount: float = 0.95,
) -> dict:
    """Run the empirical incentive comparison and write its report.

    Bad input fails as a ConfigError before the output directory exists.
    """
    from .incentive import empirical_ic, find_focal

    config = check_config(config)
    if not 0.0 < discount < 1.0:
        raise ConfigError("discount", f"{discount} outside (0, 1)")
    try:
        find_focal(config)
    except ValueError as exc:
        raise ConfigError("roster", str(exc)) from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = config if config.protocol == "pob" else with_overrides(config, protocol="pob")
    report = empirical_ic(base, discount=discount)
    (out / "config.echo").write_text(echo_config(config), encoding="utf-8")
    (out / "ic.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return report
