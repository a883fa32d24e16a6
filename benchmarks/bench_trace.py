"""Layer tracing and memory measurement for the benchmark's separate runs.

The tracer wraps pobsim functions where the calling modules look them up
(`pobsim.netsim.select_proposer`, `pobsim.experiments.run_trial`, ...),
so no file under src/ changes. Functions called once per trial or once
per epoch record a span (name, start, end, parent, trial id). Functions
called once per behavior or per validator only add to a count and a
time, because a span per call would cost more than the call.

Spans stay in memory and are written as JSON lines when the process
ends its run; pool workers write their own file at exit and the parent
merges every file before deriving the layer metrics.
"""

from __future__ import annotations

import concurrent.futures
import functools
import inspect
import json
import multiprocessing.util
import os
import sys
import time
import tracemalloc
from pathlib import Path

_ORIGINAL = "__bench_original__"

# Spans that make up a trial's work inside experiments.run_scenario/run_sweep.
TRIAL_WORK = ("netsim.run_trial", "metrics.compute_trial_metrics",
              "metrics.loss_averted", "netsim.ledger_to_json")
OUTSIDE_OUTPUT = TRIAL_WORK + ("config.apply_sweep_point",)
SCORING = ("scoring.total_utility", "scoring.outcome_utility", "scoring.diversity_index",
           "scoring.activeness", "scoring.flag_anomalous")


def _original(fn):
    return getattr(fn, _ORIGINAL, fn)


def _mark(wrapper, original):
    setattr(wrapper, _ORIGINAL, original)
    return wrapper


def _run_trial_args(original):
    """(config, protocol, epochs) of a run_trial call, whatever the call style."""
    signature = inspect.signature(original)

    def resolve(args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        config = bound["config"]
        trace = bound.get("trace")
        epochs = len(trace) if trace is not None else config.epochs
        return config, bound.get("protocol") or config.protocol, epochs

    return resolve


class Tracer:
    """Spans and per-call aggregates recorded in one process."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.aggregates: dict[str, list] = {}  # name -> [calls, seconds, items]
        self.trial_of: dict[int, str] = {}  # id(ledger) -> trial id
        self.missing: list[str] = []
        self._count = 0

    def span(self, name, fn, attrs=None, trial_root=False, trial_key=None):
        """Wrap `fn` so every call records one span."""
        original = _original(fn)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            tracer._count += 1
            rec = {"id": f"{tracer.pid}-{tracer._count}", "name": name, "pid": tracer.pid,
                   "parent": parent["id"] if parent else None,
                   "trial": parent["trial"] if parent else None, "agg_s": 0.0}
            if trial_root:
                rec["trial"] = rec["id"]
            elif rec["trial"] is None and trial_key is not None:
                rec["trial"] = tracer.trial_of.get(trial_key(args))
            tracer.stack.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append(rec)
            if attrs is not None:
                rec.update(attrs(rec, args, kwargs, result))
            return result

        return _mark(wrapper, original)

    def counted(self, name, fn, items=None):
        """Wrap `fn` so calls add to an aggregate count and time."""
        original = _original(fn)
        agg = self.aggregates.setdefault(name, [0, 0.0, 0])
        stack = self.stack
        perf = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = perf()
            result = original(*args, **kwargs)
            dt = perf() - t0
            agg[0] += 1
            agg[1] += dt
            if items is not None:
                agg[2] += items(args, result)
            if stack:
                stack[-1]["agg_s"] += dt
            return result

        return _mark(wrapper, original)

    def patch(self, owner, attr, make):
        """Replace `owner.attr` by `make(current)`; note names a refactor removed."""
        current = getattr(owner, attr, None)
        if current is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(current))

    def write(self, path: Path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            for name, (calls, seconds, items) in sorted(self.aggregates.items()):
                fh.write(json.dumps({"aggregate": name, "pid": self.pid, "calls": calls,
                                     "s": seconds, "items": items}) + "\n")


def install(tracer: Tracer, trace_dir: Path) -> None:
    """Wrap every traced pobsim function for `tracer`."""
    from pobsim import adversaries, chain, experiments, netsim, rng, weights

    t = tracer
    resolve = _run_trial_args(_original(experiments.run_trial))

    def trial_attrs(rec, args, kwargs, ledgers):
        config, protocol, epochs = resolve(args, kwargs)
        for ledger in ledgers:
            t.trial_of[id(ledger)] = rec["trial"]
        return {"protocol": protocol, "validator_epochs": config.n_validators * epochs,
                "behaviors": sum(len(l.behaviors) for l in ledgers)}

    def first_ledger(args):
        ledgers = args[0]
        return id(ledgers[0]) if ledgers else None

    t.patch(experiments, "run_trial", lambda f: t.span("netsim.run_trial", f, trial_attrs, trial_root=True))
    t.patch(experiments, "ledger_to_json", lambda f: t.span(
        "netsim.ledger_to_json", f, lambda r, a, k, out: {"bytes": len(out)},
        trial_key=lambda a: id(a[0])))
    t.patch(experiments, "compute_trial_metrics", lambda f: t.span(
        "metrics.compute_trial_metrics", f, trial_key=first_ledger))
    t.patch(experiments, "loss_averted", lambda f: t.span(
        "metrics.loss_averted", f, trial_key=first_ledger))
    t.patch(experiments, "apply_sweep_point", lambda f: t.span("config.apply_sweep_point", f))
    t.patch(experiments, "ProcessPoolExecutor", lambda f: traced_pool(f, trace_dir))

    t.patch(netsim, "parse_trace", lambda f: t.span("netsim.parse_trace", f))
    t.patch(netsim, "simulate_confirmation", lambda f: t.span("netsim.simulate_confirmation", f))
    t.patch(netsim, "select_proposer", lambda f: t.span("weights.select_proposer", f))
    t.patch(netsim, "update_weights", lambda f: t.span("weights.update_weights", f))
    t.patch(netsim, "pos_select_proposer", lambda f: t.span("baseline_pos.pos_select_proposer", f))
    t.patch(netsim, "process_epoch_suspicions", lambda f: t.span(
        "watchdog.process_epoch_suspicions", f,
        lambda r, a, k, out: {"sessions": len(out[1]), "guilty": sum(v.guilty for v in out[1])}))
    t.patch(netsim, "distribute", lambda f: t.span(
        "rewards.distribute", f, lambda r, a, k, out: {"payouts": len(out)}))
    t.patch(netsim, "extend_chain", lambda f: t.span("chain.extend_chain", f))

    for module in (netsim, chain):
        t.patch(module, "total_utility", lambda f: t.counted("scoring.total_utility", f))
    for name in ("outcome_utility", "diversity_index", "activeness", "flag_anomalous"):
        t.patch(netsim, name, lambda f, name=name: t.counted(f"scoring.{name}", f))
    t.patch(rng.RngHub, "stream", lambda f: t.counted("rng.RngHub.stream", f))
    t.patch(netsim, "pos_schedule_slash", lambda f: t.counted("baseline_pos.pos_schedule_slash", f))
    for cls in vars(adversaries).values():
        if isinstance(cls, type) and "behaviors" in vars(cls):
            t.patch(cls, "behaviors", lambda f: t.counted(
                "adversaries.behaviors", f, lambda a, out: len(out)))
    total = vars(weights.WeightTable).get("total")
    if isinstance(total, property):
        weights.WeightTable.total = property(t.counted("weights.WeightTable.total", total.fget))
    else:
        t.missing.append("WeightTable.total")


def traced_pool(pool_class, trace_dir: Path):
    """A pool class whose workers trace themselves and write spans at exit."""
    base = _original(pool_class)

    class TracedPool(base):
        def __init__(self, max_workers=None, mp_context=None, initializer=None,
                     initargs=(), **kwargs):
            super().__init__(max_workers, mp_context, _worker_init,
                             (str(trace_dir), initializer, initargs), **kwargs)

    return _mark(TracedPool, base)


def _worker_init(trace_dir: str, initializer, initargs) -> None:
    tracer = Tracer()
    install(tracer, Path(trace_dir))
    path = Path(trace_dir) / f"spans-{tracer.pid}.jsonl"
    # Pool workers leave through multiprocessing's exit path, which runs
    # these finalizers but not atexit handlers.
    multiprocessing.util.Finalize(None, tracer.write, args=(path,), exitpriority=10)
    if initializer is not None:
        initializer(*initargs)


def read_trace(trace_dir: Path) -> tuple[list[dict], dict[str, list]]:
    """Merge the span files of every process into spans and summed aggregates."""
    spans, aggregates = [], {}
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if "aggregate" in rec:
                agg = aggregates.setdefault(rec["aggregate"], [0, 0.0, 0])
                agg[0] += rec["calls"]
                agg[1] += rec["s"]
                agg[2] += rec["items"]
            else:
                spans.append(rec)
    return spans, aggregates


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(spans: list[dict], aggregates: dict, run_name: str, workers: int) -> dict:
    """Per-layer metrics from merged spans; values keyed by metric name."""
    by_name: dict[str, list[dict]] = {}
    children: dict[str, list[dict]] = {}
    for rec in spans:
        by_name.setdefault(rec["name"], []).append(rec)
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(rec)

    def dur(rec):
        return rec["end"] - rec["start"]

    def seconds(name):
        return sum(dur(r) for r in by_name.get(name, []))

    def total(name, key):
        return sum(r.get(key, 0) for r in by_name.get(name, []))

    def agg(name, field):
        return aggregates.get(name, [0, 0.0, 0])[field]

    trials = by_name.get("netsim.run_trial", [])
    validator_epochs = sum(r["validator_epochs"] for r in trials)
    behaviors = sum(r["behaviors"] for r in trials)
    (run,) = by_name[run_name]
    wall = dur(run)
    top = [r for r in spans if r["name"] in OUTSIDE_OUTPUT
           and (r["parent"] is None or r["parent"] == run["id"])]
    outside = _union_length((max(r["start"], run["start"]), min(r["end"], run["end"])) for r in top)
    sessions = total("watchdog.process_epoch_suspicions", "sessions")

    def per_ve(protocol):
        mine = [r for r in trials if r["protocol"] == protocol]
        ve = sum(r["validator_epochs"] for r in mine)
        return sum(dur(r) for r in mine) * 1e6 / ve if ve else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "netsim.run_trial.pob.us_per_validator_epoch": (per_ve("pob"), "us"),
        "netsim.run_trial.pos.us_per_validator_epoch": (per_ve("pos"), "us"),
        "netsim.run_trial.self_s": (sum(
            dur(r) - sum(dur(c) for c in children.get(r["id"], [])) - r["agg_s"]
            for r in trials), "s"),
        "netsim.simulate_confirmation.s": (seconds("netsim.simulate_confirmation"), "s"),
        "netsim.parse_trace.s": (seconds("netsim.parse_trace"), "s"),
        "netsim.ledger_to_json.calls": (len(by_name.get("netsim.ledger_to_json", [])), "count"),
        "netsim.ledger_to_json.s": (seconds("netsim.ledger_to_json"), "s"),
        "netsim.ledger_to_json.bytes": (total("netsim.ledger_to_json", "bytes"), "bytes"),
        "adversaries.behaviors.calls": (agg("adversaries.behaviors", 0), "count"),
        "adversaries.behaviors.s": (agg("adversaries.behaviors", 1), "s"),
        "adversaries.behaviors.records": (agg("adversaries.behaviors", 2), "count"),
        "scoring.total_utility.calls_per_behavior": (
            ratio(agg("scoring.total_utility", 0), behaviors), "ratio"),
        "scoring.diversity_index.calls_per_validator_epoch": (
            ratio(agg("scoring.diversity_index", 0), validator_epochs), "ratio"),
        "scoring.s": (sum(agg(name, 1) for name in SCORING), "s"),
        "rng.RngHub.stream.calls_per_validator_epoch": (
            ratio(agg("rng.RngHub.stream", 0), validator_epochs), "ratio"),
        "weights.select_proposer.s": (seconds("weights.select_proposer"), "s"),
        "weights.update_weights.s": (seconds("weights.update_weights"), "s"),
        "weights.WeightTable.total.calls": (agg("weights.WeightTable.total", 0), "count"),
        "baseline_pos.pos_select_proposer.s": (seconds("baseline_pos.pos_select_proposer"), "s"),
        "baseline_pos.slashes_scheduled": (agg("baseline_pos.pos_schedule_slash", 0), "count"),
        "watchdog.process_epoch_suspicions.s": (seconds("watchdog.process_epoch_suspicions"), "s"),
        "watchdog.process_epoch_suspicions.sessions": (sessions, "count"),
        "watchdog.process_epoch_suspicions.guilty_per_session": (
            ratio(total("watchdog.process_epoch_suspicions", "guilty"), sessions), "ratio"),
        "rewards.distribute.s": (seconds("rewards.distribute"), "s"),
        "rewards.distribute.payouts": (total("rewards.distribute", "payouts"), "count"),
        "chain.extend_chain.s": (seconds("chain.extend_chain"), "s"),
        "chain.extend_chain.blocks": (len(by_name.get("chain.extend_chain", [])), "count"),
        "metrics.compute_trial_metrics.s": (seconds("metrics.compute_trial_metrics"), "s"),
        "metrics.loss_averted.s": (seconds("metrics.loss_averted"), "s"),
        "experiments.output_s": (wall - outside, "s"),
        "experiments.busy_frac": (
            sum(dur(r) for r in top if r["name"] in TRIAL_WORK) / (wall * workers), "ratio"),
        "config.apply_sweep_point.s": (seconds("config.apply_sweep_point"), "s"),
    }


class MemoryMeasured(Exception):
    """Every protocol's first trial is measured; the rest of the run is not needed."""


class InlineExecutor(concurrent.futures.Executor):
    """Runs each task when it is submitted, in this process, where tracemalloc is."""

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, /, *args, **kwargs):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # raised to the caller by future.result(), as a pool does
            future.set_exception(exc)
        return future


def install_memory(results: dict, protocols) -> None:
    """Measure the first run_trial call of each protocol under tracemalloc.

    Tracing starts at the call, so the peak is the trial's own and what is
    still traced on return is what the returned ledgers keep alive. Once
    every protocol is measured the run stops with MemoryMeasured: the rest
    would only cost time (tracemalloc slows a trial about fivefold) and
    compete with the timed runs. Pool tasks run inline so that they are
    measured too.
    """
    from pobsim import experiments

    original = _original(experiments.run_trial)
    resolve = _run_trial_args(original)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        protocol = resolve(args, kwargs)[1]
        if protocol in results or tracemalloc.is_tracing():
            return original(*args, **kwargs)
        tracemalloc.start()
        try:
            ledgers = original(*args, **kwargs)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        results[protocol] = {"peak_mb": peak / 2**20, "retained_mb": current / 2**20}
        if set(protocols) <= set(results):
            raise MemoryMeasured
        return ledgers

    experiments.run_trial = _mark(wrapper, original)
    if hasattr(experiments, "ProcessPoolExecutor"):
        experiments.ProcessPoolExecutor = InlineExecutor


def memory_metrics(results: dict) -> dict:
    def mb(protocol, key):
        return results.get(protocol, {}).get(key, 0.0)

    return {
        "trial.peak_traced_mb.pob": (mb("pob", "peak_mb"), "MB"),
        "trial.peak_traced_mb.pos": (mb("pos", "peak_mb"), "MB"),
        "trial.retained_mb": (sum(r["retained_mb"] for r in results.values()), "MB"),
    }


def report_missing(tracer: Tracer) -> None:
    if tracer.missing:
        print(f"tracer: not found, reads 0: {', '.join(tracer.missing)}", file=sys.stderr)
