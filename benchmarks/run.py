"""pobsim benchmark: time, memory and golden outputs of three workloads.

Usage (from the repository root):
    python3 benchmarks/run.py --workload fairness-1000 [--seed 42] [--seconds 40] [--trace 0]
    python3 benchmarks/run.py --workload all
    python3 benchmarks/run.py --record-golden

Every measurement runs in a fresh interpreter (child.py). With --trace 0
the end-to-end metrics are medians over the repetitions that fit in
--seconds; with --trace 1 one untraced, one traced and one tracemalloc
run give the per-layer metrics. Outputs are checked against the digests
in golden.json, and every run also replays each preset at reduced scale
against its golden digests. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_workloads as bw

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
GOLDEN = BENCH_DIR / "golden.json"

SETUP_PROBES = 6  # set-up-only children per untraced run, on top of one per repetition
RUN_DEADLINE_S = 170.0  # a whole invocation stays under 180 s
OVERSHOOT = 1.15  # no repetition starts that is expected to end past this x --seconds


class ChildFailed(Exception):
    pass


def start_child(mode: str, workload: str, seed: int) -> subprocess.Popen:
    """Start child.py in its own session, so that its pool workers can be reaped."""
    out = OUT_ROOT / (workload if mode != "presets" else "presets") / mode
    return subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), mode, workload, str(seed), str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )


def finish_child(proc: subprocess.Popen, mode: str, deadline: float) -> dict:
    """Wait for a child until `deadline`; return its JSON result."""
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} child did not finish in time") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # anything the child left behind
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"{mode} child printed no result") from None


def run_child(mode: str, workload: str, seed: int, deadline: float) -> dict:
    return finish_child(start_child(mode, workload, seed), mode, deadline)


def load_golden() -> dict:
    if GOLDEN.is_file():
        return json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {"presets": {}, "workloads": {}}


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.info = ""  # how many samples the metrics rest on

    def add(self, ops: int, problems: list[str]) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            self.notes.extend(problems)


def check_presets(tally: Tally, golden: dict, deadline: float) -> dict:
    """Untimed reduced-scale run of every preset against golden digests."""
    try:
        presets = run_child("presets", "presets", 0, deadline)["presets"]
    except ChildFailed as exc:
        tally.add(max(1, len(golden["presets"])), [f"presets: {exc}"])
        return {}
    for name, res in presets.items():
        problems = [f"preset {name}: {p}" for p in res["problems"]]
        expected = golden["presets"].get(name)
        if expected is not None and expected != res["digests"]:
            problems.append(f"preset {name}: outputs differ from golden.json")
        tally.add(res["ops"], problems)
    missing = sorted(set(golden["presets"]) - set(presets))
    tally.add(len(missing), [f"preset {name}: not run" for name in missing])
    return presets


def check_run(tally: Tally, res: dict, label: str, reference: dict | None) -> None:
    problems = [f"{label}: {p}" for p in res["problems"]]
    if reference is not None and res["digests"] != reference:
        differ = sorted(k for k in set(res["digests"]) | set(reference)
                        if res["digests"].get(k) != reference.get(k))
        problems.append(f"{label}: outputs differ from the reference in {', '.join(differ)}")
    tally.add(res["ops"], problems)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Tally, dict]:
    """Run one workload; returns (metrics, tally, digests)."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    golden = load_golden()
    tally = Tally()
    check_presets(tally, golden, deadline)
    reference = golden["workloads"].get(workload, {}).get(str(seed))

    def workload_child(mode: str, label: str) -> dict | None:
        nonlocal reference
        try:
            res = run_child(mode, workload, seed, deadline)
        except ChildFailed as exc:
            tally.add(1, [f"{label}: {exc}"])
            return None
        check_run(tally, res, label, reference)
        reference = reference or res["digests"]  # later runs must repeat the first
        return res

    metrics: dict = {}
    if trace:
        # The tracemalloc run of fairness-1000 takes about five untraced
        # runs; one after the other, the three runs could pass 180 s on a
        # slow machine. So it starts with the untraced run and overlaps
        # both timed runs, which then see the same contention.
        memory_proc = start_child("memory", workload, seed)
        try:
            plain = workload_child("run", "untraced run")
            traced = workload_child("traced", "traced run")
            memory = finish_child(memory_proc, "memory", deadline)
        except ChildFailed as exc:
            tally.add(1, [f"memory run: {exc}"])
            memory = None
        finally:
            if memory_proc.poll() is None:
                os.killpg(memory_proc.pid, signal.SIGKILL)
                memory_proc.wait()
        for res in (traced, memory):
            if res is not None:
                metrics.update({k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()})
        if plain is not None and traced is not None:
            overhead = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
            metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        setups = []
        for _ in range(SETUP_PROBES):
            try:
                setups.append(run_child("setup", workload, seed, deadline)["setup_s"])
            except ChildFailed as exc:
                tally.add(1, [f"setup: {exc}"])
        reps: list[dict] = []
        measured = 0.0
        while measured < seconds:
            # Start no repetition expected to end past OVERSHOOT x --seconds,
            # so that a run's length stays near --seconds on a slow machine.
            if reps and (measured + last > OVERSHOOT * seconds
                         or time.monotonic() + 2 * last > deadline):
                break
            t0 = time.monotonic()
            res = workload_child("run", f"repetition {len(reps) + 1}")
            last = time.monotonic() - t0
            measured += last
            if res is None:
                break
            reps.append(res)
        setups += [r["setup_s"] for r in reps]
        if reps:
            def median(name, unit):
                return {"value": statistics.median(r[name] for r in reps), "unit": unit}

            metrics = {
                "wall_s": median("wall_s", "s"),
                "us_per_validator_epoch": median("us_per_validator_epoch", "us"),
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": median("peak_rss_mb", "MB"),
            }
        tally.info = f"medians of {len(reps)} repetition(s); setup_s of {len(setups)} samples"
    return metrics, tally, reference or {}


def report(workload: str, seed: int, metrics: dict, tally: Tally, digests: dict) -> dict:
    print(f"== {workload} seed={seed} {tally.info}")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:>16.6f} {m['unit']}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':52s} {frac:>16.6f} ratio ({tally.failed}/{tally.attempted})")
    for name, digest in sorted(digests.items()):
        print(f"  sha256 {name:44s} {digest}")
    for note in tally.notes:
        print(f"  FAILED {note}")
    return {
        "correct": tally.failed == 0 and tally.attempted > 0 and bool(metrics),
        "attempted": max(1, tally.attempted),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }


def record_golden(seed: int) -> int:
    """Rewrite golden.json from this commit's outputs."""
    golden = load_golden()
    deadline = time.monotonic() + 3600
    golden["presets"] = {name: res["digests"] for name, res in
                         run_child("presets", "presets", 0, deadline)["presets"].items()}
    for workload in bw.WORKLOADS:
        res = run_child("run", workload, seed, deadline)
        if res["problems"]:
            print(f"{workload}: {res['problems']}", file=sys.stderr)
            return 1
        golden["workloads"].setdefault(workload, {})[str(seed)] = res["digests"]
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(bw.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=bw.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json at --seed from this commit's outputs")
    args = parser.parse_args(argv)
    # Exit through the `finally` blocks that kill running children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "pobsim" / "__init__.py").is_file():
        print(f"error: no pobsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden(args.seed)
    if args.workload is None:
        parser.error("--workload is required")

    workloads = sorted(bw.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        metrics, tally, digests = measure(workload, args.seed, args.seconds, bool(args.trace))
        results.append((workload, report(workload, args.seed, metrics, tally, digests)))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{w}.{k}": m for w, r in results for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
