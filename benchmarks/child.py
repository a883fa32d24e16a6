"""One measurement in a fresh interpreter, started by run.py.

Usage: child.py MODE WORKLOAD SEED OUT_DIR
MODE is `setup` (set-up only), `run` (untraced), `traced`, `memory` or
`presets` (reduced-scale golden run of every preset; WORKLOAD and SEED
are ignored). The result is one JSON object on the last stdout line.

Only the standard modules the interpreter has already loaded are imported
before the set-up timer starts, so `setup_s` includes every import pobsim
pays for.
"""

import os
import sys
import time


def main() -> int:
    mode, workload, seed, out = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    t0 = time.perf_counter()
    import pobsim  # noqa: F401  (the package import is part of set-up)
    from pobsim import experiments, netsim
    from pobsim.config import with_overrides
    from pobsim.presets import builtin_presets, bundled_trace_path
    import_s = time.perf_counter() - t0

    import json
    import resource
    import shutil
    from pathlib import Path
    from types import SimpleNamespace

    import bench_trace
    import bench_workloads as bw

    out = Path(out)
    run = bw.run
    tracer = bench_trace.Tracer()
    trace_dir = out / "trace"
    if mode == "traced":
        bench_trace.install(tracer, bw.fresh_dir(trace_dir))
        run = tracer.span("experiments.run", bw.run)
    # Looked up after install, so that a traced run times parse_trace.
    api = SimpleNamespace(builtin_presets=builtin_presets, with_overrides=with_overrides,
                          parse_trace=netsim.parse_trace, bundled_trace_path=bundled_trace_path)
    if mode == "presets":
        print(json.dumps({"presets": bw.preset_checks(api, experiments, out)}))
        return 0

    t1 = time.perf_counter()
    config, trace = bw.build(workload, seed, api)
    setup_s = import_s + time.perf_counter() - t1
    result = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    run_dir = bw.fresh_dir(out / "outputs")
    if mode == "memory":
        memory: dict = {}
        bench_trace.install_memory(memory, bw.protocols(config))
        try:
            run(config, trace, run_dir, experiments)
        except bench_trace.MemoryMeasured:
            pass
        shutil.rmtree(run_dir)
        print(json.dumps({"layers": bench_trace.memory_metrics(memory)}))
        return 0
    os.sync()  # write back earlier runs' files now, not inside the timed call
    t2 = time.perf_counter()
    run(config, trace, run_dir, experiments)
    wall_s = time.perf_counter() - t2
    ops, validator_epochs = bw.nominal_work(config, trace)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update({
        "wall_s": wall_s,
        "us_per_validator_epoch": wall_s * 1e6 / validator_epochs,
        "peak_rss_mb": rss_kb / 1024,
        "ops": ops,
        "digests": bw.digest_outputs(run_dir),
        "problems": bw.check_outputs(config, trace, run_dir),
    })
    shutil.rmtree(run_dir)  # replay-ledgers writes about 100 MB per run
    if mode == "traced":
        tracer.write(trace_dir / f"spans-{tracer.pid}.jsonl")
        bench_trace.report_missing(tracer)
        spans, aggregates = bench_trace.read_trace(trace_dir)
        result["layers"] = bench_trace.layer_metrics(
            spans, aggregates, "experiments.run", config.workers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
