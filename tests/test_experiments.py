import csv
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import pobsim
from pobsim import experiments
from pobsim.adversaries import StrategySpec
from pobsim.config import RosterEntry, ScenarioConfig, loads_config, with_overrides
from pobsim.errors import ConfigError, TraceError
from pobsim.experiments import run_ic_check, run_scenario, run_sweep, sweep_points
from pobsim.metrics import CSV_COLUMNS
from pobsim.netsim import TraceBlock, parse_trace
from pobsim.scoring import ActionKind


def tiny_paired(**kw):
    defaults = dict(
        protocol="paired", n_validators=10, epochs=25, trials=2, seed=5,
        name="tiny",
        roster=(RosterEntry(9, 10, StrategySpec("stealth",
                                                {"fraud_rate": 0.2, "fraud_value": 10.0})),),
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestRunScenario:
    def test_outputs_written(self, tmp_path):
        summary = run_scenario(tiny_paired(), tmp_path)
        assert (tmp_path / "trials.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "config.echo").exists()
        assert set(summary["protocols"]) == {"pob", "pos"}

    def test_csv_header_frozen(self, tmp_path):
        run_scenario(tiny_paired(), tmp_path)
        header = (tmp_path / "trials.csv").read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_rows_per_trial_and_protocol(self, tmp_path):
        cfg = tiny_paired(trials=3)
        run_scenario(cfg, tmp_path)
        with open(tmp_path / "trials.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert {r["protocol"] for r in rows} == {"pob", "pos"}

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_paired()
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        assert (tmp_path / "a/trials.csv").read_bytes() == (tmp_path / "b/trials.csv").read_bytes()
        assert (tmp_path / "a/summary.json").read_bytes() == (tmp_path / "b/summary.json").read_bytes()

    def test_parallel_equals_serial(self, tmp_path):
        serial = tiny_paired()
        parallel = with_overrides(serial, workers=2)
        run_scenario(serial, tmp_path / "serial")
        run_scenario(parallel, tmp_path / "parallel")
        assert (tmp_path / "serial/trials.csv").read_bytes() == (
            tmp_path / "parallel/trials.csv"
        ).read_bytes()

    def test_single_trial_no_ci(self, tmp_path):
        summary = run_scenario(tiny_paired(trials=1), tmp_path)
        far = summary["protocols"]["pob"]["far"]
        assert far["ci95"] is None and far["n"] == 1

    def test_emit_ledgers(self, tmp_path):
        cfg = tiny_paired(trials=1, epochs=4, emit_ledgers=True)
        run_scenario(cfg, tmp_path)
        led_dir = tmp_path / "ledgers" / "trial-000-pob"
        files = sorted(led_dir.iterdir())
        assert len(files) == 4
        payload = json.loads(files[0].read_text())
        assert payload["epoch"] == 0

    def test_config_echo_reloadable(self, tmp_path):
        cfg = tiny_paired()
        run_scenario(cfg, tmp_path)
        reloaded = loads_config((tmp_path / "config.echo").read_text())
        assert reloaded.n_validators == cfg.n_validators
        assert reloaded.roster == cfg.roster


class TestRunSweep:
    def test_missing_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_sweep(tiny_paired(), tmp_path)

    def test_point_ordering_deterministic(self):
        cfg = tiny_paired(sweep={"rho": [0.9, 0.5], "delta": [0.0, 0.1]})
        points = sweep_points(cfg)
        assert points[0] == {"delta": 0.0, "rho": 0.9}
        assert len(points) == 4

    def test_single_point_matches_run_scenario(self, tmp_path):
        base = tiny_paired(protocol="pob")
        swept = with_overrides(base, sweep={"rho": [0.9]})
        run_scenario(base, tmp_path / "plain")
        run_sweep(swept, tmp_path / "swept")
        with open(tmp_path / "plain/trials.csv") as fh:
            plain = list(csv.DictReader(fh))
        with open(tmp_path / "swept/sweep.csv") as fh:
            sweep_rows = list(csv.DictReader(fh))
        assert len(plain) == len(sweep_rows)
        for a, b in zip(plain, sweep_rows):
            for col in CSV_COLUMNS:
                assert a[col] == b[col]

    def test_long_format_keyed_by_parameters(self, tmp_path):
        cfg = tiny_paired(protocol="pob", epochs=10,
                          sweep={"rho": [0.5, 0.9]})
        run_sweep(cfg, tmp_path)
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["rho"] for r in rows} == {"0.5", "0.9"}
        assert len(rows) == 4  # 2 points x 2 trials

    def test_parallel_sweep_equals_serial(self, tmp_path):
        cfg = tiny_paired(epochs=10, sweep={"rho": [0.5, 0.9], "delta": [0.0, 0.1]})
        run_sweep(cfg, tmp_path / "serial")
        run_sweep(with_overrides(cfg, workers=2), tmp_path / "parallel")
        for name in ("sweep.csv", "sweep_summary.json"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes()

    def test_bad_sweep_point_fails_before_output(self, tmp_path):
        cfg = tiny_paired(epochs=5, sweep={"rho": [0.5], "delta": [0.1, 2.0]})
        with pytest.raises(ConfigError, match="sweep.delta"):
            run_sweep(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_parallel_sweep_uses_one_pool(self, tmp_path, pools):
        cfg = tiny_paired(epochs=5, workers=2, sweep={"rho": [0.5, 0.9]})
        run_sweep(cfg, tmp_path)
        assert pools == [2]


@pytest.fixture()
def pools(monkeypatch):
    """The `max_workers` of every pool `_run_tasks` makes; each is a real process pool."""
    made = []
    real_pool = experiments.ProcessPoolExecutor  # imported on first use; replaced here

    class CountingPool(real_pool):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    return made


class TestPool:
    def test_one_trial_at_two_workers_makes_no_pool(self, tmp_path, pools):
        run_scenario(tiny_paired(trials=1, epochs=5, workers=2), tmp_path)
        assert pools == []

    def test_pool_has_no_more_processes_than_tasks(self, pools):
        results = experiments._run_tasks(8, [(tiny_paired(epochs=5), t, None) for t in range(3)])
        assert [r["trial"] for r in results] == [0, 1, 2]
        assert pools == [3]

    def test_failed_task_cancels_the_queued_ones(self, monkeypatch):
        """The first failure shuts the pool down with cancel_futures, so the
        trials queued behind it never run."""
        shutdowns, futures = [], []

        class RecordingPool(experiments.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                return futures[-1]

            def shutdown(self, *args, **kwargs):
                shutdowns.append(kwargs)
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        slow = tiny_paired(trials=1, epochs=200)
        tasks = [(tiny_paired(trials=1), 0, UNKNOWN_PROPOSER, None)]
        tasks += [(slow, t, None) for t in range(1, 13)]
        with pytest.raises(TraceError, match="vXXXX"):
            experiments._run_tasks(2, tasks)
        assert shutdowns == [{"cancel_futures": True}]
        assert any(f.cancelled() for f in futures)


# Imports pobsim as a run does and runs a 3-epoch preset config in-process;
# prints which of the modules a run does not use were loaded.
RUN_IMPORTS = """
import sys, tempfile
import pobsim, pobsim.cli, pobsim.presets
from pobsim.config import with_overrides
from pobsim.experiments import run_scenario
preset = pobsim.presets.builtin_presets()["case-a-stealth"].build()
with tempfile.TemporaryDirectory() as out:
    run_scenario(with_overrides(preset, epochs=3, trials=2, workers=1), out)
print(sorted({"yaml", "concurrent.futures.process", "multiprocessing"} & set(sys.modules)))
"""


def test_a_run_loads_no_yaml_and_no_pool():
    src = str(Path(pobsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", RUN_IMPORTS], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestIcCheckRunner:
    def test_writes_report(self, tmp_path):
        cfg = tiny_paired(protocol="pob", epochs=20)
        report = run_ic_check(cfg, tmp_path)
        assert (tmp_path / "ic.json").exists()
        saved = json.loads((tmp_path / "ic.json").read_text())
        assert saved["focal"] == report["focal"] == "v0009"


class TestEntryPointsCheckConfig:
    @pytest.mark.parametrize("entry", [run_scenario, run_sweep, run_ic_check])
    def test_config_built_in_python_fails_before_output(self, entry, tmp_path):
        cfg = ScenarioConfig(protocol="pob", n_validators=5, newcomer_epoch=0,
                             sweep={"rho": [0.5]})
        out = tmp_path / "out"
        with pytest.raises(ConfigError) as err:
            entry(cfg, out)
        assert err.value.field == "newcomer_epoch"
        assert not out.exists()


UNKNOWN_PROPOSER = [TraceBlock(0, "v0001", ActionKind.PROPOSE, 1.0, 1.0, 1.0, False),
                    TraceBlock(1, "vXXXX", ActionKind.PROPOSE, 1.0, 1.0, 1.0, False)]


class TestBadInputBeforeOutput:
    def test_errors_pickle_as_themselves(self):
        for error, attr, value in ((ConfigError("roster[0]", "bad"), "field", "roster[0]"),
                                   (TraceError(7, "bad"), "line_no", 7)):
            copy = pickle.loads(pickle.dumps(error))
            assert type(copy) is type(error)
            assert (str(copy), getattr(copy, attr)) == (str(error), value)

    def test_trace_error_in_a_worker_reaches_the_caller(self, pools):
        with pytest.raises(TraceError, match="trace line 2: proposer 'vXXXX'"):
            experiments._run_tasks(2, [(tiny_paired(trials=1), t, UNKNOWN_PROPOSER, None)
                                       for t in range(2)])
        assert pools == [2]  # two tasks, so the error crossed a process

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unknown_trace_proposer(self, workers, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(TraceError, match="vXXXX"):
            run_scenario(tiny_paired(workers=workers), out, trace=UNKNOWN_PROPOSER)
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trace_naming_an_adaptive_sybil_member(self, workers, tmp_path):
        """pob may retire the member before its block, so the trace is refused up front."""
        sybils = (RosterEntry(8, 10, StrategySpec("adaptive-sybil")),)
        config = tiny_paired(protocol="pob", roster=sybils, workers=workers)
        proposers = ["v0001", "v0002", "v0003", "v0008", "v0004"]
        trace = parse_trace([f"{h},{p},propose-block,1.0,1.0,1.0,0"
                             for h, p in enumerate(proposers)])
        out = tmp_path / "out"
        with pytest.raises(TraceError, match=r"trace line 4: proposer 'v0008' .*adaptive-sybil"):
            run_scenario(config, out, trace=trace)
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_override_naming_an_adaptive_sybil_member(self, workers, tmp_path):
        """The override is held to the trace's rule: pob retires a convicted member,
        and a retired id cannot go on being elected."""
        sybils = (RosterEntry(8, 10, StrategySpec("adaptive-sybil")),)
        config = tiny_paired(protocol="pob", epochs=12, roster=sybils, workers=workers,
                             proposer_override=("v0008", 0, 12))
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="adaptive-sybil member") as err:
            run_scenario(config, out)
        assert err.value.field == "proposer_override.validator"
        assert not out.exists()

    def test_paired_adaptive_sybil_is_refused_at_load(self):
        sybils = (RosterEntry(9, 10, StrategySpec("adaptive-sybil")),)
        with pytest.raises(ConfigError) as err:
            with_overrides(tiny_paired(protocol="pob", roster=sybils), protocol="paired")
        assert err.value.field == "roster[0]"
        for protocol in ("pob", "pos"):
            assert with_overrides(tiny_paired(protocol=protocol, roster=sybils)).roster == sybils
