import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pobsim
from pobsim.adversaries import StrategySpec
from pobsim.cli import main
from pobsim.config import RosterEntry, ScenarioConfig, echo_config, loads_config, with_overrides
from pobsim.errors import ConfigError
from pobsim.presets import builtin_presets

TINY = """\
protocol: paired
n_validators: 10
name: cli-tiny
epochs: 15
trials: 2
roster:
  - {range: [9, 10], kind: stealth, params: {fraud_rate: 0.2, fraud_value: 10.0}}
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY)
    return path


class TestCli:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        names = [line.split()[0] for line in out.strip().splitlines()]
        assert len(names) == 10
        assert "case-a-stealth" in names and "ic-check" in names

    def test_run_writes_outputs(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(tiny_config), "--out", str(out)]) == 0
        assert (out / "trials.csv").exists()
        assert (out / "summary.json").exists()

    def test_run_with_overrides(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(tiny_config), "--out", str(out),
                     "--trials", "1", "--epochs", "5", "--seed", "9"]) == 0
        rows = (out / "trials.csv").read_text().splitlines()
        assert len(rows) == 1 + 2  # header + pob + pos

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("protocol: pob\nn_validators: 10\nrho: 7\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 2

    def test_unknown_preset(self):
        assert main(["preset", "case-z"]) == 1

    @pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--epochs", "-5"),
                                            ("--workers", "0")])
    def test_bad_override_exit_code(self, flag, value, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["preset", "case-a-stealth", "--out", str(out), flag, value]) == 1
        assert flag[2:] in capsys.readouterr().err
        assert not out.exists()

    def test_preset_smoke(self, tmp_path):
        out = tmp_path / "preset-out"
        code = main(["preset", "case-a-stealth", "--out", str(out),
                     "--trials", "1", "--epochs", "10"])
        assert code == 0
        assert (out / "trials.csv").exists()

    def test_replay_smoke(self, tiny_config, tmp_path):
        trace = tmp_path / "trace.txt"
        lines = [f"{h},v{h % 10:04d},propose-block,1.0,1.0,0.9,0" for h in range(8)]
        trace.write_text("\n".join(lines) + "\n")
        out = tmp_path / "replay-out"
        assert main(["replay", str(trace), str(tiny_config), "--out", str(out),
                     "--trials", "1"]) == 0
        assert (out / "trials.csv").exists()

    def test_replay_bad_trace(self, tiny_config, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("0,v0000,propose-block,1.0\n")
        assert main(["replay", str(trace), str(tiny_config)]) == 1

    def test_replay_echoes_the_epochs_it_runs(self, tiny_config, tmp_path):
        # The config sets `epochs: 15`; a replay runs one epoch per trace block.
        trace = tmp_path / "trace.txt"
        trace.write_text("0,v0001,propose-block,1.0,1.0,1.0,0\n1,v0002,propose-block,1.0,1.0,1.0,0\n")
        out = tmp_path / "replay-out"
        assert main(["replay", str(trace), str(tiny_config), "--out", str(out),
                     "--trials", "1", "--ledgers"]) == 0
        echo = (out / "config.echo").read_text().splitlines()
        assert "epochs: 2" in echo and "epochs: 15" not in echo
        assert len(list((out / "ledgers").rglob("*.json"))) == 2 * 2  # per protocol
        preset_out = tmp_path / "preset-out"
        assert main(["preset", "case-c-replay", "--out", str(preset_out), "--trials", "1"]) == 0
        assert "epochs: 1000" in (preset_out / "config.echo").read_text().splitlines()

    def test_sweep_command(self, tmp_path):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(TINY.replace("protocol: paired", "protocol: pob")
                       + "sweep:\n  rho: [0.5, 0.9]\n")
        out = tmp_path / "sweep-out"
        assert main(["sweep", str(cfg), "--out", str(out), "--trials", "1",
                     "--epochs", "5"]) == 0
        assert (out / "sweep.csv").exists()

    def test_sweep_out_of_range_point_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(TINY.replace("protocol: paired", "protocol: pob")
                       + "sweep:\n  rho: [0.5, 1.5]\n")
        out = tmp_path / "sweep-out"
        assert main(["sweep", str(cfg), "--out", str(out), "--trials", "1",
                     "--epochs", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sweep.rho" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        "proposer_override: {validator: zzz, from_epoch: 0, to_epoch: 3}\n",
        "proposer_override: {validator: v0001, from_epoch: 4, to_epoch: 2}\n",
        "proposer_override: {validator: v0001, from_epoch: 4, to_epoch: 4}\n",
        "motivation_intensities: {propose-block: [0.5]}\n",
    ])
    def test_cross_field_config_error_exit_code(self, extra, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(TINY + extra)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_ic_check_command(self, tmp_path, capsys):
        cfg = tmp_path / "ic.yaml"
        cfg.write_text(TINY.replace("protocol: paired", "protocol: pob"))
        out = tmp_path / "ic-out"
        assert main(["ic-check", str(cfg), "--out", str(out), "--epochs", "10",
                     "--trials", "1"]) == 0
        report = json.loads((out / "ic.json").read_text())
        assert "ic_holds" in report
        assert "ic-check:" in capsys.readouterr().out

    @pytest.mark.parametrize("config_text,extra,field", [
        # a roster without a deviating validator has no focal validator
        ("protocol: pob\nn_validators: 5\nepochs: 3\ntrials: 1\n", [], "roster"),
        (TINY.replace("protocol: paired", "protocol: pob"), ["--discount", "1.5"], "discount"),
    ])
    def test_ic_check_bad_input_exit_code(self, config_text, extra, field, tmp_path, capsys):
        cfg = tmp_path / "ic.yaml"
        cfg.write_text(config_text)
        out = tmp_path / "ic-out"
        assert main(["ic-check", str(cfg), "--out", str(out)] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unexpected_exception_is_one_line_exit_2(self, tiny_config, tmp_path,
                                                     monkeypatch, capsys):
        import pobsim.cli

        def broken_run(*args, **kwargs):
            raise KeyError("v0042")

        monkeypatch.setattr(pobsim.cli, "run_scenario", broken_run)
        assert main(["run", str(tiny_config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "error: KeyError: 'v0042'\n"


BAD_STRATEGY_PARAMS = [
    ("stealth", "{fraud_rate: [0.1]}", "not a number"),
    ("stealth", "{fraud_rate: null}", "not a number"),
    ("stealth", "{fraud_value: true}", "not a number"),
    ("griefing", "{empty_block_run: 2.5}", "not a whole number"),
    ("sybil-burst", "{burst_epoch: 7.5}", "not a whole number"),
    ("stealth", "{fraud_value: .inf}", "not finite"),
    ("adaptive-sybil", "{join_weight: .inf}", "not finite"),
    ("griefing", "{utility_epsilon: .inf}", "not finite"),
    ("stealth", "{fraud_value: .nan}", "not finite"),
    ("stealth", "{fraud_rate: 0}", "fraud_rate=0 outside"),
    ("long-range-fork", "{fraud_rate: 0.0}", "fraud_rate=0.0 outside"),
]


@pytest.mark.parametrize("kind,params,message", BAD_STRATEGY_PARAMS,
                         ids=["list", "null", "bool", "fractional-run", "fractional-epoch",
                              "inf-fraud-value", "inf-join-weight", "inf-utility-epsilon",
                              "nan-fraud-value", "zero-fraud-rate", "zero-fork-fraud-rate"])
def test_bad_strategy_param_is_a_config_error(kind, params, message, tmp_path, capsys):
    text = TINY.replace("kind: stealth, params: {fraud_rate: 0.2, fraud_value: 10.0}",
                        f"kind: {kind}, params: {params}")
    with pytest.raises(ConfigError, match=message) as err:
        loads_config(text)
    assert err.value.field == "roster[0]"
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'roster[0]'") and message in err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_unpairable_roster_and_unknown_trace_proposer_exit_1_without_output(
        workers, tmp_path, capsys):
    paired_sybils = tmp_path / "paired-sybils.yaml"
    paired_sybils.write_text(TINY.replace("kind: stealth, params: {fraud_rate: 0.2, "
                                          "fraud_value: 10.0}", "kind: adaptive-sybil"))
    trace, tiny = tmp_path / "unknown.trace", tmp_path / "tiny.yaml"
    trace.write_text("0,v0001,propose-block,1.0,1.0,1.0,0\n1,vXXXX,propose-block,1.0,1.0,1.0,0\n")
    tiny.write_text(TINY)
    for argv, message in ((["run", str(paired_sybils)], "config field 'roster[0]'"),
                          (["replay", str(trace), str(tiny)], "trace line 2: proposer 'vXXXX'")):
        out = tmp_path / "out"
        assert main(argv + ["--workers", workers, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()


IGNORED = [  # (command, config text, extra arguments, the field the command would ignore)
    ("run", TINY + "sweep:\n  rho: [0.5, 0.9]\n", [], "sweep"),
    ("replay", TINY + "sweep:\n  rho: [0.5, 0.9]\n", [], "sweep"),
    ("ic-check", TINY.replace("paired", "pob") + "sweep:\n  rho: [0.5, 0.9]\n", [], "sweep"),
    ("sweep", TINY + "sweep:\n  rho: [0.5, 0.9]\n", ["--ledgers"], "emit_ledgers"),
    ("ic-check", TINY.replace("paired", "pob"), ["--ledgers"], "emit_ledgers"),
    # a replay runs one epoch per trace block; the preset replays the bundled trace
    ("replay", TINY, ["--epochs", "5"], "epochs"),
    ("preset", "", ["--epochs", "5"], "epochs"),  # a preset reads no config file
]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command,text,extra,field", IGNORED,
                         ids=["run-sweep", "replay-sweep", "ic-check-sweep", "sweep-ledgers",
                              "ic-check-ledgers", "replay-epochs", "preset-replay-epochs"])
def test_a_field_the_command_would_ignore_exits_1_without_output(
        command, text, extra, field, workers, tmp_path, capsys):
    cfg, trace = tmp_path / "scenario.yaml", tmp_path / "ok.trace"
    cfg.write_text(text)
    trace.write_text("0,v0001,propose-block,1.0,1.0,1.0,0\n")
    out = tmp_path / "out"
    positionals = {"replay": [str(trace), str(cfg)],
                   "preset": ["case-c-replay"]}.get(command, [str(cfg)])
    argv = [command, *positionals, *extra, "--workers", workers, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: config field '{field}'")
    assert not out.exists()


# r_base x (n_validators + newcomer) over r_total by less than 1e-9: the first a few
# ulps over, the second 100/11 as written, one ulp over.
STIPENDS_OVER_THE_POOL = [
    "protocol: pob\nn_validators: 3\nepochs: 5\ntrials: 2\nr_total: 1.0\n"
    "r_base: 0.33333333334\ncommittee_size: 2\n",
    "protocol: pob\nn_validators: 11\nepochs: 5\ntrials: 2\nr_total: 100.0\n"
    "r_base: 9.090909090909092\n",
]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("text", STIPENDS_OVER_THE_POOL, ids=["thirds", "elevenths"])
def test_stipends_over_the_pool_exit_1_without_output(text, workers, tmp_path, capsys):
    cfg = tmp_path / "stipends.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--workers", workers, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'r_base': base stipend") and "exceeds pool" in err
    assert not out.exists()


@pytest.mark.parametrize("kind,params", [("adaptive-sybil", "{}"),
                                         ("long-range-fork", "{fork_depth: 20}")])
def test_ambiguous_roster_exits_1_without_output(kind, params, tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(TINY + f"  - {{range: [0, 2], kind: {kind}}}\n"
                   + f"  - {{range: [3, 4], kind: {kind}, params: {params}}}\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'roster[2]'") and "Traceback" not in err
    assert not out.exists()


def test_pos_run_whose_every_stake_is_slashed_runs_to_the_end(tmp_path):
    # Both validators' stakes are slashed away by epoch 2; the stake lottery then
    # elects uniformly, the limit the behavior lottery takes with no weight left.
    cfg = tmp_path / "slashed.yaml"
    cfg.write_text("protocol: pos\nn_validators: 2\nepochs: 3\ntrials: 2\nseed: 0\n"
                   "pos_slash_delay: 0\npos_slash_fraction: 1.0\n"
                   "roster:\n  - {range: [0, 2], kind: adaptive-sybil}\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    for name in ("config.echo", "trials.csv", "summary.json"):
        assert (out / name).stat().st_size > 0
    assert len((out / "trials.csv").read_text().splitlines()) == 1 + 2


def test_non_finite_param_rejected_by_overrides():
    spec = StrategySpec("stealth", {"fraud_value": 5.0})
    spec.params["fraud_value"] = float("inf")  # set after the spec checked it
    config = loads_config(TINY)
    with pytest.raises(ConfigError, match="fraud_value=inf is not finite") as err:
        with_overrides(config, roster=(RosterEntry(9, 10, spec),))
    assert err.value.field == "roster[0]"


def test_large_finite_params_keep_their_echo():
    text = TINY.replace("fraud_value: 10.0", "fraud_value: 1.0e+300")
    echo = echo_config(loads_config(text))
    assert "fraud_value: 1.0e+300" in echo
    assert loads_config(echo).roster == loads_config(text).roster


def test_integral_float_count_is_kept_as_written():
    cfg = loads_config(TINY.replace("kind: stealth, params: {fraud_rate: 0.2, fraud_value: 10.0}",
                                    "kind: griefing, params: {empty_block_run: 4.0}"))
    assert cfg.roster[0].spec.params == {"empty_block_run": 4.0}
    assert "empty_block_run: 4.0" in echo_config(cfg)


def test_python_dash_m_pobsim_help():
    src = str(Path(pobsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "pobsim", "--help"], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout


class TestPresetLibrary:
    def test_count_and_names(self):
        presets = builtin_presets()
        assert len(presets) == 10
        expected = {
            "case-a-stealth", "case-a-sybil", "case-b-fairness-100",
            "case-b-fairness-1000", "case-c-replay", "case-d-adaptive-sybil",
            "case-d-long-range", "case-d-griefing", "case-e-sweep", "ic-check",
        }
        assert set(presets) == expected

    def test_case_b_presets_differ_only_in_network_size(self):
        import dataclasses

        presets = builtin_presets()
        small = presets["case-b-fairness-100"].build()
        large = presets["case-b-fairness-1000"].build()
        assert small.n_validators == 100 and large.n_validators == 1000
        rescaled = dataclasses.replace(
            large, n_validators=small.n_validators, name=small.name,
        )
        assert rescaled == small

    def test_all_presets_validate(self):
        for preset in builtin_presets().values():
            assert isinstance(preset.build(), ScenarioConfig)  # a bad preset raises ConfigError
