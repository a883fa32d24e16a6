"""Bad input fails before any trial runs, on every entry point.

One property over random scenario mappings: each goes through the YAML
loader, `with_overrides`, a sweep grid or the CLI, and either raises
ConfigError (exit 1 from the CLI) before its output directory exists, or
finishes a 3-epoch run whose outputs are the same with one worker and
with two. The mappings mix valid and invalid values, and their
`proposer_override` names a configured id, an unknown id, the newcomer or
an adaptive-sybil member, whom pob may retire.

A second property does the same for block traces, through `run_scenario`
and the CLI's `replay`: a short trace whose proposers are configured,
unknown, the newcomer before or after `newcomer_epoch`, or adaptive-sybil
members either raises TraceError or ConfigError before the output directory
exists, or runs to the same outputs with one worker and with two. Every
config these draw that loads also echoes exactly as PyYAML writes it.
"""

import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, event, given, seed, settings, strategies as st

from pobsim.adversaries import PARAMS
from pobsim.cli import main
from pobsim.config import ScenarioConfig, loads_config, with_overrides
from pobsim.errors import ConfigError, TraceError
from pobsim.experiments import run_scenario, run_sweep
from pobsim.netsim import TraceBlock, parse_trace
from pobsim.scoring import ActionKind
from test_config import assert_echo_is_pyyaml
from traces import write_trace

ENTRY_POINTS = ("yaml", "overrides", "sweep", "cli")
BASE = "protocol: pob\nn_validators: 4\nepochs: 3\ntrials: 2\n"


@st.composite
def scenarios(draw):
    """A 3-epoch, 2-trial scenario in its YAML form, each optional key with a
    value that is bad now and then."""
    n = draw(st.integers(2, 10))
    mapping = {"protocol": draw(st.sampled_from(["pob", "pos", "paired"])), "n_validators": n,
               "epochs": 3, "trials": 2, "seed": draw(st.integers(0, 999))}
    sybils = []
    if draw(st.booleans()):
        kind = draw(st.sampled_from(sorted(PARAMS)))
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.one_of(st.integers(lo + 1, n),
                            st.sampled_from([lo, n + 1])))  # empty, or past the last index
        mapping["roster"] = [{"range": [lo, hi], "kind": kind}]
        if kind == "adaptive-sybil":
            sybils = [f"v{i:04d}" for i in range(lo, min(hi, n))]
    if draw(st.booleans()):
        mapping["newcomer_epoch"] = draw(st.sampled_from([1, 2, 3, 0]))  # 0 is refused
    if draw(st.booleans()):
        named = draw(st.sampled_from(["configured", "unknown", "newcomer", "sybil"]))
        if named == "sybil" and sybils:
            vid = draw(st.sampled_from(sybils))
        elif named == "unknown":
            vid = draw(st.sampled_from([f"v{n:04d}", "zzz", "syb0001n000"]))
        elif named == "newcomer":
            vid = "newcomer"
        else:
            vid = f"v{draw(st.integers(0, n - 1)):04d}"
        from_epoch = draw(st.integers(0, 3))
        mapping["proposer_override"] = {  # an empty window is refused
            "validator": vid, "from_epoch": from_epoch,
            "to_epoch": from_epoch + draw(st.sampled_from([1, 2, 3, 0]))}
    for name, values in (("rho", [0.5, 0.7, 0.95, 1.5]), ("committee_size", [None, 1, 2, n]),
                         ("quorum", ["1/2", "3/4", 1, "0"]), ("oracle_rate", [0.0, 0.5])):
        if draw(st.booleans()):
            mapping[name] = draw(st.sampled_from(values))
    if draw(st.booleans()):
        mapping["sweep"] = {"delta": [0.1, draw(st.sampled_from([0.2, 0.3, 2.0]))]}
    return mapping


def run(entry: str, mapping: dict, workers: int, out: Path, scratch: Path) -> None:
    """Run `mapping` through `entry` with `workers`; raise ConfigError on bad input."""
    if entry == "cli":
        path = scratch / "scenario.yaml"
        path.write_text(yaml.safe_dump(mapping))
        command = "sweep" if "sweep" in mapping else "run"
        status = main([command, str(path), "--out", str(out), "--workers", str(workers)])
        assert status in (0, 1)
        if status == 1:
            raise ConfigError("<cli>", "exit 1")
        return
    if entry == "overrides":
        config = with_overrides(loads_config(BASE), workers=workers, **{
            key: tuple(value.values()) if key == "proposer_override" else value
            for key, value in mapping.items()})
    else:  # yaml; a sweep grid loads through the YAML loader too
        config = loads_config(yaml.safe_dump({**mapping, "workers": workers}))
    assert isinstance(config, ScenarioConfig)
    (run_sweep if config.sweep else run_scenario)(config, out)


def outputs(out: Path) -> dict:
    """Every output file but the echo, which records `workers`."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "config.echo"}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@seed(20261019)
@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mapping=scenarios())
def test_bad_input_fails_before_output_else_workers_agree(entry, mapping):
    if entry == "sweep":
        mapping = {**mapping, "sweep": mapping.get("sweep") or {"delta": [0.1, 0.2]}}
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        results = []
        for workers in (1, 2):
            out = scratch / f"out-{workers}"
            try:
                run(entry, mapping, workers, out, scratch)
            except ConfigError:
                assert not out.exists()
                results.append(None)
            else:
                results.append(outputs(out))
        assert results[0] == results[1]
        assert results[0] is None or results[0]
        event(f"{entry}: {'refused' if results[0] is None else 'ran'}")


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
@given(mapping=scenarios())
def test_every_loaded_config_echoes_as_pyyaml(mapping):
    try:
        config = loads_config(yaml.safe_dump(mapping))
    except ConfigError:
        return
    assert_echo_is_pyyaml(config)


@st.composite
def traced_scenarios(draw):
    """A 2-trial scenario and a 2-6 block trace whose proposers are configured,
    unknown, the newcomer (before or after `newcomer_epoch`) or adaptive-sybil
    members."""
    n = draw(st.integers(2, 8))
    mapping = {"protocol": draw(st.sampled_from(["pob", "pos", "paired"])), "n_validators": n,
               "trials": 2, "seed": draw(st.integers(0, 999))}
    sybils = []
    if draw(st.booleans()):
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo + 1, n))
        mapping["roster"] = [{"range": [lo, hi], "kind": "adaptive-sybil"}]
        sybils = [f"v{i:04d}" for i in range(lo, hi)]
    length = draw(st.integers(2, 6))
    if draw(st.booleans()):
        mapping["newcomer_epoch"] = draw(st.integers(1, length))
    proposers = []
    for _ in range(length):
        named = draw(st.sampled_from(["configured"] * 8 + ["unknown", "newcomer", "sybil"]))
        if named == "sybil" and sybils:
            proposers.append(draw(st.sampled_from(sybils)))
        elif named == "unknown":
            proposers.append(draw(st.sampled_from([f"v{n:04d}", "zzz"])))
        elif named == "newcomer":
            proposers.append("newcomer")
        else:
            proposers.append(f"v{draw(st.integers(0, n - 1)):04d}")
    height = draw(st.integers(0, 500))
    trace = [TraceBlock(height + i, vid, draw(st.sampled_from(list(ActionKind))),
                        draw(st.sampled_from([0.5, 1.0, 2.0])), 1.0, 1.0, draw(st.booleans()))
             for i, vid in enumerate(proposers)]
    return mapping, trace


def replay(entry: str, mapping: dict, trace_path: Path, workers: int, out: Path,
           scratch: Path) -> None:
    """Replay the trace at `trace_path` through `mapping` with `workers`; raise
    TraceError or ConfigError on bad input."""
    if entry == "cli":
        config_path = scratch / "scenario.yaml"
        config_path.write_text(yaml.safe_dump(mapping))
        status = main(["replay", str(trace_path), str(config_path), "--out", str(out),
                       "--workers", str(workers)])
        assert status in (0, 1)
        if status == 1:
            raise TraceError(0, "exit 1")
        return
    config = loads_config(yaml.safe_dump({**mapping, "workers": workers}))
    run_scenario(config, out, trace=parse_trace(trace_path))


@pytest.mark.parametrize("entry", ["api", "cli"])
@seed(20261019)
@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=traced_scenarios())
def test_bad_trace_fails_before_output_else_workers_agree(entry, case):
    mapping, trace = case
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        write_trace(scratch / "blocks.trace", trace)
        results = []
        for workers in (1, 2):
            out = scratch / f"out-{workers}"
            try:
                replay(entry, mapping, scratch / "blocks.trace", workers, out, scratch)
            except (ConfigError, TraceError):
                assert not out.exists()
                results.append(None)
            else:
                results.append(outputs(out))
        assert results[0] == results[1]
        assert results[0] is None or results[0]
        event(f"{entry}: {'refused' if results[0] is None else 'ran'}")
