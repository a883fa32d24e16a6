"""Bad input fails before any trial runs, on every entry point.

One property over random scenario mappings: each goes through the YAML
loader, `with_overrides`, the `ScenarioConfig` constructor, a sweep grid,
the CLI or the CLI's `ic-check`, and either raises ConfigError (exit 1
from the CLI) before its output directory exists, or finishes a 3-epoch
run whose outputs are the same with one worker and with two. The
constructor also refuses a mapping with the loader's field, or makes the
loader's config. The mappings mix valid and invalid values, their roster
entry's strategy params lie now and then within their bounds and once in
a while just outside them, their `proposer_override` names a configured
id, an unknown id, the newcomer or an adaptive-sybil member, whom pob may
retire, their pos slash delay is short enough for a slash to land
within the run, and their sweep grid varies one or two of the schema's
sweepable parameters, now and then with a value the loader refuses.
Every built-in preset but the replay also runs through the CLI's
`preset` at 3 epochs to the same outputs with one worker and with two.

A second property does the same for block traces, through `run_scenario`
and the CLI's `replay`: a short trace whose proposers are configured,
unknown, the newcomer before or after `newcomer_epoch`, or adaptive-sybil
members either raises TraceError or ConfigError before the output directory
exists, or runs to the same outputs with one worker and with two. Every
config these draw that loads also echoes exactly as PyYAML writes it.
"""

import csv
import dataclasses
import io
import math
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import (
    HealthCheck,
    event,
    example,
    given,
    seed,
    settings,
    strategies as st,
)

from pobsim.adversaries import PARAMS, StrategySpec
from pobsim.cli import main
from pobsim.config import (
    ProposerOverride,
    RosterEntry,
    ScenarioConfig,
    loads_config,
    sweepable,
    with_overrides,
)
from pobsim.errors import ConfigError, TraceError
from pobsim.experiments import run_scenario, run_sweep
from pobsim.presets import builtin_presets
from pobsim.trace import TraceBlock, parse_trace
from pobsim.scoring import ActionKind
from test_config import assert_echo_is_pyyaml
from traces import write_trace

ENTRY_POINTS = ("yaml", "overrides", "python", "sweep", "cli", "ic-check")
BASE = "protocol: pob\nn_validators: 4\nepochs: 3\ntrials: 2\n"
# A stealth validator that attempts a fraud every epoch, so pos slashes land
# within 3 epochs: few drawn mappings get there.
LANDS_POS_SLASHES = {"protocol": "paired", "n_validators": 4, "epochs": 3, "trials": 2,
                     "seed": 7, "roster": [{"range": [3, 4], "kind": "stealth",
                                             "params": {"fraud_rate": 1.0}}],
                     "pos_slash_delay": 1, "pos_slash_fraction": 0.5}
# Grids that the fixed seed's draws may miss: the penalty block's mode and
# retained fraction, and a committee of n, which the cross-field check refuses.
PENALTY_GRID = {"protocol": "paired", "n_validators": 4, "epochs": 3, "trials": 2,
                "sweep": {"penalty.mode": ["additive", "multiplicative"], "penalty.rho_p": [0.5]}}
COMMITTEE_OF_N = {"protocol": "pob", "n_validators": 4, "epochs": 3, "trials": 2,
                  "sweep": {"committee_size": [1, 4]}}


def sweep_values(n: int) -> dict:
    """Each sweepable parameter's grid values at `n` validators: (values
    within its bounds, values the loader refuses). A committee of `n`
    exceeds the n - 1 others, a cross-field refusal."""
    return {"rho": ([0.5, 0.95], [1.5]), "delta": ([0.1, 0.3], [2.0]),
            "theta": (["1/2", "3/4", 1], ["0"]), "quorum": (["1/2", "3/4"], ["3/2"]),
            "committee_size": ([None, 1], [n]), "detection_accuracy": ([0.5, 1.0], [-0.1]),
            "r_total": ([50.0, 100.0], [-1.0]), "activity_threshold": ([0.0, 0.5], ["oops"]),
            "epsilon": ([0.0, 0.1], [-0.1]), "pos_slash_delay": ([1, 3], [-1]),
            "pos_slash_fraction": ([0.5, 1.0], [1.5]),
            "penalty.mode": (["additive", "multiplicative"], ["linear"]),
            "penalty.base_coefficient": ([0.5, 2.0], [0.0]), "penalty.rho_p": ([0.0, 0.5], [1.0])}


def param_values(lo, hi, outside: bool):
    """Values within [lo, hi] of a PARAMS entry (hi None: a few steps above lo),
    or, when `outside`, the nearest values just outside it."""
    count = isinstance(lo, int)
    if outside:
        below = lo - 1 if count else math.nextafter(lo, -math.inf)
        above = [] if hi is None else [hi + 1 if count else math.nextafter(hi, math.inf)]
        return st.sampled_from([below, *above])
    top = (lo + 5 if count else lo + 100.0) if hi is None else hi
    if count:  # a burst_epoch of 0 to 2 lands within the 3 epochs
        return st.integers(lo, top)
    # A fraud_rate of 1 attempts a fraud every epoch.
    return st.one_of(st.just(top), st.floats(lo, top, allow_subnormal=True))


@st.composite
def strategy_params(draw, kind):
    """Now and then each param of `kind` from its bounds; once in a while one of
    them just outside, which the loader refuses."""
    bounds = {name: (lo, hi) for name, (_, lo, hi) in PARAMS[kind].items()}
    params = {name: draw(param_values(*bounds[name], outside=False))
              for name in bounds if draw(st.sampled_from([False, True, True]))}
    if params and draw(st.integers(0, 7)) == 0:
        name = draw(st.sampled_from(sorted(params)))
        params[name] = draw(param_values(*bounds[name], outside=True))
    return params


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
        mapping["roster"] = [{"range": [lo, hi], "kind": kind,
                              "params": draw(strategy_params(kind))}]
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
    # Short enough for a pos slash to land within the 3 epochs; -1 is refused.
    mapping["pos_slash_delay"] = draw(st.integers(-1, 3))
    mapping["pos_slash_fraction"] = draw(st.sampled_from([0.0, 0.5, 1.0]))
    if draw(st.booleans()):
        grid = {}
        for name in draw(st.lists(st.sampled_from(sweepable()), min_size=1, max_size=2,
                                  unique=True)):
            within, refused = sweep_values(n)[name]
            grid[name] = draw(st.lists(st.sampled_from(within), min_size=1, max_size=2,
                                       unique=True))
            if draw(st.integers(0, 7)) == 0:
                grid[name].append(draw(st.sampled_from(refused)))
        mapping["sweep"] = grid
    return mapping


def stored_form(mapping: dict) -> dict:
    """`mapping`'s values in the form a config stores them: roster entries as
    RosterEntry (an entry whose params StrategySpec refuses stays a mapping,
    which the constructor reads too) and the override as a ProposerOverride."""
    stored = dict(mapping)
    if "roster" in stored:
        stored["roster"] = []
        for item in mapping["roster"]:
            try:
                spec = StrategySpec(item["kind"], item.get("params", {}))
            except ValueError:
                stored["roster"].append(item)
            else:
                stored["roster"].append(RosterEntry(*item["range"], spec))
    if "proposer_override" in stored:
        stored["proposer_override"] = ProposerOverride(**mapping["proposer_override"])
    return stored


def construct(mapping: dict) -> ScenarioConfig:
    """`ScenarioConfig(**...)` of `mapping`'s stored form, which raises the
    loader's ConfigError or makes the loader's config. The loader reads the
    mapping in the schema's field order, as the constructor parses it, so
    both meet the same bad value first."""
    names = [f.name for f in dataclasses.fields(ScenarioConfig)]
    text = yaml.safe_dump({key: mapping[key] for key in names if key in mapping},
                          sort_keys=False)
    try:
        loaded = loads_config(text)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(**stored_form(mapping))
        assert err.value.field == exc.field
        raise
    config = ScenarioConfig(**stored_form(mapping))
    assert config == loaded
    return config


def run(entry: str, mapping: dict, workers: int, out: Path, scratch: Path) -> None:
    """Run `mapping` through `entry` with `workers`; raise ConfigError on bad input."""
    if entry in ("cli", "ic-check"):
        path = scratch / "scenario.yaml"
        path.write_text(yaml.safe_dump(mapping))
        command = entry if entry == "ic-check" else "sweep" if "sweep" in mapping else "run"
        status = main([command, str(path), "--out", str(out), "--workers", str(workers)])
        assert status in (0, 1)
        if status == 1:
            raise ConfigError("<cli>", "exit 1")
        return
    if entry == "overrides":
        config = with_overrides(loads_config(BASE), workers=workers, **{
            key: ProposerOverride(**value) if key == "proposer_override" else value
            for key, value in mapping.items()})
    elif entry == "python":
        config = construct({**mapping, "workers": workers})
    else:  # yaml; a sweep grid loads through the YAML loader too
        config = loads_config(yaml.safe_dump({**mapping, "workers": workers}))
    assert isinstance(config, ScenarioConfig)
    (run_sweep if config.sweep else run_scenario)(config, out)


def outputs(out: Path) -> dict:
    """Every output file but the echo, which records `workers`."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "config.echo"}


def attempted_fraud(files: dict) -> bool:
    """Whether a trial in a run's CSV attempted a fraud: its `far` is defined."""
    rows = (row for name in ("trials.csv", "sweep.csv") if name in files
            for row in csv.DictReader(io.StringIO(files[name].decode())))
    return any(row["far"] for row in rows)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@seed(20261019)
@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mapping=scenarios())
@example(mapping=LANDS_POS_SLASHES)
@example(mapping=PENALTY_GRID)
@example(mapping=COMMITTEE_OF_N)
def test_bad_input_fails_before_output_else_workers_agree(entry, mapping):
    if entry == "sweep":
        mapping = {**mapping, "sweep": mapping.get("sweep") or {"delta": [0.1, 0.2]}}
    if entry == "ic-check":  # a pob run with a deviator to compare, and no grid
        mapping = {key: value for key, value in mapping.items() if key != "sweep"}
        mapping["protocol"] = "pob"
        if mapping.get("roster", [{}])[0].get("kind") in (None, "honest"):
            mapping["roster"] = [{"range": [0, 1], "kind": "stealth"}]
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
        if results[0] is not None and attempted_fraud(results[0]):
            event(f"{entry}: attempted a fraud")


@pytest.mark.parametrize("name", sorted(name for name, preset in builtin_presets().items()
                                         if preset.trace is None))
def test_every_preset_runs_the_same_with_one_worker_and_two(name, tmp_path):
    results = []
    for workers in (1, 2):
        out = tmp_path / f"out-{workers}"
        assert main(["preset", name, "--epochs", "3", "--trials", "2", "--workers", str(workers),
                     "--out", str(out)]) == 0
        results.append(outputs(out))
    assert results[0] == results[1] and results[0]


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
