import dataclasses
import pickle
from fractions import Fraction

import pytest
import yaml

import pobsim.config
from pobsim.adversaries import StrategySpec
from pobsim.cli import main
from pobsim.config import (
    PenaltySettings,
    ProposerOverride,
    RosterEntry,
    ScenarioConfig,
    apply_sweep_point,
    config_from_mapping,
    config_to_mapping,
    echo_config,
    load_config,
    loads_config,
    parse_rational,
    sweepable,
    with_overrides,
)
from pobsim.errors import ConfigError, TraceError
from pobsim.trace import TraceBlock, check_trace
from pobsim.presets import Preset, builtin_presets
from pobsim.scoring import ActionKind

MINIMAL = "protocol: pob\nn_validators: 100\n"


class TestLoad:
    def test_minimal_config_fills_defaults(self):
        cfg = loads_config(MINIMAL)
        assert cfg.protocol == "pob"
        assert cfg.n_validators == 100
        assert cfg.epochs == 200
        assert cfg.trials == 30
        assert cfg.rho == 0.9
        assert cfg.theta == Fraction(2, 3)
        assert cfg.resolved_committee_size() == 30
        assert cfg.resolved_r_base() == pytest.approx(0.5)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(MINIMAL + "epochs: 50\n")
        cfg = load_config(path)
        assert cfg.epochs == 50

    def test_theta_string_is_exact_rational(self):
        cfg = loads_config(MINIMAL + 'theta: "2/3"\n')
        assert cfg.theta == Fraction(2, 3)

    def test_theta_decimal_reads_as_decimal(self):
        cfg = loads_config(MINIMAL + "theta: 0.67\n")
        assert cfg.theta == Fraction(67, 100)

    def test_rho_out_of_range_names_field(self):
        with pytest.raises(ConfigError) as err:
            loads_config(MINIMAL + "rho: 1.5\n")
        assert err.value.field == "rho"
        assert "1" in str(err.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            loads_config(MINIMAL + "fizzle: 3\n")
        assert "fizzle" in str(err.value)

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError):
            loads_config(MINIMAL + "penalty:\n  strength: 2\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError) as err:
            loads_config("protocol: pob\n")
        assert err.value.field == "n_validators"

    def test_bad_protocol(self):
        with pytest.raises(ConfigError):
            loads_config("protocol: pow\nn_validators: 10\n")

    def test_yaml_syntax_error_reports_location(self):
        with pytest.raises(ConfigError) as err:
            loads_config("protocol: [unclosed\n")
        assert "line" in str(err.value)

    def test_betas_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            loads_config(MINIMAL + "betas: [0.5, 0.5, 0.5]\n")

    def test_committee_size_versus_population(self):
        with pytest.raises(ConfigError):
            loads_config("protocol: pob\nn_validators: 5\ncommittee_size: 10\n")

    def test_escalation_schedule_validation(self):
        with pytest.raises(ConfigError):
            loads_config(MINIMAL + "penalty:\n  escalation: [1.0, 0.5]\n")

    def test_bool_not_accepted_as_number(self):
        with pytest.raises(ConfigError):
            loads_config(MINIMAL + "rho: true\n")


class TestRoster:
    def test_roster_parses(self):
        cfg = loads_config(
            MINIMAL
            + "roster:\n"
            + "  - range: [90, 100]\n"
            + "    kind: stealth\n"
            + "    params: {fraud_rate: 0.1, fraud_value: 5.0}\n"
        )
        assert len(cfg.roster) == 1
        assert cfg.roster[0].lo == 90 and cfg.roster[0].hi == 100
        assert cfg.roster[0].spec.kind == "stealth"

    def test_overlapping_ranges_rejected(self):
        text = (
            MINIMAL
            + "roster:\n"
            + "  - {range: [0, 5], kind: stealth}\n"
            + "  - {range: [4, 8], kind: griefing}\n"
        )
        with pytest.raises(ConfigError):
            loads_config(text)

    def test_range_bounds_checked(self):
        with pytest.raises(ConfigError):
            loads_config(MINIMAL + "roster:\n  - {range: [90, 200], kind: stealth}\n")

    def test_bad_strategy_params_rejected(self):
        with pytest.raises(ConfigError):
            loads_config(
                MINIMAL + "roster:\n  - {range: [0, 1], kind: stealth, params: {bogus: 1}}\n"
            )

    @pytest.mark.parametrize("kind,params,message", [
        ("adaptive-sybil", "{}", "one respawn controller"),
        ("long-range-fork", "{fork_depth: 20}", "fork_depth 20 differs"),
    ], ids=["second-adaptive-sybil", "second-fork-depth"])
    def test_ambiguous_second_entry_rejected(self, kind, params, message):
        text = (MINIMAL + "roster:\n"
                + f"  - {{range: [0, 2], kind: {kind}}}\n"
                + "  - {range: [3, 4], kind: stealth}\n"
                + f"  - {{range: [5, 6], kind: {kind}, params: {params}}}\n")
        with pytest.raises(ConfigError, match=message) as err:
            loads_config(text)
        assert err.value.field == "roster[2]" and "roster[0]" in str(err.value)
        valid = loads_config(text.rsplit("  - ", 1)[0])
        extra = RosterEntry(5, 6, StrategySpec(kind, yaml.safe_load(params)))
        with pytest.raises(ConfigError, match=message) as err:
            with_overrides(valid, roster=valid.roster + (extra,))
        assert err.value.field == "roster[2]"

    def test_long_range_fork_entries_with_one_depth_accepted(self):
        cfg = loads_config(MINIMAL + "roster:\n"
                           + "  - {range: [0, 2], kind: long-range-fork}\n"
                           + "  - {range: [5, 6], kind: long-range-fork,"
                           + " params: {fork_depth: 100, fraud_rate: 0.2}}\n")
        assert [e.spec.kind for e in cfg.roster] == ["long-range-fork"] * 2


class TestSweepConfig:
    def test_sweep_over_unknown_parameter(self):
        with pytest.raises(ConfigError) as err:
            loads_config(MINIMAL + "sweep:\n  warp_factor: [1, 2]\n")
        assert "warp_factor" in str(err.value)

    def test_sweep_parses(self):
        cfg = loads_config(MINIMAL + "sweep:\n  rho: [0.5, 0.9]\n")
        assert cfg.sweep == {"rho": [0.5, 0.9]}

    @pytest.mark.parametrize("param,values", [
        ("rho", "[0.5, 1.5]"),
        ("detection_accuracy", "[-0.1]"),
        ("pos_slash_delay", "[10, -1]"),
        ("committee_size", "[2.5]"),
        ("theta", '["3/2"]'),
        ("penalty.rho_p", "[1.0]"),
        ("penalty.mode", "[linear]"),
        ("epsilon", "[oops]"),
    ])
    def test_sweep_values_range_checked_on_load(self, param, values):
        with pytest.raises(ConfigError, match=f"sweep.{param}"):
            loads_config(MINIMAL + f"sweep:\n  {param}: {values}\n")

    def test_sweep_point_range_checked(self):
        cfg = loads_config(MINIMAL)
        with pytest.raises(ConfigError, match="sweep.rho"):
            apply_sweep_point(cfg, {"rho": 1.5})
        assert apply_sweep_point(cfg, {"rho": 1}).rho == 1.0

    def test_apply_sweep_point_nested(self):
        cfg = loads_config(MINIMAL)
        out = apply_sweep_point(cfg, {"penalty.base_coefficient": 1.5, "theta": "1/2"})
        assert out.penalty.base_coefficient == 1.5
        assert out.theta == Fraction(1, 2)
        assert out.sweep is None

    @pytest.mark.parametrize("base,param,values", [
        ("protocol: pob\nn_validators: 10\nr_base: 1.0\n", "r_total", [100.0, 5.0]),
        ("protocol: pob\nn_validators: 10\n", "committee_size", [10]),
    ], ids=["stipends-over-the-pool", "committee-past-the-population"])
    def test_cross_field_refusal_of_a_grid_value_names_the_grid_field(
            self, base, param, values, tmp_path, capsys):
        """The cross-field check's message, on the grid field, from the loader,
        a sweep point and the CLI, which writes no output directory."""
        with pytest.raises(ConfigError) as plain:
            with_overrides(loads_config(base), **{param: values[-1]})
        text = base + f"sweep:\n  {param}: {values}\n"
        with pytest.raises(ConfigError) as err:
            loads_config(text)
        assert (err.value.field, err.value.message) == (f"sweep.{param}", plain.value.message)
        with pytest.raises(ConfigError) as err:
            apply_sweep_point(loads_config(base), {param: values[-1]})
        assert (err.value.field, err.value.message) == (f"sweep.{param}", plain.value.message)
        (tmp_path / "grid.yaml").write_text(text)
        out = tmp_path / "out"
        assert main(["sweep", str(tmp_path / "grid.yaml"), "--out", str(out)]) == 1
        assert f"error: config field 'sweep.{param}': {plain.value.message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param,values,again", [
        ("theta", '[0.5, "1/2"]', "'1/2'"),
        ("rho", "[0.5, 0.9, 0.5]", "0.5"),
        ("rho", "[1, 1.0]", "1.0"),
        ("penalty.mode", "[additive, additive]", "'additive'"),
    ], ids=["fraction-and-float", "same-float", "int-and-float", "penalty-block"])
    def test_a_repeated_grid_value_is_refused(self, param, values, again, tmp_path, capsys):
        """Two grid values that parse alike would run one config twice under two
        labels: the later one is refused on the grid field, before any output."""
        text = MINIMAL + f"sweep:\n  {param}: {values}\n"
        with pytest.raises(ConfigError) as err:
            loads_config(text)
        assert err.value.field == f"sweep.{param}"
        assert err.value.message.startswith(f"{again} repeats ")
        (tmp_path / "grid.yaml").write_text(text)
        out = tmp_path / "out"
        assert main(["sweep", str(tmp_path / "grid.yaml"), "--out", str(out)]) == 1
        assert f"error: config field 'sweep.{param}': {again} repeats " in capsys.readouterr().err
        assert not out.exists()


class TestEcho:
    def test_echo_includes_every_effective_value(self):
        cfg = loads_config(MINIMAL)
        echo = echo_config(cfg)
        for needle in ("rho: 0.9", "theta: 2/3", "committee_size: 30", "r_base: 0.5"):
            assert needle in echo, needle

    def test_echo_round_trip_fixed_point(self):
        cfg = loads_config(
            MINIMAL
            + 'theta: "3/4"\nepochs: 77\n'
            + "roster:\n  - {range: [0, 2], kind: griefing, params: {empty_block_run: 4}}\n"
            + "sweep:\n  rho: [0.5]\n"
        )
        once = loads_config(echo_config(cfg))
        twice = loads_config(echo_config(once))
        assert once == twice
        assert once.theta == Fraction(3, 4)
        assert once.epochs == 77
        assert once.roster == cfg.roster


def assert_echo_is_pyyaml(cfg) -> None:
    """The echo is what safe_dump writes, byte for byte, and reloads to `cfg`
    with its resolved committee size and stipend, which the echo records."""
    echo = echo_config(cfg)
    assert echo == yaml.safe_dump(config_to_mapping(cfg), sort_keys=True, default_flow_style=False)
    assert loads_config(echo) == dataclasses.replace(
        cfg, committee_size=cfg.resolved_committee_size(), r_base=cfg.resolved_r_base())


# Strings PyYAML quotes or escapes, and two it writes plain.
ODD_STRINGS = ["yes", "Yes", "yEs", "null", "~", "1", "0.67", "a: b", "#x", "-x", "x y", "",
               "n\u00e6vn", ("a name with spaces " * 6)[:100]]


class TestEchoIsPyYamlByteForByte:
    """The echo is written without PyYAML; it must be what safe_dump writes."""

    @pytest.mark.parametrize("name", sorted(builtin_presets()))
    def test_every_preset(self, name):
        assert_echo_is_pyyaml(builtin_presets()[name].build())

    @pytest.mark.parametrize("text", ODD_STRINGS)
    def test_odd_name(self, text):
        assert_echo_is_pyyaml(with_overrides(loads_config(MINIMAL), name=text))

    @pytest.mark.parametrize("text", ODD_STRINGS)
    def test_odd_override_id(self, text):
        """No config holds such an id (the constructor refuses it), but the echo
        writes a nested odd string as PyYAML does: set past the constructor."""
        cfg = loads_config(MINIMAL)
        object.__setattr__(cfg, "proposer_override", ProposerOverride(text, 0, 1))
        mapping = config_to_mapping(cfg)
        assert echo_config(cfg) == yaml.safe_dump(mapping, sort_keys=True, default_flow_style=False)
        assert yaml.safe_load(echo_config(cfg))["proposer_override"]["validator"] == text

    @pytest.mark.parametrize("changes", [
        {"quorum": 1},  # stored as Fraction(1), whose form is the string "1"
        {"theta": "3/4", "sweep": {"quorum": ["0.67", "1/2", 1], "penalty.mode": ["additive"]}},
        {"penalty": PenaltySettings(escalation=(1.0, 1e17)), "r_total": 1e-05, "roster": (
            RosterEntry(0, 2, StrategySpec("griefing", {})),
            RosterEntry(2, 3, StrategySpec("stealth", {"fraud_rate": 0.25})))},
    ], ids=["quorum-1", "string-sweep-values", "floats-and-roster"])
    def test_edge_values(self, changes):
        assert_echo_is_pyyaml(with_overrides(loads_config(MINIMAL), **changes))


class TestRational:
    def test_forms(self):
        assert parse_rational("2/3", "x") == Fraction(2, 3)
        assert parse_rational(1, "x") == Fraction(1)
        assert parse_rational(0.5, "x") == Fraction(1, 2)
        assert parse_rational("0.7", "x") == Fraction(7, 10)

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_rational("a/b", "x")


class TestOverrides:
    def test_with_overrides_validates(self):
        cfg = loads_config(MINIMAL)
        out = with_overrides(cfg, trials=3)
        assert out.trials == 3
        with pytest.raises(ConfigError):
            with_overrides(cfg, committee_size=5000)

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            with_overrides(loads_config(MINIMAL), trials=0)

    def test_negative_epochs_rejected(self):
        cfg = loads_config(MINIMAL)
        with pytest.raises(ConfigError, match="epochs"):
            with_overrides(cfg, epochs=-5)
        assert with_overrides(cfg, epochs=0).epochs == 0  # the loader allows 0

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            with_overrides(loads_config(MINIMAL), workers=0)

    def test_float_field_range_checked(self):
        with pytest.raises(ConfigError, match="rho"):
            with_overrides(loads_config(MINIMAL), rho=1.5)

    def test_reversed_honest_utility_range_rejected(self):
        text = MINIMAL + "honest_utility_lo: 2.0\nhonest_utility_hi: 1.0\n"
        with pytest.raises(ConfigError, match="honest_utility_lo"):
            loads_config(text)
        with pytest.raises(ConfigError, match="honest_utility_lo"):
            with_overrides(loads_config(MINIMAL), honest_utility_lo=2.0)
        assert with_overrides(loads_config(MINIMAL), honest_utility_lo=1.5).honest_utility_lo == 1.5

    def test_reversed_honest_initiative_range_rejected(self):
        text = MINIMAL + "honest_initiative_lo: 0.9\nhonest_initiative_hi: 0.7\n"
        with pytest.raises(ConfigError, match="honest_initiative_lo"):
            loads_config(text)
        with pytest.raises(ConfigError, match="honest_initiative_lo"):
            with_overrides(loads_config(MINIMAL), honest_initiative_hi=0.5)
        assert with_overrides(loads_config(MINIMAL), honest_initiative_lo=1.0).honest_initiative_lo == 1.0

    @staticmethod
    def assert_rejected_on_every_path(text, changes, match):
        """The loader, with_overrides and the constructor all raise ConfigError."""
        with pytest.raises(ConfigError, match=match):
            loads_config(text)
        with pytest.raises(ConfigError, match=match):
            with_overrides(loads_config(MINIMAL), **changes)
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig(**{"protocol": "pob", "n_validators": 100, **changes})

    def test_unknown_proposer_override_rejected(self):
        text = MINIMAL + "proposer_override: {validator: zzz, from_epoch: 0, to_epoch: 3}\n"
        self.assert_rejected_on_every_path(
            text, {"proposer_override": ProposerOverride("zzz", 0, 3)},
            "proposer_override.validator")
        # Past the last index, and the newcomer without a newcomer_epoch.
        for vid in ("v0100", "newcomer"):
            with pytest.raises(ConfigError, match="proposer_override.validator"):
                with_overrides(loads_config(MINIMAL), proposer_override=ProposerOverride(vid, 0, 3))
        cfg = loads_config(MINIMAL + "newcomer_epoch: 5\n"
                           "proposer_override: {validator: newcomer, from_epoch: 5, to_epoch: 8}\n")
        assert cfg.proposer_override == ProposerOverride("newcomer", 5, 8)
        # The newcomer cannot be elected before it joins.
        with pytest.raises(ConfigError, match="before newcomer_epoch 5"):
            with_overrides(cfg, proposer_override=ProposerOverride("newcomer", 0, 3))
        assert with_overrides(loads_config(MINIMAL), proposer_override=ProposerOverride(
            "v0099", 0, 3)).proposer_override.validator == "v0099"

    def test_trace_and_override_name_proposers_by_one_rule(self):
        sybils = RosterEntry(8, 10, StrategySpec("adaptive-sybil"))
        cfg = with_overrides(loads_config(MINIMAL), n_validators=10, newcomer_epoch=2,
                             roster=(sybils,))
        refused = set()
        for vid in ("v0000", "v0007", "v0008", "v0009", "v0010", "newcomer", "zzz"):
            for epoch in (0, 1, 2, 3):
                refusal = cfg.proposer_refusal(vid, epoch)
                trace = [TraceBlock(h, "v0000" if h < epoch else vid, ActionKind.PROPOSE,
                                    1.0, 1.0, 1.0, False) for h in range(epoch + 1)]
                if refusal is None:
                    check_trace(cfg, trace)
                    with_overrides(cfg, proposer_override=ProposerOverride(vid, epoch, epoch + 1))
                    continue
                refused.add((vid, epoch))
                with pytest.raises(TraceError) as trace_err:
                    check_trace(cfg, trace)
                assert str(trace_err.value).endswith(f") {refusal}")
                with pytest.raises(ConfigError) as override_err:
                    with_overrides(cfg, proposer_override=ProposerOverride(vid, epoch, epoch + 1))
                assert override_err.value.field == "proposer_override.validator"
                assert str(override_err.value).endswith(f"{vid!r} {refusal}")
        assert refused == {("newcomer", 0), ("newcomer", 1), *(
            (vid, epoch) for vid in ("v0008", "v0009", "v0010", "zzz") for epoch in range(4))}

    @pytest.mark.parametrize("from_epoch, to_epoch", [(4, 2), (4, 4)])
    def test_empty_proposer_override_window_rejected(self, from_epoch, to_epoch):
        # The window is half-open, so equal bounds override nothing either.
        text = (MINIMAL + f"proposer_override: {{validator: v0001, from_epoch: {from_epoch}, "
                f"to_epoch: {to_epoch}}}\n")
        self.assert_rejected_on_every_path(
            text, {"proposer_override": ProposerOverride("v0001", from_epoch, to_epoch)},
            f"empty window: from_epoch {from_epoch} is not before to_epoch {to_epoch}")
        assert loads_config(MINIMAL + "proposer_override: {validator: v0001, from_epoch: 4, "
                            "to_epoch: 5}\n").proposer_override == ProposerOverride("v0001", 4, 5)

    def test_motivation_intensity_length_checked(self):
        text = MINIMAL + "motivation_intensities: {propose-block: [0.5]}\n"
        intensities = dict(loads_config(MINIMAL).motivation_intensities, **{"propose-block": (0.5,)})
        self.assert_rejected_on_every_path(
            text, {"motivation_intensities": intensities},
            r"motivation_intensities\.propose-block.*1 intensities, expected 3")
        # Weights of another length need intensities of that length.
        with pytest.raises(ConfigError, match="expected 2"):
            loads_config(MINIMAL + "motivation_weights: [0.5, 0.5]\n")

    def test_direct_mapping_validation(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"protocol": "pob", "n_validators": 1})


# One bad value per kind of field parser, and each refusal of the penalty
# block: (field, value as stored, as YAML).
BAD_FIELDS = [pytest.param(*case, id=case[0]) for case in [
    ("newcomer_epoch", 0, 0),
    ("n_validators", 1, 1),
    ("protocol", "pow", "pow"),
    ("theta", Fraction(5), 5),
    ("committee_size", -1, -1),
    ("latency_distribution", "bogus", "bogus"),
    ("betas", (0.5, 0.5, 0.5), [0.5, 0.5, 0.5]),
    ("name", 3, 3),
    ("emit_ledgers", "yes", "yes"),
    ("motivation_weights", (0.5, 0.6, 0.2), [0.5, 0.6, 0.2]),
    ("sweep", {"fizz": [1]}, {"fizz": [1]}),
]] + [
    pytest.param("penalty", PenaltySettings(escalation=(2.0,)), {"escalation": [2.0]},
                 id="penalty-escalation-start"),
    pytest.param("penalty", PenaltySettings(escalation=(1.0, 0.5)), {"escalation": [1.0, 0.5]},
                 id="penalty-escalation-decreasing"),
    pytest.param("penalty", PenaltySettings(mode="exotic"), {"mode": "exotic"},
                 id="penalty-mode"),
    pytest.param("penalty", PenaltySettings(rho_p=1.0), {"rho_p": 1.0}, id="penalty-rho_p"),
]


# A value within the bounds of each sweepable parameter, in its YAML form.
VALID_SWEEP_VALUES = {
    "rho": 0.5, "delta": 0.1, "theta": "1/2", "quorum": "3/4", "committee_size": 9,
    "detection_accuracy": 0.8, "r_total": 50.0, "activity_threshold": 0.1, "epsilon": 0.01,
    "pos_slash_delay": 3, "pos_slash_fraction": 0.5, "penalty.mode": "multiplicative",
    "penalty.base_coefficient": 2.0, "penalty.rho_p": 0.5,
}


class TestOneSchema:
    @pytest.mark.parametrize("field,value,yaml_value", BAD_FIELDS)
    def test_bad_value_rejected_on_every_path(self, field, value, yaml_value):
        """The loader and every way to make a config in Python: the constructor,
        `dataclasses.replace`, `with_overrides`, a preset's `build()` and a sweep
        point or grid."""
        base = {"protocol": "pob", "n_validators": 100}
        preset = Preset("bad", "one bad field",
                        build=lambda: ScenarioConfig(**{**base, field: value}))
        for make in (lambda: loads_config(yaml.safe_dump({**base, field: yaml_value})),
                     lambda: ScenarioConfig(**{**base, field: value}),
                     lambda: dataclasses.replace(loads_config(MINIMAL), **{field: value}),
                     lambda: with_overrides(loads_config(MINIMAL), **{field: value}),
                     preset.build):
            with pytest.raises(ConfigError) as err:
                make()
            assert err.value.field.split(".")[0] == field
        if field in sweepable():
            with pytest.raises(ConfigError) as err:
                apply_sweep_point(loads_config(MINIMAL), {field: yaml_value})
            assert err.value.field == f"sweep.{field}"
            with pytest.raises(ConfigError) as err:
                ScenarioConfig(**base, sweep={field: [yaml_value]})
            assert err.value.field == f"sweep.{field}"

    def test_sweepable_names_are_the_tagged_fields(self):
        assert set(sweepable()) == set(VALID_SWEEP_VALUES)

    @pytest.mark.parametrize("param", sweepable())
    def test_sweep_point_is_the_loaders_config(self, param):
        """A sweep point is built as the loader builds the config with its value."""
        value = VALID_SWEEP_VALUES[param]
        *block, key = param.split(".")
        mapping = {"protocol": "pob", "n_validators": 100,
                   **({block[0]: {key: value}} if block else {key: value})}
        point = apply_sweep_point(loads_config(MINIMAL + f"sweep:\n  {param}: [{value}]\n"),
                                  {param: value})
        assert point == loads_config(yaml.safe_dump(mapping))
        assert point != loads_config(MINIMAL)

    def test_listed_override_is_refused(self):
        """The constructor reads a stored override, a ProposerOverride, as the
        loader's mapping; a list is no override, from YAML or from Python, and
        neither is a tuple."""
        with pytest.raises(ConfigError, match="found list") as err:
            loads_config(MINIMAL + "proposer_override: [v0001, 0, 3]\n")
        assert err.value.field == "proposer_override"
        for listed in (["v0001", 0, 3], ("v0001", 0, 3)):
            with pytest.raises(ConfigError, match="found list") as err:
                with_overrides(loads_config(MINIMAL), proposer_override=listed)
            assert err.value.field == "proposer_override"
        cfg = with_overrides(loads_config(MINIMAL), proposer_override=ProposerOverride("v0001", 0, 3))
        assert cfg.proposer_override == ProposerOverride("v0001", 0, 3)
        assert cfg == with_overrides(loads_config(MINIMAL), proposer_override={
            "validator": "v0001", "from_epoch": 0, "to_epoch": 3})

    def test_unpickled_config_is_equal_and_not_parsed_again(self, monkeypatch):
        # A pool worker gets its config pickled; unpickling does not call the constructor.
        cfg = builtin_presets()["case-a-stealth"].build()
        data = pickle.dumps(cfg)

        def refuse(*args):
            raise AssertionError("parsed again")

        monkeypatch.setattr(pobsim.config, "_parse_fields", refuse)
        assert pickle.loads(data) == cfg
        with pytest.raises(AssertionError, match="parsed again"):
            dataclasses.replace(cfg)

    @pytest.mark.parametrize("line", ["rho: .nan", "epsilon: .inf", "r_total: 1" + "0" * 400])
    def test_non_finite_number_rejected(self, line):
        field = line.split(":")[0]
        with pytest.raises(ConfigError, match="not a finite number") as err:
            loads_config(MINIMAL + line + "\n")
        assert err.value.field == field
        with pytest.raises(ConfigError, match=f"sweep.{field}"):
            loads_config(MINIMAL + f"sweep:\n  {field}: [{line.split(': ')[1]}]\n")

    @pytest.mark.parametrize("name", sorted(builtin_presets()))
    def test_preset_round_trip(self, name):
        cfg = builtin_presets()[name].build()
        assert dataclasses.replace(cfg) == cfg  # parsed again from its YAML form: no change
        assert echo_config(loads_config(echo_config(cfg))) == echo_config(cfg)

    def test_overrides_are_parsed_as_the_loader_parses(self):
        cfg = with_overrides(loads_config(MINIMAL), theta="1/2", rho=1,
                             betas=[0.5, 0.25, 0.25])
        assert cfg.theta == Fraction(1, 2)
        assert cfg.rho == 1.0 and isinstance(cfg.rho, float)
        assert cfg.betas == (0.5, 0.25, 0.25)
        assert cfg == loads_config(MINIMAL + 'theta: "1/2"\nrho: 1\nbetas: [0.5, 0.25, 0.25]\n')

    def test_sweep_value_may_be_null_where_the_field_allows_it(self):
        cfg = loads_config(MINIMAL + "sweep:\n  committee_size: [null, 9]\n")
        assert apply_sweep_point(cfg, {"committee_size": None}).committee_size is None

    def test_roster_past_the_last_validator_is_a_cross_field_error(self):
        cfg = loads_config(MINIMAL + "roster:\n  - {range: [90, 100], kind: stealth}\n")
        with pytest.raises(ConfigError, match=r"roster\[0\]\.range"):
            with_overrides(cfg, n_validators=50)
