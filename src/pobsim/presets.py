"""Built-in scenario library.

Each preset is a ready-to-run ScenarioConfig at desk scale. The two
fairness presets differ only in network size; the replay preset bundles
a synthetic 1000-block trace with a single exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

from .config import (
    PenaltySettings,
    ProposerOverride,
    RosterEntry,
    ScenarioConfig,
)
from .adversaries import StrategySpec

TRACE_RESOURCE = "case_c_trace.txt"


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    build: Callable[[], ScenarioConfig]
    trace: Optional[str] = None  # packaged trace resource, replay presets only
    ic_check: bool = False


def bundled_trace_path() -> Path:
    return Path(str(resources.files("pobsim").joinpath("data", TRACE_RESOURCE)))


def _case_a_stealth() -> ScenarioConfig:
    return ScenarioConfig(
        protocol="paired",
        n_validators=100,
        name="case-a-stealth",
        epochs=200,
        trials=5,
        seed=42,
        roster=(
            RosterEntry(99, 100, StrategySpec("stealth", {"fraud_rate": 0.05, "fraud_value": 50.0})),
        ),
    )


def _case_a_sybil() -> ScenarioConfig:
    return ScenarioConfig(
        protocol="paired",
        n_validators=100,
        name="case-a-sybil",
        epochs=200,
        trials=5,
        seed=42,
        roster=(
            RosterEntry(
                90,
                100,
                StrategySpec(
                    "sybil-burst",
                    {"sybil_count": 10, "burst_epoch": 50, "fraud_value": 50.0},
                ),
            ),
        ),
    )


def _case_b_100() -> ScenarioConfig:
    return ScenarioConfig(
        protocol="paired",
        n_validators=100,
        name="case-b-fairness-100",
        epochs=2000,
        trials=5,
        seed=42,
        genesis_weights="stake",
        stake_distribution="pareto",
        newcomer_epoch=500,
    )


def _case_b_1000() -> ScenarioConfig:
    # Identical to the 100-validator scenario apart from network size. Smoke
    # tests override epochs/trials down (e.g. --epochs 20 --trials 2).
    return ScenarioConfig(
        protocol="paired",
        n_validators=1000,
        name="case-b-fairness-1000",
        epochs=2000,
        trials=5,
        seed=42,
        genesis_weights="stake",
        stake_distribution="pareto",
        newcomer_epoch=500,
    )


def _case_c_replay() -> ScenarioConfig:
    return ScenarioConfig(
        protocol="paired",
        n_validators=100,
        name="case-c-replay",
        epochs=1000,  # overridden by the trace length at replay time
        trials=3,
        seed=42,
        penalty=PenaltySettings(mode="multiplicative", rho_p=0.2),
        # Equal stakes keep the baseline's quorum dynamics identical to the
        # behavior-weighted run, so the latency gap measures pipeline
        # overhead and nothing else.
        stake_distribution="equal",
    )


def _case_d_adaptive_sybil() -> ScenarioConfig:
    return ScenarioConfig(
        protocol="pob",
        n_validators=100,
        name="case-d-adaptive-sybil",
        epochs=100,
        trials=3,
        seed=42,
        roster=(
            RosterEntry(
                95,
                100,
                StrategySpec(
                    "adaptive-sybil",
                    {
                        "spawn_rate": 0.1,
                        "join_weight": 0.0,
                        "fraud_value": 1.0,
                        "max_population": 200,
                    },
                ),
            ),
        ),
    )


def _case_d_long_range() -> ScenarioConfig:
    return ScenarioConfig(
        protocol="pob",
        n_validators=100,
        name="case-d-long-range",
        epochs=200,
        trials=3,
        seed=42,
        roster=(
            RosterEntry(
                95,
                100,
                StrategySpec(
                    "long-range-fork",
                    {"fork_depth": 150, "fraud_rate": 0.1, "fraud_value": 20.0},
                ),
            ),
        ),
    )


def _case_d_griefing() -> ScenarioConfig:
    return ScenarioConfig(
        protocol="pob",
        n_validators=100,
        name="case-d-griefing",
        epochs=50,
        trials=3,
        seed=42,
        roster=(
            RosterEntry(0, 1, StrategySpec("griefing", {"empty_block_run": 10})),
        ),
        proposer_override=ProposerOverride("v0000", 0, 10),
    )


def _case_e_sweep() -> ScenarioConfig:
    return ScenarioConfig(
        protocol="pob",
        n_validators=100,
        name="case-e-sweep",
        epochs=120,
        trials=2,
        seed=42,
        newcomer_epoch=30,
        # A small committee keeps the threshold sweep informative: at
        # committee size 9 a 0.9 supermajority is genuinely hard to reach.
        committee_size=9,
        penalty=PenaltySettings(mode="additive", base_coefficient=1.0),
        roster=(
            RosterEntry(99, 100, StrategySpec("stealth", {"fraud_rate": 0.05, "fraud_value": 50.0})),
        ),
        sweep={
            "penalty.base_coefficient": [1.0, 1.5],
            "theta": ["1/2", "7/10", "9/10"],
            "rho": [0.9, 0.99, 1.0],
        },
    )


def _ic_check() -> ScenarioConfig:
    return ScenarioConfig(
        protocol="pob",
        n_validators=50,
        name="ic-check",
        epochs=150,
        trials=5,
        seed=42,
        penalty=PenaltySettings(mode="multiplicative", rho_p=0.2),
        roster=(
            RosterEntry(49, 50, StrategySpec("stealth", {"fraud_rate": 0.05, "fraud_value": 50.0})),
        ),
    )


def builtin_presets() -> dict[str, Preset]:
    presets = [
        Preset("case-a-stealth", "stealth loan-fraud attacker vs both protocols", _case_a_stealth),
        Preset("case-a-sybil", "ten-identity fraud burst vs both protocols", _case_a_sybil),
        Preset("case-b-fairness-100", "proposer fairness at 100 validators", _case_b_100),
        Preset("case-b-fairness-1000", "proposer fairness at 1000 validators", _case_b_1000),
        Preset(
            "case-c-replay",
            "synthetic 1000-block trace with one exploit, replayed",
            _case_c_replay,
            trace=TRACE_RESOURCE,
        ),
        Preset("case-d-adaptive-sybil", "respawning Sybil identities", _case_d_adaptive_sybil),
        Preset("case-d-long-range", "private fork from an old checkpoint", _case_d_long_range),
        Preset("case-d-griefing", "valid-but-empty block spam", _case_d_griefing),
        Preset("case-e-sweep", "penalty/threshold/memory parameter grid", _case_e_sweep),
        Preset("ic-check", "paired honest-vs-deviating payoff comparison", _ic_check, ic_check=True),
    ]
    return {p.name: p for p in presets}
