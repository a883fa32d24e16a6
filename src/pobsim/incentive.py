"""Incentive-compatibility checks.

The analytic side compares the best one-round gain from deviating
against the discounted stream of rewards put at risk by detection and
slashing. The empirical side runs paired simulations of one focal
validator (honest twin versus deviating twin, driven by common random
numbers) and compares discounted payoffs, where a deviator's payoff
includes the value of fraud the network actually let through.
"""

from __future__ import annotations

import dataclasses
from contextlib import closing
from dataclasses import dataclass

from .config import ScenarioConfig
from .experiments import _run_tasks
from .metrics import TrialTally
from .netsim import trial_epochs
from .weights import left_sum


@dataclass(frozen=True)
class IncentiveParams:
    """Inputs to the analytic honest-equilibrium condition."""

    discount: float  # per-round discount, in (0, 1)
    immediate_penalty: float = 0.0
    slash_factor: float = 0.2  # retained weight fraction on detection
    expected_honest_reward: float = 0.0
    deviation_gain: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.discount < 1.0:
            raise ValueError(f"discount {self.discount} outside (0, 1)")
        if not 0.0 <= self.slash_factor < 1.0:
            raise ValueError(f"slash_factor {self.slash_factor} outside [0, 1)")
        if self.immediate_penalty < 0 or self.expected_honest_reward < 0 or self.deviation_gain < 0:
            raise ValueError("penalty, reward and gain must be >= 0")


def future_loss(p: IncentiveParams) -> float:
    """Penalty plus the discounted honest-reward stream lost to slashing."""
    return p.immediate_penalty + (1.0 - p.slash_factor) * p.expected_honest_reward / (
        1.0 - p.discount
    )


def check_ic(p: IncentiveParams) -> tuple[bool, float]:
    """Does the future loss strictly dominate the one-round deviation gain?"""
    loss = future_loss(p)
    margin = loss - p.deviation_gain
    return margin > 0.0, margin


# ---------------------------------------------------------------------------
# Empirical check via paired simulation
# ---------------------------------------------------------------------------

def _focal_arm(config: ScenarioConfig, seed: int, focal: str,
               honest: bool) -> tuple[list[float], list]:
    """One arm of a paired trial, streamed through a pob `trial_epochs`: the
    focal's payout plus accepted fraud value per round, and its fraud outcomes.
    In the `honest` arm the focal plays honestly, and its roster entry keeps
    its coalition: its fraud split, its votes and its fork keys.

    A focal off the roster (a retired adaptive Sybil) or not active is not paid.
    """
    payoffs = [0.0] * config.epochs
    tally = TrialTally(config, "pob")
    with closing(trial_epochs(config, seed, ("pob",),
                              honest=(focal,) if honest else ())) as epochs:
        for (ledger,) in epochs:
            tally.add(ledger)
            if focal in ledger.roster:
                split, position = ledger.pool_split, ledger.roster.index(focal)
                if position in split.actives:
                    payoffs[ledger.epoch] += split.total[split.actives.index(position)]
    outcomes = [outcome for outcome in tally.fraud_outcomes() if outcome.actor == focal]
    for outcome in outcomes:
        if outcome.accepted:
            payoffs[outcome.epoch] += outcome.value
    return payoffs, outcomes


def _discounted(payoffs: list[float], discount: float) -> float:
    total = 0.0
    factor = 1.0
    for value in payoffs:
        total += factor * value
        factor *= discount
    return total


def find_focal(config: ScenarioConfig) -> str:
    """The deviating validator: first non-honest roster slot."""
    for entry in config.roster:
        if entry.spec.kind != "honest":
            return config.validator_ids()[entry.lo]
    raise ValueError("scenario has no deviating validator to compare against")


def empirical_ic(config: ScenarioConfig, discount: float = 0.95) -> dict:
    """Paired honest-vs-deviating simulation under common random numbers.

    Both arms of each pair run `config` from one root seed, the honest arm
    with the focal validator swapped for an honest one (`_focal_arm`), so
    everything except the focal's own choices is identical. Each arm of each
    trial is a task of `_run_tasks` (`config.workers`). Reports discounted
    payoffs per arm, the measured per-round deviation gain, the implied
    future loss, and whether the analytic condition held.
    """
    if not 0.0 < discount < 1.0:
        raise ValueError(f"discount {discount} outside (0, 1)")
    focal = find_focal(config)
    rounds, trials = config.epochs, config.trials
    seeds = [config.seed + k for k in range(trials)]
    arms = iter(_run_tasks(_focal_arm, config.workers,
                           [(config, seed, focal, honest) for seed in seeds
                            for honest in (False, True)]))

    per_trial = []
    measured_delta_r = 0.0
    honest_round_means = []
    deviations = []  # the focal's fraud outcomes in the deviant arms
    for seed in seeds:
        (deviant_rounds, outcomes), (honest_rounds, _) = next(arms), next(arms)
        gain = max(
            (d - h for d, h in zip(deviant_rounds, honest_rounds)), default=0.0
        )
        measured_delta_r = max(measured_delta_r, gain)
        honest_round_means.append(left_sum(honest_rounds) / max(1, rounds))
        deviations += outcomes
        per_trial.append(
            {
                "seed": seed,
                "honest_discounted": _discounted(honest_rounds, discount),
                "deviant_discounted": _discounted(deviant_rounds, discount),
            }
        )

    expected_honest = left_sum(honest_round_means) / max(1, len(honest_round_means))
    slash_factor = (
        config.penalty.rho_p if config.penalty.mode == "multiplicative" else 0.0
    )
    params = IncentiveParams(
        discount=discount,
        slash_factor=slash_factor,
        expected_honest_reward=expected_honest,
        deviation_gain=measured_delta_r,
    )
    holds, margin = check_ic(params)
    # The analytic condition assumes certain detection; committees are not
    # certain. Scaling the future loss by the measured detection rate gives
    # the condition the simulated mechanism actually enforces.
    punished = sum(1 for outcome in deviations if not outcome.accepted)
    detection_rate = punished / len(deviations) if deviations else None
    loss = future_loss(params)
    effective_loss = loss if detection_rate is None else detection_rate * loss
    effective_margin = effective_loss - measured_delta_r
    honest_mean = left_sum(t["honest_discounted"] for t in per_trial) / max(1, trials)
    deviant_mean = left_sum(t["deviant_discounted"] for t in per_trial) / max(1, trials)
    deviation_unprofitable_all = all(
        t["deviant_discounted"] < t["honest_discounted"] for t in per_trial
    )
    return {
        "focal": focal,
        "rounds": rounds,
        "trials": trials,
        "discount": discount,
        "params": dataclasses.asdict(params),
        "future_loss": loss,
        "measured_delta_r": measured_delta_r,
        "ic_holds": holds,
        "ic_margin": margin,
        "detection_rate": detection_rate,
        "effective_future_loss": effective_loss,
        "ic_holds_effective": effective_margin > 0.0,
        "ic_margin_effective": effective_margin,
        "honest_discounted_mean": honest_mean,
        "deviant_discounted_mean": deviant_mean,
        "deviation_unprofitable_all_trials": deviation_unprofitable_all,
        "ic_violation_observed": deviant_mean >= honest_mean,
        "per_trial": per_trial,
    }
