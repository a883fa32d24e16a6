"""Decentralized misbehavior review.

Suspicious behaviors are judged by committees sampled from the other
validators. A member with a coalition vote casts it; every other member
spots harm with the configured detection accuracy. A verdict is guilty
when the malicious-vote fraction reaches the threshold theta (compared as
an exact rational, so a 2/3 bar cannot be flipped by float rounding).
Guilty verdicts slash the subject's weight in the roster-aligned weight
list, with escalation for repeat offenders. The review reads behavior
columns and roster positions; it builds no behavior record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .config import PenaltySettings
from .scoring import ActionKind, BehaviorColumns


@dataclass(frozen=True)
class Penalty:
    """How a guilty subject is to be slashed."""

    kind: str  # "additive" | "multiplicative" | "full"
    value: float  # weight delta (additive) or retained fraction (multiplicative)


@dataclass(frozen=True)
class Verdict:
    subject: str
    epoch: int
    behavior_index: int
    malicious_fraction: float
    committee_size: int
    guilty: bool
    penalty_applied: float  # weight actually removed; 0 unless guilty
    penalty_kind: str = ""
    penalty_value: float = 0.0
    reporter_count: int = 1

    def __post_init__(self):
        if not self.guilty and self.penalty_applied != 0.0:
            raise ValueError("penalty_applied must be 0 for not-guilty verdicts")


def escalation(policy: PenaltySettings, offense_count: int) -> float:
    """The multiplier at offense count `offense_count`; counts beyond the
    schedule reuse its last entry."""
    return policy.escalation[min(offense_count, len(policy.escalation) - 1)]


def decide(verdict_votes: Sequence[bool], theta: Fraction) -> tuple[bool, Fraction]:
    """Tally votes against theta using exact rational arithmetic."""
    if not verdict_votes:
        raise ValueError("vote list is empty")
    if not 0 < theta <= 1:
        raise ValueError(f"theta {theta} outside (0, 1]")
    phi_x = Fraction(sum(1 for v in verdict_votes if v), len(verdict_votes))
    return phi_x >= theta, phi_x


def compute_penalty(policy: PenaltySettings, kind: ActionKind, base_utility: float,
                    offense_count: int) -> Penalty:
    """Penalty for a behavior of `kind` and `base_utility` already found guilty.

    Additive mode removes p * escalation(f) * |base utility| of weight
    (magnitude: harmful behaviors carry negative base utility and the
    slash must shrink, not grow, the offender). Multiplicative mode keeps
    a rho_p ** escalation(f) fraction. Kinds in `full_slash_kinds` wipe
    the entire weight regardless of mode.
    """
    if offense_count < 0:
        raise ValueError("offense_count must be >= 0")
    if kind.value in policy.full_slash_kinds:
        return Penalty("full", 0.0)
    esc = escalation(policy, offense_count)
    if policy.mode == "additive":
        return Penalty("additive", policy.base_coefficient * esc * abs(base_utility))
    return Penalty("multiplicative", policy.rho_p**esc)


def slash(weight: float, penalty: Penalty) -> float:
    """The weight left after `penalty`: additive removes a `value` >= 0, floored at
    zero; multiplicative keeps a `value` fraction in [0, 1); full leaves nothing."""
    kind, value = penalty.kind, penalty.value
    if kind == "additive" and value >= 0:
        return max(0.0, weight - value)
    if kind == "multiplicative" and 0.0 <= value < 1.0:
        return weight * value
    if kind == "full":
        return 0.0
    raise ValueError(f"no slash for {penalty!r}")


def process_epoch_suspicions(
    sessions: Sequence[tuple[int, int, int, bool]],
    roster: Sequence[str],
    weights: Sequence[float],
    cols: BehaviorColumns,
    policy: PenaltySettings,
    theta: Fraction,
    committee_size: int,
    rng: random.Random,
    offense_counts: dict[str, int],
    detection_accuracy: float,
    voters: Mapping[int, Callable[[str], bool]],
) -> tuple[list[float], list[Verdict]]:
    """Convene one committee per session and apply its verdict.

    A session is (subject position, row of `cols`, reporter count, whether
    the row is harmful). Positions index the sorted `roster`, and
    `weights` is aligned with it. Sessions run in (subject position, row)
    order, which is (subject id, behavior index) order. Each committee is
    `rng.sample` of `committee_size` roster positions without the
    subject's, and its members vote in ascending position. A member with
    an entry in `voters` votes `voters[member](subject id)`; any other
    member votes malicious on one `rng` draw, with probability
    `detection_accuracy` on a harmful row and 1 - accuracy otherwise.
    Guilty verdicts slash the subject in a copy of `weights` and bump its
    offense count in `offense_counts`, in place.
    """
    if not 0.0 <= detection_accuracy <= 1.0:
        raise ValueError(f"detection_accuracy {detection_accuracy} outside [0, 1]")
    weights = list(weights)
    others = len(roster) - 1
    draw = rng.random
    verdicts: list[Verdict] = []
    for subject_pos, row, reporters, harmful in sorted(sessions):
        subject = roster[subject_pos]
        p_malicious = detection_accuracy if harmful else 1.0 - detection_accuracy
        # Index m of the roster without the subject is position m, or m + 1 past the subject.
        members = sorted(m + (m >= subject_pos) for m in rng.sample(range(others), committee_size))
        votes = [voters[m](subject) if m in voters else draw() < p_malicious for m in members]
        guilty, phi_x = decide(votes, theta) if votes else (False, Fraction(0))
        removed, penalty = 0.0, Penalty("", 0.0)
        if guilty:
            count = offense_counts.get(subject, 0)
            penalty = compute_penalty(policy, cols.kind[row], cols.base_utility[row], count)
            before = weights[subject_pos]
            weights[subject_pos] = slash(before, penalty)
            removed = before - weights[subject_pos]
            offense_counts[subject] = count + 1
        verdicts.append(Verdict(
            subject, cols.epoch, row, float(phi_x), len(votes), guilty, removed,
            penalty_kind=penalty.kind, penalty_value=penalty.value, reporter_count=reporters))
    return weights, verdicts
