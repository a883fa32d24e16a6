"""Layered behavior scoring.

Each action a validator takes is scored as the sum of a motivation part
(weighted intensities over motivation types) and an outcome part
(base utility shaped by context and initiative). Per-epoch cumulative
scores drive the weight update; the activeness blend tracks how engaged
a validator is beyond raw utility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Iterable, Sequence

from .weights import left_sum

WEIGHT_SUM_TOL = 1e-9


class ActionKind(str, Enum):
    PROPOSE = "propose-block"
    VALIDATE = "validate-block"
    ORACLE = "oracle-report"
    FRAUD = "fraud-attempt"
    IDLE = "idle"
    DOUBLE_SIGN = "double-sign"


# Kinds that count toward the diversity index: the constructive roles a
# validator can play. Misbehavior kinds do not make a node "diverse".
CONSTRUCTIVE_KINDS = frozenset({ActionKind.PROPOSE, ActionKind.VALIDATE, ActionKind.ORACLE})


@dataclass(frozen=True)
class MotivationProfile:
    """Motivation intensities and their designer-chosen importance weights.

    `utility`, the weighted sum of the intensities, is computed once at
    construction; it is an attribute, not a field, so equality, hashing
    and serialization see only the two vectors.
    """

    intensities: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "intensities", tuple(float(x) for x in self.intensities))
        object.__setattr__(self, "weights", tuple(float(x) for x in self.weights))
        if len(self.intensities) == 0:
            raise ValueError("motivation profile needs at least one type")
        if len(self.intensities) != len(self.weights):
            raise ValueError(
                f"intensities ({len(self.intensities)}) and weights "
                f"({len(self.weights)}) must have the same length"
            )
        for w in self.weights:
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"motivation weight {w} outside [0, 1]")
        total = left_sum(self.weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"motivation weights sum to {total}, expected 1")
        object.__setattr__(
            self, "utility", left_sum(i * w for i, w in zip(self.intensities, self.weights))
        )


@dataclass(frozen=True, slots=True)
class BehaviorRecord:
    """One action by one validator in one epoch.

    `is_fraud_ground_truth` is a metrics-only label: nothing in scoring,
    weights, watchdog or rewards may branch on it.
    """

    actor: str
    epoch: int
    kind: ActionKind
    base_utility: float
    context_factor: float
    initiative: float
    motivation: MotivationProfile
    is_fraud_ground_truth: bool = False

    def __post_init__(self):
        check_record_ranges(self.context_factor, self.initiative)
        if self.epoch < 0:
            raise ValueError("epoch must be >= 0")


def check_record_ranges(context_factor: float, initiative: float) -> None:
    """The range checks of a behavior record's context factor and initiative."""
    if not 0.0 <= context_factor <= 1.0:
        raise ValueError(f"context_factor {context_factor} outside [0, 1]")
    if not 0.0 <= initiative <= 1.0:
        raise ValueError(f"initiative {initiative} outside [0, 1]")


@dataclass(slots=True)
class BehaviorColumns:
    """One epoch's behavior records as parallel lists, in record order.

    `actor` holds roster positions. Every row passes the record's range
    checks: in `add`, or by its emitter for rows appended in bulk.
    """

    epoch: int
    actor: list[int] = field(default_factory=list)
    kind: list[ActionKind] = field(default_factory=list)
    base_utility: list[float] = field(default_factory=list)
    context_factor: list[float] = field(default_factory=list)
    initiative: list[float] = field(default_factory=list)
    motivation: list[MotivationProfile] = field(default_factory=list)
    fraud: list[bool] = field(default_factory=list)

    def add(self, actor: int, kind: ActionKind, base_utility: float, context_factor: float,
            initiative: float, motivation: MotivationProfile, fraud: bool = False) -> None:
        check_record_ranges(context_factor, initiative)
        for column, value in zip((self.actor, self.kind, self.base_utility, self.context_factor,
                                  self.initiative, self.motivation, self.fraud),
                                 (actor, kind, base_utility, context_factor, initiative,
                                  motivation, fraud)):
            column.append(value)

    def records(self, roster: Sequence[str]) -> tuple[BehaviorRecord, ...]:
        return tuple(map(BehaviorRecord, map(roster.__getitem__, self.actor),
                         repeat(self.epoch), self.kind, self.base_utility, self.context_factor,
                         self.initiative, self.motivation, self.fraud))


@dataclass(frozen=True)
class ActivenessInputs:
    """Per-validator participation summary over one scoring window."""

    action_count: int
    network_mean_actions: float
    mean_initiative: float
    diversity: float
    betas: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self):
        check_betas(self.betas)


def check_betas(betas: Sequence[float]) -> None:
    """Raise ValueError unless the activeness blend weights are a convex mix."""
    total = left_sum(betas)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"betas sum to {total}, expected 1")
    for b in betas:
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"beta {b} outside [0, 1]")


def motivation_utility(m: MotivationProfile) -> float:
    """Weighted sum of motivation intensities."""
    return m.utility


def outcome_utility(b: BehaviorRecord) -> float:
    """Base utility shaped by context and initiative; keeps the sign of the base."""
    return b.base_utility * b.context_factor * b.initiative


def total_utility(b: BehaviorRecord) -> float:
    return b.motivation.utility + outcome_utility(b)


def utility_columns(cols: BehaviorColumns) -> tuple[list[float], list[float]]:
    """`outcome_utility` and `total_utility` of every row of `cols`, in row order."""
    outcomes = [b * c * i for b, c, i in zip(cols.base_utility, cols.context_factor,
                                             cols.initiative)]
    return outcomes, [m.utility + o for m, o in zip(cols.motivation, outcomes)]


def epoch_score(behaviors: Iterable[BehaviorRecord], actor: str, epoch: int) -> float:
    """Cumulative utility of `actor` over the given epoch. Empty selection -> 0."""
    return left_sum(total_utility(b) for b in behaviors if b.actor == actor and b.epoch == epoch)


def activeness(a: ActivenessInputs) -> float:
    """Blend of relative frequency, mean initiative and diversity."""
    if a.network_mean_actions <= 0:
        raise ValueError("network_mean_actions must be > 0")
    return activeness_column((a.action_count / a.network_mean_actions,), (a.mean_initiative,),
                             (a.diversity,), a.betas)[0]


def activeness_column(freq_ratios: Iterable[float], mean_initiatives: Iterable[float],
                      diversities: Iterable[float], betas: Sequence[float]) -> list[float]:
    """The activeness rule over aligned columns, one value per row."""
    b1, b2, b3 = betas
    return [b1 * f + b2 * i + b3 * d for f, i, d in zip(freq_ratios, mean_initiatives, diversities)]


def looks_scripted(freq_ratio: float, mean_initiative: float, diversity: float,
                   freq_threshold: float, quality_threshold: float) -> bool:
    """The anomaly rule on plain numbers.

    Fires only if the action rate is far above the network mean while both
    initiative and diversity sit below the quality bar.
    """
    if freq_threshold <= 0 or quality_threshold <= 0:
        raise ValueError("thresholds must be > 0")
    return (
        freq_ratio > freq_threshold
        and mean_initiative < quality_threshold
        and diversity < quality_threshold
    )


def diversity_index(kinds: Iterable[ActionKind]) -> float:
    """Distinct constructive roles performed / number of constructive roles."""
    return len(CONSTRUCTIVE_KINDS.intersection(kinds)) / len(CONSTRUCTIVE_KINDS)


# diversity_index of an actor whose only record is of the given kind.
SINGLE_KIND_DIVERSITY = {kind: diversity_index((kind,)) for kind in ActionKind}
