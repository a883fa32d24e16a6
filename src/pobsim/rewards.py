"""Epoch reward distribution.

Every active validator (epoch score above the activity threshold) gets a
fixed base stipend; the remainder of the pool is shared in proportion to
weight. An optional activeness multiplier (1 + epsilon * A_i) tops up the
most engaged nodes; at epsilon = 0 the pool is conserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import RewardPoolError
from .scoring import slot_setters
from .weights import WeightTable


@dataclass(frozen=True)
class RewardSchedule:
    total_reward: float
    base_reward: float
    activity_threshold: float = 0.0
    activeness_epsilon: float = 0.0

    def __post_init__(self):
        if self.total_reward < 0:
            raise ValueError("total_reward must be >= 0")
        if self.base_reward < 0:
            raise ValueError("base_reward must be >= 0")
        if self.activeness_epsilon < 0:
            raise ValueError("activeness_epsilon must be >= 0")


@dataclass(frozen=True, slots=True)
class Payout:
    validator: str
    base: float
    bonus: float
    activeness_multiplier: float
    total: float

    # Hand-written, so the dataclass keeps it: one slot write per field
    # (see scoring.slot_setters).
    def __init__(self, validator, base, bonus, activeness_multiplier, total):
        _set_validator(self, validator)
        _set_base(self, base)
        _set_bonus(self, bonus)
        _set_activeness_multiplier(self, activeness_multiplier)
        _set_total(self, total)


_set_validator, _set_base, _set_bonus, _set_activeness_multiplier, _set_total = slot_setters(Payout)


def distribute(
    schedule: RewardSchedule,
    table: WeightTable,
    epoch_scores: Mapping[str, float],
    activeness: Mapping[str, float] | None = None,
) -> list[Payout]:
    """Split the epoch pool over the active set.

    The active set is every validator whose epoch score strictly exceeds
    the schedule's activity threshold. Each active validator receives
    base + bonus * (its weight share among actives), scaled by
    (1 + epsilon * A_i). Inactive validators receive nothing. If every
    active validator has zero weight the bonus is split uniformly.
    Raises RewardPoolError when the stipends alone exceed the pool.
    """
    threshold = schedule.activity_threshold
    actives = sorted([v for v, score in epoch_scores.items() if score > threshold])
    if not actives:
        return []
    base = schedule.base_reward
    stipend_total = base * len(actives)
    if stipend_total > schedule.total_reward:
        raise RewardPoolError(
            f"base stipend {base} x {len(actives)} active "
            f"validators exceeds pool {schedule.total_reward}"
        )
    bonus_pool = schedule.total_reward - stipend_total
    entries = table.entries
    weights = [entries[v] for v in actives]
    weight_total = sum(weights)
    uniform_share = 1.0 / len(actives)
    epsilon = schedule.activeness_epsilon
    activeness_of = activeness.get if activeness is not None else {}.get
    payouts: list[Payout] = []
    append = payouts.append
    for v, w in zip(actives, weights):
        bonus = bonus_pool * (w / weight_total if weight_total > 0.0 else uniform_share)
        multiplier = 1.0 + epsilon * activeness_of(v, 0.0)
        append(Payout(v, base, bonus, multiplier, (base + bonus) * multiplier))
    return payouts
