"""Epoch reward distribution.

Every active validator (epoch score above the activity threshold) gets a
fixed base stipend; the remainder of the pool is shared in proportion to
weight. An optional activeness multiplier (1 + epsilon * A_i) tops up the
most engaged nodes; at epsilon = 0 the pool is conserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import gt
from typing import Sequence

from .errors import RewardPoolError
from .weights import left_sum


@dataclass(frozen=True)
class RewardSchedule:
    """The pool terms of a config (`ScenarioConfig.reward_schedule`), whose
    fields keep `r_total`, `r_base` and `epsilon` >= 0."""

    total_reward: float
    base_reward: float
    activity_threshold: float = 0.0
    activeness_epsilon: float = 0.0


@dataclass
class PoolSplit:
    """One epoch's payouts as columns: the paid roster positions, in roster order."""

    actives: list[int]
    base: float
    bonus: list[float]
    multiplier: list[float]
    total: list[float]


def stipends(schedule: RewardSchedule, active_count: int) -> float:
    """The base stipends of `active_count` active validators.
    Raises RewardPoolError when they exceed the pool."""
    total = schedule.base_reward * active_count
    if total > schedule.total_reward:
        raise RewardPoolError(
            f"base stipend {schedule.base_reward} x {active_count} active "
            f"validators exceeds pool {schedule.total_reward}"
        )
    return total


def split_pool(schedule: RewardSchedule, weights: Sequence[float], scores: Sequence[float],
               activeness: Sequence[float]) -> PoolSplit:
    """Split the epoch pool over the active set; the lists are aligned by roster position.

    The active set is the validators whose epoch score is strictly above
    `activity_threshold`. Each active validator receives base + bonus * (its
    weight share among actives), scaled by (1 + epsilon * A_i). Inactive
    validators receive nothing. If every active validator has zero weight
    the bonus is split uniformly.
    Raises RewardPoolError when the stipends alone exceed the pool.
    """
    base = schedule.base_reward
    active = map(gt, scores, repeat(schedule.activity_threshold))
    actives = list(compress(range(len(scores)), active))
    if not actives:
        return PoolSplit([], base, [], [], [])
    bonus_pool = schedule.total_reward - stipends(schedule, len(actives))
    if len(actives) < len(scores):
        weights = [weights[p] for p in actives]
        activeness = [activeness[p] for p in actives]
    weight_total = left_sum(weights)
    if weight_total > 0.0:
        bonus = [bonus_pool * (w / weight_total) for w in weights]
    else:
        bonus = [bonus_pool * (1.0 / len(actives))] * len(actives)
    multiplier = [1.0 + schedule.activeness_epsilon * a for a in activeness]
    return PoolSplit(actives, base, bonus, multiplier,
                     [(base + b) * m for b, m in zip(bonus, multiplier)])
