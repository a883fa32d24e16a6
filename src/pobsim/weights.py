"""Validator weights: EMA update, normalization, both election lotteries
and the block quorum.

Weights are relative influence. The per-epoch update retains a (1 - rho)
share of the old weight and folds in a rho share of the validator's slice
of the epoch's clamped utility. The kernels work on lists aligned with
the roster; `WeightTable` is an immutable {id: weight} snapshot over them.
The behavior-weighted protocol elects with `dampened_pick`, the PoS
baseline with `stake_pick` over its stakes (drawn by `pareto_stakes`),
and `election_prob` is the closed form of both. A block confirms when the
weight of its votes reaches the quorum (`quorum_time`).

When no weight is left, both lotteries elect uniformly (`proportional_pick`)
and a block confirms nothing.
"""

from __future__ import annotations

import functools
import operator
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

# Every float sum on the trial and output path adds left to right, so a
# config and seed give the same bytes on every interpreter. Python 3.12
# made `sum()` of floats a compensated sum, which rounds differently.
# Before 3.12 the builtin adds left to right, bit for bit as the reduce
# does, and several times faster.
if sys.version_info >= (3, 12):
    def left_sum(values: Iterable[float]) -> float:
        return functools.reduce(operator.add, values, 0)
else:
    left_sum = sum


@dataclass(frozen=True)
class WeightTable:
    """Immutable snapshot of validator weights at one epoch boundary."""

    entries: dict[str, float]
    epoch: int = 0

    def __post_init__(self):
        for vid, w in self.entries.items():
            if w < 0:
                raise ValueError(f"weight of {vid} is negative ({w})")

    @property
    def total(self) -> float:
        """The summed weight, in entry order (sorted by id wherever netsim builds a table)."""
        return left_sum(self.entries.values())

    def ids(self) -> list[str]:
        return sorted(self.entries)


def normalize(weights: Sequence[float]) -> list[float]:
    """Weights rescaled to unit sum, summed in order; uniform when all mass is gone."""
    total = left_sum(weights)
    if total <= 0.0:
        return [1.0 / len(weights)] * len(weights)
    return [w / total for w in weights]


def update_weights(table: WeightTable, epoch_scores: Mapping[str, float], rho: float) -> WeightTable:
    """`ema_step` over the table's ids in sorted order; an unscored id scores 0."""
    ids = table.ids()
    unknown = set(epoch_scores) - set(ids)
    if unknown:
        raise KeyError(f"scores for unknown validators: {sorted(unknown)}")
    weights = ema_step([table.entries[v] for v in ids], [epoch_scores.get(v, 0.0) for v in ids],
                       rho)
    return WeightTable(dict(zip(ids, weights)), table.epoch + 1)


def ema_step(weights: Sequence[float], scores: Sequence[float], rho: float) -> list[float]:
    """One EMA step over aligned lists: W <- (1 - rho) * W + rho * clamped-score share.

    Negative scores are clamped to zero before computing shares (penalties
    are the watchdog's channel, not the share term). A zero clamped total
    falls back to a uniform 1/N share so the step stays well defined.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho {rho} outside [0, 1]")
    clamped = [s if s > 0.0 else 0.0 for s in scores]  # max(0.0, s), NaN to 0 included
    total = left_sum(clamped)
    keep = 1.0 - rho
    if total > 0.0:
        return [keep * w + rho * (c / total) for w, c in zip(weights, clamped)]
    return [keep * w + rho * (1.0 / len(weights)) for w in weights]


def select_proposer(
    table: WeightTable,
    active: Iterable[str],
    delta: float,
    rng: random.Random,
) -> str:
    """Draw a proposer from the dampened weighted lottery.

    With probability delta the pick is uniform over the active set;
    otherwise proportional to current weight among actives.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta {delta} outside [0, 1]")
    ids = sorted(active)
    return ids[dampened_pick([table.entries[v] for v in ids], delta, rng)]


def dampened_pick(weights: Sequence[float], delta: float, rng: random.Random) -> int:
    """The dampened lottery over a weight list: the index of the proposer,
    uniform with probability delta and weight-proportional otherwise."""
    if rng.random() < delta:
        return rng.randrange(len(weights))
    return proportional_pick(weights, rng)


def stake_pick(stakes: Sequence[float], rng: random.Random) -> int:
    """Strictly stake-proportional lottery over a stake list: the proposer's index."""
    return proportional_pick(stakes, rng)


def proportional_pick(weights: Sequence[float], rng: random.Random) -> int:
    """The index whose running weight sum first exceeds random() * total;
    uniform (one `randrange`) when no weight is left."""
    if not weights:
        raise ValueError("active set is empty")
    total = left_sum(weights)
    if total <= 0.0:
        return rng.randrange(len(weights))
    pick = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if pick < acc:
            return i
    return len(weights) - 1


def election_prob(roster: Sequence[str], weights: Sequence[float], vid: str,
                  delta: float) -> float:
    """Probability of `vid` being elected proposer from one epoch's weights,
    listed in `roster` order.

    The behavior-weighted lottery mixes a uniform share `delta` into the
    weight-proportional one; the stake lottery is the case delta = 0. Both
    are uniform when no weight is left.
    """
    try:
        weight = weights[roster.index(vid)]
    except ValueError:
        return 0.0
    total = left_sum(weights)
    proportional = weight / total if total > 0 else 1.0 / len(weights)
    return delta / len(weights) + (1.0 - delta) * proportional


def quorum_time(arrivals: Sequence[float], weights: Sequence[float], quorum: Fraction,
                order: Sequence[int]) -> Optional[float]:
    """The arrival at which the yes-weight, counted in `order` (the arrival
    order, ties in list order), first reaches `quorum` times the total; None
    if it never does, and None when no weight is left to vote."""
    if not 0 < quorum <= 1:
        raise ValueError(f"quorum {quorum} outside (0, 1]")
    total = left_sum(weights)
    if total <= 0.0:
        return None
    # Float comparison outside a slack band around the target; inside it
    # an exact rational check, so a vote landing exactly on the quorum
    # cannot flip on rounding.
    target = float(quorum) * total
    slack = 1e-12 * max(1.0, total)
    above, below = target + slack, target - slack
    acc = 0.0
    for i in order:
        acc += weights[i]
        if acc > above or (acc >= below and Fraction(acc) >= quorum * Fraction(total)):
            return arrivals[i]
    return None


def pareto_stakes(ids: Iterable[str], rng: random.Random, alpha: float = 1.6,
                  xmin: float = 1.0) -> dict[str, float]:
    """Heavy-tailed stake draw via inverse CDF: x = xmin * u^(-1/alpha)."""
    if alpha <= 1.0:
        raise ValueError("alpha must be > 1 for a finite mean")
    out = {}
    for vid in sorted(ids):
        u = 1.0 - rng.random()  # in (0, 1]
        out[vid] = xmin * u ** (-1.0 / alpha)
    return out
