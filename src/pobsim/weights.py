"""Validator weight table: EMA update, slashing, and dampened leader election.

Weights are relative influence. The per-epoch update retains a (1 - rho)
share of the old weight and folds in a rho share of the validator's slice
of the epoch's clamped utility. Tables are values: every operation
returns a new table and never mutates its input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import DegenerateElectionError


@dataclass(frozen=True)
class WeightTable:
    """Immutable snapshot of validator weights at one epoch boundary."""

    entries: dict[str, float]
    epoch: int = 0

    def __post_init__(self):
        for vid, w in self.entries.items():
            if w < 0:
                raise ValueError(f"weight of {vid} is negative ({w})")

    def weight(self, vid: str) -> float:
        return self.entries[vid]

    @property
    def total(self) -> float:
        """The summed weight, in entry order (sorted by id wherever netsim builds a table)."""
        return sum(self.entries.values())

    def ids(self) -> list[str]:
        return sorted(self.entries)

    def normalized(self) -> "WeightTable":
        """Rescale to unit sum; uniform fallback when all mass is gone."""
        if not self.entries:
            return self
        return WeightTable(dict(zip(self.entries, normalize(list(self.entries.values())))),
                           self.epoch)



def normalize(weights: Sequence[float]) -> list[float]:
    """Weights rescaled to unit sum, summed in order; uniform when all mass is gone."""
    total = sum(weights)
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
    total = sum(clamped)
    keep = 1.0 - rho
    if total > 0.0:
        return [keep * w + rho * (c / total) for w, c in zip(weights, clamped)]
    return [keep * w + rho * (1.0 / len(weights)) for w in weights]


def apply_additive_slash(table: WeightTable, target: str, delta_w: float) -> WeightTable:
    """Subtract `delta_w` from the target's weight, floored at zero."""
    if target not in table.entries:
        raise KeyError(f"unknown validator {target!r}")
    if delta_w < 0:
        raise ValueError("delta_w must be >= 0")
    entries = dict(table.entries)
    entries[target] = max(0.0, entries[target] - delta_w)
    return WeightTable(entries, table.epoch)


def apply_multiplicative_slash(table: WeightTable, target: str, rho_p: float) -> WeightTable:
    """Scale the target's weight by the retained fraction `rho_p`."""
    if target not in table.entries:
        raise KeyError(f"unknown validator {target!r}")
    if not 0.0 <= rho_p < 1.0:
        raise ValueError(f"rho_p {rho_p} outside [0, 1)")
    entries = dict(table.entries)
    entries[target] = entries[target] * rho_p
    return WeightTable(entries, table.epoch)


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
    """The dampened lottery over a weight list: the index of the proposer."""
    if not weights:
        raise ValueError("active set is empty")
    total = sum(weights)
    if total <= 0.0 and delta == 0.0:
        raise DegenerateElectionError("all active weights are zero and delta is 0")
    # Uniform with probability delta, and as the limit when no weight is left.
    if rng.random() < delta or total <= 0.0:
        return rng.randrange(len(weights))
    return proportional_pick(weights, total, rng)


def proportional_pick(weights: Sequence[float], total: float, rng: random.Random) -> int:
    """The index whose running weight sum first exceeds random() * total."""
    pick = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if pick < acc:
            return i
    return len(weights) - 1
