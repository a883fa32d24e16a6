"""Validator weight table: EMA update, slashing, and dampened leader election.

Weights are relative influence. The per-epoch update retains a (1 - rho)
share of the old weight and folds in a rho share of the validator's slice
of the epoch's clamped utility. Tables are values: every operation
returns a new table and never mutates its input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

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
        return sum(self.entries[v] for v in sorted(self.entries))

    def ids(self) -> list[str]:
        return sorted(self.entries)

    def normalized(self) -> "WeightTable":
        """Rescale to unit sum; uniform fallback when all mass is gone."""
        total = self.total
        n = len(self.entries)
        if n == 0:
            return self
        if total <= 0.0:
            share = 1.0 / n
            return WeightTable({v: share for v in self.entries}, self.epoch)
        return WeightTable({v: w / total for v, w in self.entries.items()}, self.epoch)

    def without(self, ids: Iterable[str]) -> "WeightTable":
        gone = set(ids)
        return WeightTable({v: w for v, w in self.entries.items() if v not in gone}, self.epoch)

    def with_entry(self, vid: str, weight: float) -> "WeightTable":
        entries = dict(self.entries)
        entries[vid] = weight
        return WeightTable(entries, self.epoch)


def update_weights(table: WeightTable, epoch_scores: Mapping[str, float], rho: float) -> WeightTable:
    """One EMA step: W <- (1 - rho) * W + rho * clamped-score share.

    Negative scores are clamped to zero before computing shares (penalties
    are the watchdog's channel, not the share term). A zero clamped total
    falls back to a uniform 1/N share so the step stays well defined.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho {rho} outside [0, 1]")
    ids = table.ids()
    unknown = set(epoch_scores) - set(ids)
    if unknown:
        raise KeyError(f"scores for unknown validators: {sorted(unknown)}")
    clamped = {v: max(0.0, epoch_scores.get(v, 0.0)) for v in ids}
    total = sum(clamped[v] for v in ids)
    n = len(ids)
    entries: dict[str, float] = {}
    for v in ids:
        share = clamped[v] / total if total > 0.0 else 1.0 / n
        entries[v] = (1.0 - rho) * table.entries[v] + rho * share
    return WeightTable(entries, table.epoch + 1)


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


def election_probabilities(table: WeightTable, active: Iterable[str], delta: float) -> dict[str, float]:
    """Closed-form mixture: delta * uniform + (1 - delta) * weight-proportional."""
    ids = sorted(active)
    if not ids:
        raise ValueError("active set is empty")
    total = sum(table.entries[v] for v in ids)
    n = len(ids)
    probs = {}
    for v in ids:
        prop = table.entries[v] / total if total > 0.0 else 0.0
        probs[v] = delta / n + (1.0 - delta) * prop
    return probs


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
    if not ids:
        raise ValueError("active set is empty")
    total = sum(table.entries[v] for v in ids)
    if total <= 0.0 and delta == 0.0:
        raise DegenerateElectionError("all active weights are zero and delta is 0")
    if rng.random() < delta:
        return ids[rng.randrange(len(ids))]
    if total <= 0.0:
        # delta > 0 but the proportional branch has no mass: uniform limit.
        return ids[rng.randrange(len(ids))]
    pick = rng.random() * total
    acc = 0.0
    for v in ids:
        acc += table.entries[v]
        if pick < acc:
            return v
    return ids[-1]
