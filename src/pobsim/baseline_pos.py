"""Stake-weighted PoS baseline with delayed slashing.

Stakes are static: no behavioral feedback, no adaptation. Detected
offenses schedule a slash that lands a fixed number of blocks later;
until then the offender keeps proposing at full stake. Run under the
same harness as the behavior-weighted protocol for paired comparisons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import DegenerateElectionError
from .weights import left_sum, proportional_pick


@dataclass
class StakeTable:
    stakes: dict[str, float]
    slash_delay_blocks: int = 100
    slash_fraction: float = 1.0
    # offender -> epoch at which its scheduled slash lands
    pending: dict[str, int] = field(default_factory=dict)
    slashed: set[str] = field(default_factory=set)

    def __post_init__(self):
        for vid, s in self.stakes.items():
            if s < 0:
                raise ValueError(f"stake of {vid} is negative ({s})")
        if self.slash_delay_blocks < 0:
            raise ValueError("slash_delay_blocks must be >= 0")
        if not 0.0 <= self.slash_fraction <= 1.0:
            raise ValueError("slash_fraction outside [0, 1]")


def stake_pick(stakes: Sequence[float], rng: random.Random) -> int:
    """Strictly stake-proportional lottery over a stake list: the proposer's index."""
    if not stakes:
        raise ValueError("active set is empty")
    total = left_sum(stakes)
    if total <= 0.0:
        raise DegenerateElectionError("total active stake is zero")
    return proportional_pick(stakes, total, rng)


def pos_schedule_slash(table: StakeTable, offender: str, detection_block: int) -> None:
    """Register a detected offense; the slash lands after the configured delay.

    Only the first detection of an offender schedules anything; the
    baseline has no escalation.
    """
    if offender not in table.stakes:
        raise KeyError(f"unknown validator {offender!r}")
    if offender in table.pending or offender in table.slashed:
        return
    table.pending[offender] = detection_block + table.slash_delay_blocks


def pos_apply_due_slashes(table: StakeTable, block: int) -> list[str]:
    """Apply every slash whose delay has elapsed; returns who got slashed."""
    landed = sorted(v for v, due in table.pending.items() if due <= block)
    for v in landed:
        table.stakes[v] = table.stakes[v] * (1.0 - table.slash_fraction)
        table.slashed.add(v)
        del table.pending[v]
    return landed


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
