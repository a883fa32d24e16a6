"""Block objects and the fork-choice rule.

Chains are compared by the *current* weight of the validators endorsing
each tip, not by accumulated utility: a fork signed only by keys that
have since lost their weight loses to the canonical chain no matter how
much utility it claims. Cumulative utility and proposer id only break
ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .scoring import BehaviorRecord
from .weights import WeightTable


@dataclass(frozen=True)
class Block:
    height: int
    proposer: str
    behaviors: tuple[BehaviorRecord, ...]
    parent: Optional["Block"]
    timestamp_ms: float
    cumulative_utility: float
    signer_weight: float
    signers: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.parent is not None and self.height != self.parent.height + 1:
            raise ValueError(
                f"height {self.height} does not extend parent height {self.parent.height}"
            )


def genesis_block() -> Block:
    return Block(
        height=0,
        proposer="",
        behaviors=(),
        parent=None,
        timestamp_ms=0.0,
        cumulative_utility=0.0,
        signer_weight=0.0,
        signers=frozenset(),
    )


def signer_weight(signers: Iterable[str], table: WeightTable) -> float:
    """Current weight of the distinct signers, summed in id order."""
    return sum(table.entries.get(s, 0.0) for s in sorted(set(signers)))


def extend_chain(
    parent: Block,
    proposer: str,
    behaviors: Sequence[BehaviorRecord],
    utility: float,
    timestamp_ms: float,
    signers: Sequence[str],
    table: WeightTable,
) -> Block:
    """Append a block carrying `behaviors`, whose summed utility is `utility`.

    Cumulative utility and signer weight are derived from the parent and
    the current table.
    """
    return Block(
        height=parent.height + 1,
        proposer=proposer,
        behaviors=tuple(behaviors),
        parent=parent,
        timestamp_ms=timestamp_ms,
        cumulative_utility=parent.cumulative_utility + utility,
        signer_weight=signer_weight(signers, table),
        signers=frozenset(signers),
    )


def fork_choice(tip_a: Block, tip_b: Block, table: WeightTable) -> Block:
    """Prefer the tip endorsed by more current weight.

    Ties fall back to cumulative utility, then to the lower proposer id,
    so the choice is total and deterministic.
    """
    weight_a = signer_weight(tip_a.signers, table)
    weight_b = signer_weight(tip_b.signers, table)
    if weight_a != weight_b:
        return tip_a if weight_a > weight_b else tip_b
    if tip_a.cumulative_utility != tip_b.cumulative_utility:
        return tip_a if tip_a.cumulative_utility > tip_b.cumulative_utility else tip_b
    return tip_a if tip_a.proposer <= tip_b.proposer else tip_b
