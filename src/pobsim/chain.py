"""Block objects and the fork-choice rule.

Chains are compared by the *current* weight of the validators endorsing
each tip, not by accumulated utility: a fork signed only by keys that
have since lost their weight loses to the canonical chain no matter how
much utility it claims. Cumulative utility and proposer id only break
ties. A trial builds blocks only for a long-range fork (`netsim._PobRules`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .weights import WeightTable, left_sum


@dataclass(frozen=True)
class Block:
    """A chain entry: what fork choice and the long-range fork attempt read.

    The epoch's behaviors stay in its ledger; a block keeps only their
    utility sum, folded into `cumulative_utility`. It has no parent link,
    so a trial keeps only the blocks it can still read.
    """

    height: int
    proposer: str
    cumulative_utility: float
    signer_weight: float
    signers: frozenset[str] = field(default_factory=frozenset)


def genesis_block() -> Block:
    return Block(
        height=0,
        proposer="",
        cumulative_utility=0.0,
        signer_weight=0.0,
        signers=frozenset(),
    )


def signer_weight(signers: Iterable[str], table: WeightTable) -> float:
    """Current weight of the distinct signers, summed in id order."""
    distinct = signers if isinstance(signers, (set, frozenset)) else set(signers)
    entries = table.entries
    return left_sum(entries.get(s, 0.0) for s in sorted(distinct))


def extend_chain(
    parent: Block,
    proposer: str,
    utility: float,
    signers: frozenset[str],
    weights: Sequence[float],
) -> Block:
    """Append a block for an epoch whose behaviors sum to `utility`.

    `weights` are the signers' current weights in sorted id order; the
    signer weight is their sum in that order, the order `signer_weight`
    sorts into. Blocks signed by the same roster share its `signers`.
    """
    return Block(
        height=parent.height + 1,
        proposer=proposer,
        cumulative_utility=parent.cumulative_utility + utility,
        signer_weight=left_sum(weights),
        signers=signers,
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
