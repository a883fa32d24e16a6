"""Validator strategies: the honest policy and every attack pattern.

Strategies are pluggable behavior generators. Each validator owns one
strategy instance; the simulation loop asks it for the epoch's behaviors
and, when the validator sits on a committee, for a vote override.
Strategy code never sees weight tables or ground-truth labels of other
validators; it only knows its own role and coalition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .chain import Block, fork_choice, signer_weight
from .scoring import ActionKind, BehaviorRecord, MotivationProfile
from .weights import WeightTable

STRATEGY_KINDS = (
    "honest",
    "stealth",
    "sybil-burst",
    "adaptive-sybil",
    "long-range-fork",
    "griefing",
)


@dataclass(frozen=True)
class StrategySpec:
    """Declarative strategy selection, as written in scenario configs."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        validate_params(self.kind, self.params)


_PARAM_SPECS: dict[str, dict[str, tuple[float, float]]] = {
    # kind -> param -> (min, max); bools and ints are range-checked too
    "honest": {},
    "stealth": {"fraud_rate": (0.0, 1.0), "fraud_value": (0.0, float("inf"))},
    "sybil-burst": {
        "sybil_count": (1, float("inf")),
        "burst_epoch": (0, float("inf")),
        "fraud_value": (0.0, float("inf")),
        "burst_every": (1, float("inf")),
    },
    "adaptive-sybil": {
        "spawn_rate": (0.0, 1.0),
        "join_weight": (0.0, float("inf")),
        "fraud_value": (0.0, float("inf")),
        "max_population": (2, float("inf")),
    },
    "long-range-fork": {
        "fork_depth": (0, float("inf")),
        "fraud_rate": (0.0, 1.0),
        "fraud_value": (0.0, float("inf")),
    },
    "griefing": {
        "empty_block_run": (0, float("inf")),
        "utility_epsilon": (0.0, float("inf")),
        "low_initiative": (0.0, 1.0),
    },
}


def validate_params(kind: str, params: dict) -> None:
    allowed = _PARAM_SPECS[kind]
    for name, value in params.items():
        if name not in allowed:
            raise ValueError(f"strategy {kind!r} does not accept parameter {name!r}")
        lo, hi = allowed[name]
        if not (lo <= float(value) <= hi):
            raise ValueError(f"{kind}.{name}={value} outside [{lo}, {hi}]")


@dataclass
class HonestShape:
    """Distribution of honest behavior records (scenario-configured)."""

    base_utility_lo: float = 0.5
    base_utility_hi: float = 1.5
    initiative_lo: float = 0.6
    initiative_hi: float = 1.0
    oracle_rate: float = 0.0
    motivations: dict[ActionKind, MotivationProfile] = field(default_factory=dict)

    def motivation_for(self, kind: ActionKind) -> MotivationProfile:
        return self.motivations[kind]


@dataclass
class EpochContext:
    """Everything a strategy may look at when emitting behaviors.

    The simulation keeps one context per validator for a whole trial and
    sets `epoch` and `is_proposer` before each call.
    """

    epoch: int
    vid: str
    is_proposer: bool
    rng_behavior: random.Random
    rng_adversary: random.Random
    shape: HonestShape


@dataclass
class ValidatorState:
    """Identity, lifetime and the (label-only) role.

    The `role` label and `strategy` internals are for the harness and
    metrics; protocol operations receive only ids, behaviors and weights.
    """

    vid: str
    strategy: "Strategy"
    role: str
    join_epoch: int = 0
    retired_epoch: Optional[int] = None

    def alive(self, epoch: int) -> bool:
        return self.join_epoch <= epoch and self.retired_epoch is None


def _honest_record(ctx: EpochContext) -> BehaviorRecord:
    kind = ActionKind.PROPOSE if ctx.is_proposer else ActionKind.VALIDATE
    rng = ctx.rng_behavior
    u_b = rng.uniform(ctx.shape.base_utility_lo, ctx.shape.base_utility_hi)
    alpha = rng.uniform(ctx.shape.initiative_lo, ctx.shape.initiative_hi)
    return BehaviorRecord(
        actor=ctx.vid,
        epoch=ctx.epoch,
        kind=kind,
        base_utility=u_b,
        context_factor=1.0,
        initiative=alpha,
        motivation=ctx.shape.motivation_for(kind),
    )


def _honest_epoch(ctx: EpochContext) -> list[BehaviorRecord]:
    records = [_honest_record(ctx)]
    if ctx.shape.oracle_rate > 0.0 and ctx.rng_behavior.random() < ctx.shape.oracle_rate:
        records.append(
            BehaviorRecord(
                actor=ctx.vid,
                epoch=ctx.epoch,
                kind=ActionKind.ORACLE,
                base_utility=ctx.rng_behavior.uniform(0.1, 0.5),
                context_factor=1.0,
                initiative=ctx.rng_behavior.uniform(ctx.shape.initiative_lo, ctx.shape.initiative_hi),
                motivation=ctx.shape.motivation_for(ActionKind.ORACLE),
            )
        )
    return records


def fraud_record(ctx: EpochContext, value: float, kind: ActionKind = ActionKind.FRAUD) -> BehaviorRecord:
    """A fraudulent action: harmful outcome, deliberately initiated."""
    return BehaviorRecord(
        actor=ctx.vid,
        epoch=ctx.epoch,
        kind=kind,
        base_utility=-abs(value),
        context_factor=1.0,
        initiative=1.0,
        motivation=ctx.shape.motivation_for(kind),
        is_fraud_ground_truth=True,
    )


class Strategy:
    """Base: honest behavior, honest committee votes."""

    kind = "honest"

    def behaviors(self, ctx: EpochContext) -> list[BehaviorRecord]:
        return _honest_epoch(ctx)

    def committee_vote(self, subject: str, behavior: BehaviorRecord) -> Optional[bool]:
        """Return a vote override, or None to use the honest vote model."""
        return None


class HonestStrategy(Strategy):
    pass


class StealthStrategy(Strategy):
    """Rare high-value fraud hidden inside honest-looking activity."""

    kind = "stealth"

    def __init__(self, fraud_rate: float = 0.05, fraud_value: float = 50.0):
        if not 0.0 < fraud_rate <= 1.0:
            raise ValueError("fraud_rate must be in (0, 1]")
        self.fraud_rate = fraud_rate
        self.fraud_value = fraud_value

    def behaviors(self, ctx: EpochContext) -> list[BehaviorRecord]:
        if ctx.rng_adversary.random() < self.fraud_rate:
            return [fraud_record(ctx, self.fraud_value)]
        return _honest_epoch(ctx)


class SybilCoalition:
    """Shared state of a burst coalition: members and burst timing."""

    def __init__(self, members: Sequence[str], burst_epoch: int, fraud_value: float,
                 burst_every: Optional[int] = None):
        self.members = set(members)
        self.burst_epoch = burst_epoch
        self.fraud_value = fraud_value
        self.burst_every = burst_every

    def bursting(self, epoch: int) -> bool:
        if epoch < self.burst_epoch:
            return False
        if epoch == self.burst_epoch:
            return True
        if self.burst_every is None:
            return False
        return (epoch - self.burst_epoch) % self.burst_every == 0


class SybilBurstStrategy(Strategy):
    """Concurrent small frauds from every coalition identity at the burst.

    In committees, coalition members acquit each other and try to convict
    everyone else (worst case within the vote model).
    """

    kind = "sybil-burst"

    def __init__(self, coalition: SybilCoalition):
        self.coalition = coalition

    def behaviors(self, ctx: EpochContext) -> list[BehaviorRecord]:
        if self.coalition.bursting(ctx.epoch):
            per_sybil = self.coalition.fraud_value / max(1, len(self.coalition.members))
            return [fraud_record(ctx, per_sybil)]
        return _honest_epoch(ctx)

    def committee_vote(self, subject: str, behavior: BehaviorRecord) -> Optional[bool]:
        return subject not in self.coalition.members


class AdaptiveSybilStrategy(Strategy):
    """Fresh identities that misbehave immediately after joining."""

    kind = "adaptive-sybil"

    def __init__(self, coalition_members: set[str], fraud_value: float = 1.0):
        self.coalition_members = coalition_members
        self.fraud_value = fraud_value

    def behaviors(self, ctx: EpochContext) -> list[BehaviorRecord]:
        return [fraud_record(ctx, self.fraud_value)]

    def committee_vote(self, subject: str, behavior: BehaviorRecord) -> Optional[bool]:
        return subject not in self.coalition_members


class GriefingStrategy(Strategy):
    """Valid but worthless blocks: never harmful, never useful.

    Emits a near-zero-utility proposal whenever elected (up to
    `empty_block_run` times), and behaves honestly otherwise. Because the
    outcome utility stays non-negative there is nothing to convict, so
    any weight decay must come from the update rule alone.
    """

    kind = "griefing"

    def __init__(self, empty_block_run: int = 10, utility_epsilon: float = 0.01,
                 low_initiative: float = 0.1):
        self.empty_block_run = empty_block_run
        self.utility_epsilon = utility_epsilon
        self.low_initiative = low_initiative
        self.empty_blocks_published = 0

    def behaviors(self, ctx: EpochContext) -> list[BehaviorRecord]:
        if ctx.is_proposer and self.empty_blocks_published < self.empty_block_run:
            self.empty_blocks_published += 1
            return [
                BehaviorRecord(
                    actor=ctx.vid,
                    epoch=ctx.epoch,
                    kind=ActionKind.PROPOSE,
                    base_utility=self.utility_epsilon,
                    context_factor=1.0,
                    initiative=self.low_initiative,
                    motivation=ctx.shape.motivation_for(ActionKind.IDLE),
                )
            ]
        return _honest_epoch(ctx)


class AdaptiveSybilController:
    """Epoch hook that respawns convicted Sybils as fresh identities.

    The spawn budget is a fraction of the current population per epoch;
    when the population cap is reached spawning stops and the event is
    logged into the ledger stream.
    """

    def __init__(self, spawn_rate: float = 0.1, join_weight: float = 0.0,
                 fraud_value: float = 1.0, max_population: int = 0):
        self.spawn_rate = spawn_rate
        self.join_weight = join_weight
        self.fraud_value = fraud_value
        self.max_population = max_population
        self.coalition_members: set[str] = set()
        self.spawn_serial = 0

    def register(self, members: Sequence[str]) -> None:
        self.coalition_members.update(members)

    def replacements(
        self, epoch: int, population: int, convicted_sybils: Sequence[str]
    ) -> tuple[list[str], list[dict]]:
        """Names of identities to spawn after this epoch, plus log events."""
        budget = int(self.spawn_rate * population)
        events: list[dict] = []
        want = min(len(convicted_sybils), budget)
        if self.max_population and population + want > self.max_population:
            want = max(0, self.max_population - population)
            events.append({"kind": "population-cap", "epoch": epoch, "cap": self.max_population})
        fresh = []
        for _ in range(want):
            name = f"syb{epoch:04d}n{self.spawn_serial:03d}"
            self.spawn_serial += 1
            fresh.append(name)
        self.coalition_members.update(fresh)
        return fresh, events


def long_range_fork_outcome(
    main_chain: Sequence[Block],
    table: WeightTable,
    compromised: Sequence[str],
    fork_depth: int,
    claimed_utility_boost: float = 0.0,
) -> dict:
    """Build a private fork from an old checkpoint and submit it to fork choice.

    The fork is signed only by the compromised identities and may claim any
    cumulative utility (it is private, so nothing stops inflated claims);
    what decides is the signers' *current* weight versus the canonical
    tip's endorsement.
    """
    if fork_depth < 0:
        raise ValueError("fork_depth must be >= 0")
    if fork_depth > len(main_chain) - 1:
        raise ValueError(f"fork_depth {fork_depth} reaches past genesis (chain height {len(main_chain) - 1})")
    main_tip = main_chain[-1]
    if fork_depth == 0:
        return {
            "adopted": False,
            "checkpoint_height": main_tip.height,
            "fork_signer_weight": main_tip.signer_weight,
            "main_signer_weight": main_tip.signer_weight,
            "note": "fork depth 0: fork equals the canonical tip",
        }
    checkpoint = main_chain[-1 - fork_depth]
    signers = sorted(set(compromised))
    tip = checkpoint
    claimed = checkpoint.cumulative_utility + claimed_utility_boost
    height_gap = main_tip.height - checkpoint.height
    for i in range(height_gap):
        proposer = signers[i % len(signers)] if signers else "attacker"
        tip = Block(
            height=tip.height + 1,
            proposer=proposer,
            behaviors=(),
            parent=tip,
            timestamp_ms=main_tip.timestamp_ms,
            cumulative_utility=claimed,
            signer_weight=signer_weight(signers, table),
            signers=frozenset(signers),
        )
    winner = fork_choice(main_tip, tip, table)
    return {
        "adopted": winner is tip,
        "checkpoint_height": checkpoint.height,
        "fork_signer_weight": signer_weight(signers, table),
        "main_signer_weight": signer_weight(main_tip.signers, table),
    }
