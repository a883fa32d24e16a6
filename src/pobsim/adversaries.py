"""Validator strategies: the honest policy and every attack pattern.

Strategies are pluggable behavior generators, and a validator is its
strategy: the trial keeps one instance per alive id, from its join to
its retirement, and the join event names its `kind`. The simulation loop
asks it for the epoch's behaviors. Only a coalition strategy defines
`committee_vote(subject id) -> bool`, which it casts when it sits on a
committee; every other member votes by the watchdog's honest vote model.
Strategy code never sees weight tables or ground-truth labels of other
validators; it only knows its own coalition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .chain import Block, fork_choice, signer_weight
from .scoring import ActionKind, BehaviorColumns, MotivationProfile, check_record_ranges
from .weights import WeightTable


class Open(float):
    """A bound that its interval excludes: `Open(0.0)` as a minimum admits
    only values above 0. Config's number parser reads it (`config._num`)."""


# kind -> param -> (default, lo, hi), the one declaration of every strategy
# param. A roster entry that names no value runs with the default. A given
# value is parsed by config's number parser (`config._roster`): it must lie
# in [lo, hi] (hi None: unbounded; an `Open` end excluded), and it is a
# count, which must be an int, exactly when its bounds are ints; any other
# value is stored as a float.
PARAMS: dict[str, dict[str, tuple]] = {
    "honest": {},
    "stealth": {"fraud_rate": (0.05, Open(0.0), 1.0), "fraud_value": (50.0, 0.0, None)},
    "sybil-burst": {
        "sybil_count": (None, 1, None),  # read by nothing; kept for the echo
        "burst_epoch": (50, 0, None),
        "fraud_value": (50.0, 0.0, None),
        "burst_every": (None, 1, None),  # None: the coalition bursts once
    },
    "adaptive-sybil": {
        "spawn_rate": (0.1, 0.0, 1.0),
        "join_weight": (0.0, 0.0, None),
        "fraud_value": (1.0, 0.0, None),
        "max_population": (None, 2, None),  # None: 2 x n_validators (netsim._start_trial)
    },
    "long-range-fork": {
        "fork_depth": (100, 0, None),
        "fraud_rate": (0.05, Open(0.0), 1.0),
        "fraud_value": (50.0, 0.0, None),
    },
    "griefing": {
        "empty_block_run": (10, 0, None),
        "utility_epsilon": (0.01, 0.0, None),
        "low_initiative": (0.1, 0.0, 1.0),
    },
}


@dataclass(frozen=True)
class StrategySpec:
    """Declarative strategy selection, as written in scenario configs.

    `params` holds the values as config parsed them (`config._roster`
    checks each against `PARAMS`); `param` reads one, else its default.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def param(self, name: str):
        """The value given for `name`, else its default."""
        return self.params.get(name, PARAMS[self.kind][name][0])


@dataclass
class HonestShape:
    """Distribution of honest behavior records (scenario-configured)."""

    base_utility_lo: float = 0.5
    base_utility_hi: float = 1.5
    initiative_lo: float = 0.6
    initiative_hi: float = 1.0
    oracle_rate: float = 0.0
    motivations: dict[ActionKind, MotivationProfile] = field(default_factory=dict)


@dataclass
class EpochContext:
    """Everything a strategy may look at when emitting behaviors.

    The simulation keeps one context per validator from its join (`netsim._join`)
    and sets `epoch` and `is_proposer` before each call; `emit` gets its position.
    Only the griefer reads `is_proposer`: its records depend on being the proposer.
    """

    epoch: int
    is_proposer: bool
    rng_behavior: random.Random
    rng_adversary: random.Random
    shape: HonestShape


def draw_honest(cols: BehaviorColumns, shape: HonestShape, first: int,
                draws: Sequence[Callable[[], float]]) -> None:
    """Honest records of positions first, first + 1, ..., drawn from their bound `random`s.

    A validate record each, and an oracle report at `oracle_rate`. A
    proposer draws the same: the trial turns its validate record into its
    propose record afterwards (`netsim._as_proposer`), so this writes no
    propose record. Each value is `random.uniform`'s own
    `a + (b - a) * random()`: every stream and its values are those of
    `rng.uniform(a, b)`. The initiative range check is one min/max.
    """
    u_lo, i_lo = shape.base_utility_lo, shape.initiative_lo
    u_span, i_span = shape.base_utility_hi - u_lo, shape.initiative_hi - i_lo
    start = len(cols.actor)
    if not shape.oracle_rate > 0.0:  # one record each
        cols.actor.extend(range(first, first + len(draws)))
        cols.kind.extend([_VALIDATE] * len(draws))
        cols.base_utility.extend([u_lo + u_span * random() for random in draws])
        cols.initiative.extend([i_lo + i_span * random() for random in draws])
    else:
        rate = shape.oracle_rate
        actor, kind, base, initiative = cols.actor, cols.kind, cols.base_utility, cols.initiative
        for pos, random in enumerate(draws, first):
            actor.append(pos)
            kind.append(_VALIDATE)
            base.append(u_lo + u_span * random())
            initiative.append(i_lo + i_span * random())
            if random() < rate:
                actor.append(pos)
                kind.append(_ORACLE)
                base.append(0.1 + (0.5 - 0.1) * random())
                initiative.append(i_lo + i_span * random())
    rows = len(cols.actor) - start
    cols.motivation.extend(map(shape.motivations.__getitem__, cols.kind[start:]))
    cols.context_factor.extend([1.0] * rows)
    cols.fraud.extend([False] * rows)
    added = cols.initiative[start:]
    if added and not (0.0 <= min(added) and max(added) <= 1.0):
        for initiative in added:  # raises the first offending row's message
            check_record_ranges(1.0, initiative)


_VALIDATE, _ORACLE = ActionKind.VALIDATE, ActionKind.ORACLE


def add_fraud(cols: BehaviorColumns, ctx: EpochContext, pos: int, value: float,
              kind: ActionKind = ActionKind.FRAUD) -> None:
    """A fraudulent action: harmful outcome, deliberately initiated."""
    cols.add(pos, kind, -abs(value), 1.0, 1.0, ctx.shape.motivations[kind], True)


class Strategy:
    """Base: honest behavior. It has no `committee_vote`, so it votes by the honest model."""

    kind = "honest"

    def emit(self, ctx: EpochContext, cols: BehaviorColumns, pos: int) -> None:
        """Append this epoch's records of the validator at roster position `pos`.
        Honest draws do not depend on `ctx.is_proposer` (see `draw_honest`)."""
        draw_honest(cols, ctx.shape, pos, (ctx.rng_behavior.random,))


class HonestStrategy(Strategy):
    pass


class StealthStrategy(Strategy):
    """Rare high-value fraud hidden inside honest-looking activity."""

    kind = "stealth"

    def __init__(self, fraud_rate: float, fraud_value: float):
        self.fraud_rate = fraud_rate
        self.fraud_value = fraud_value

    def emit(self, ctx: EpochContext, cols: BehaviorColumns, pos: int) -> None:
        if ctx.rng_adversary.random() < self.fraud_rate:
            add_fraud(cols, ctx, pos, self.fraud_value)
        else:
            super().emit(ctx, cols, pos)


class SybilCoalition:
    """Shared state of a burst coalition: members and burst timing."""

    def __init__(self, members: Sequence[str], burst_epoch: int, fraud_value: float,
                 burst_every: Optional[int]):
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

    def emit(self, ctx: EpochContext, cols: BehaviorColumns, pos: int) -> None:
        if self.coalition.bursting(ctx.epoch):
            per_sybil = self.coalition.fraud_value / max(1, len(self.coalition.members))
            add_fraud(cols, ctx, pos, per_sybil)
        else:
            super().emit(ctx, cols, pos)

    def committee_vote(self, subject: str) -> bool:
        return subject not in self.coalition.members


class AdaptiveSybilStrategy(Strategy):
    """Fresh identities that misbehave immediately after joining."""

    kind = "adaptive-sybil"

    def __init__(self, coalition_members: set[str], fraud_value: float):
        self.coalition_members = coalition_members
        self.fraud_value = fraud_value

    def emit(self, ctx: EpochContext, cols: BehaviorColumns, pos: int) -> None:
        add_fraud(cols, ctx, pos, self.fraud_value)

    def committee_vote(self, subject: str) -> bool:
        return subject not in self.coalition_members


class GriefingStrategy(Strategy):
    """Valid but worthless blocks: never harmful, never useful.

    Emits a near-zero-utility proposal whenever elected (up to
    `empty_block_run` times), and behaves honestly otherwise. Because the
    outcome utility stays non-negative there is nothing to convict, so
    any weight decay must come from the update rule alone.
    """

    kind = "griefing"

    def __init__(self, empty_block_run: int, utility_epsilon: float, low_initiative: float):
        self.empty_block_run = empty_block_run
        self.utility_epsilon = utility_epsilon
        self.low_initiative = low_initiative
        self.empty_blocks_published = 0

    def emit(self, ctx: EpochContext, cols: BehaviorColumns, pos: int) -> None:
        if ctx.is_proposer and self.empty_blocks_published < self.empty_block_run:
            self.empty_blocks_published += 1
            cols.add(pos, ActionKind.PROPOSE, self.utility_epsilon, 1.0, self.low_initiative,
                     ctx.shape.motivations[ActionKind.IDLE])
        else:
            super().emit(ctx, cols, pos)


class AdaptiveSybilController:
    """Epoch hook that respawns convicted Sybils as fresh identities.

    The spawn budget is a fraction of the current population per epoch;
    when the population cap is reached spawning stops and the event is
    logged into the ledger stream.
    """

    def __init__(self, spawn_rate: float, join_weight: float, fraud_value: float,
                 max_population: int):
        self.spawn_rate = spawn_rate
        self.join_weight = join_weight
        self.fraud_value = fraud_value
        self.max_population = max_population
        self.coalition_members: set[str] = set()
        self.spawn_serial = 0

    def register(self, members: Sequence[str]) -> None:
        self.coalition_members.update(members)

    def strategy(self) -> AdaptiveSybilStrategy:
        """A coalition member's strategy, for a registered or a respawned identity."""
        return AdaptiveSybilStrategy(self.coalition_members, self.fraud_value)

    def replacements(
        self, epoch: int, population: int, convicted_sybils: Sequence[str]
    ) -> tuple[list[str], list[dict]]:
        """Names of identities to spawn after this epoch, plus log events."""
        budget = int(self.spawn_rate * population)
        events: list[dict] = []
        want = min(len(convicted_sybils), budget)
        if population + want > self.max_population:
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
    if fork_depth > len(main_chain) - 1:
        raise ValueError(f"fork_depth {fork_depth} reaches past the {len(main_chain)} blocks given")
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
    fork_signers = frozenset(signers)
    fork_weight = signer_weight(fork_signers, table)
    # The signers take turns proposing up to the canonical tip's height; only the tip matters.
    height_gap = main_tip.height - checkpoint.height
    tip = Block(
        height=main_tip.height,
        proposer=signers[(height_gap - 1) % len(signers)] if signers else "attacker",
        cumulative_utility=checkpoint.cumulative_utility + claimed_utility_boost,
        signer_weight=fork_weight,
        signers=fork_signers,
    )
    winner = fork_choice(main_tip, tip, table)
    return {
        "adopted": winner is tip,
        "checkpoint_height": checkpoint.height,
        "fork_signer_weight": fork_weight,
        "main_signer_weight": signer_weight(main_tip.signers, table),
    }
