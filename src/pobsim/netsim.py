"""Deterministic epoch-driven network simulation.

One trial = one seeded run of the full pipeline: proposer election,
behavior generation, latency-delayed block confirmation, misbehavior
review, weight update and reward distribution, with an append-only
ledger per epoch. The same loop can be driven from a block-trace file
(replay mode: the trial state holds the blocks as its `trace`) and can
host the stake-weighted baseline protocol for paired comparisons.

Determinism contract: a trial (`trial_epochs`, and `run_trial` that
drains it) is a pure function of (config, seed, protocols). All
randomness flows through named substreams, every iteration order is
sorted, so re-runs are bit-identical. A paired trial is one loop, over
one trial state where the roster `shares_one_state`: the behaviors and
delays are drawn once and shared, and so are the arrival order and the
epoch's facts (`_EpochFacts`: utilities, scores and harmful rows, then rows
per position and activeness when first read), which every ledger of the
epoch holds. Per protocol are its own streams, its proposer's record,
quorum, slashes, review and settlement, and pob's chain for a long-range
fork. Other rosters run a state per protocol, in step. Either way each
protocol's ledgers are, byte for byte, those of its trial alone.
"""

from __future__ import annotations

import dataclasses
import random
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from math import log
from typing import Iterator, Mapping, Optional, Sequence

from . import adversaries as adv
from .chain import extend_chain, genesis_block
from .config import ScenarioConfig
from .rewards import PoolSplit, RewardSchedule, split_pool
from .rng import RngHub
from .scoring import (
    SINGLE_KIND_DIVERSITY,
    ActionKind,
    BehaviorColumns,
    BehaviorRecord,
    MotivationProfile,
    activeness_column,
    diversity_index,
    looks_scripted,
    utility_columns,
)
from .trace import TraceBlock, check_trace
from .trace import parse_trace  # noqa: F401  benchmarks/child.py and test_acceptance read it here
from .watchdog import Verdict, process_epoch_suspicions
from .weights import (
    WeightTable,
    dampened_pick,
    ema_step,
    left_sum,
    normalize,
    pareto_stakes,
    quorum_time,
    stake_pick,
)


# ---------------------------------------------------------------------------
# Message latency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatencyModel:
    """Message-delay sampler. A config's `latency_distribution` and
    `latency_mean_ms` (> 0) make one, so sampled delays are always >= 0."""

    distribution: str = "exponential"
    mean_ms: float = 50.0

    def draws(self, rng: random.Random, n: int) -> list[float]:
        """`n` delays, each what `rng.uniform(0, 2 * mean)` or `rng.expovariate(1 / mean)`
        returns, by the stdlib's own formula on `rng.random` (a fixed delay draws nothing)."""
        mean = self.mean_ms
        if self.distribution == "fixed":
            return [mean] * n
        draw = rng.random
        if self.distribution == "uniform":
            high = 2.0 * mean
            return [0.0 + (high - 0.0) * draw() for _ in range(n)]
        rate = 1.0 / mean
        return [-log(1.0 - draw()) / rate for _ in range(n)]


# ---------------------------------------------------------------------------
# Epoch ledger
# ---------------------------------------------------------------------------

@dataclass
class EpochLedger:
    """Append-only audit record of one epoch.

    It stores the epoch's inputs: the sorted roster, behavior columns,
    reward schedule, the epoch's facts, three roster-aligned float lists
    and the delays. The activeness is the facts' own; the pool split, the
    behavior records and the {id: weight} map before the epoch are built
    when first read. The writer (`ledger.ledger_to_json`) interleaves the
    delays into the file's latency samples.
    """

    epoch: int
    protocol: str
    proposer: str
    roster: list[str]  # the sorted alive ids
    behavior_rows: BehaviorColumns
    schedule: RewardSchedule
    facts: _EpochFacts = field(compare=False, repr=False)  # shared by the epoch's ledgers
    roster_scores: list[float]
    roster_weights_before: list[float]
    roster_weights_after: list[float]
    verdicts: tuple[Verdict, ...]
    confirmed: bool
    confirm_ms: Optional[float]
    proposal_delays: list[float]
    vote_delays: list[float]
    neutralized: tuple[str, ...] = ()
    events: tuple[dict, ...] = ()

    @property
    def roster_activeness(self) -> list[float]:
        return self.facts.activeness

    @cached_property
    def pool_split(self) -> PoolSplit:
        return split_pool(self.schedule, self.roster_weights_after, self.roster_scores,
                          self.roster_activeness)

    @cached_property
    def behaviors(self) -> tuple[BehaviorRecord, ...]:
        return self.behavior_rows.records(self.roster)

    @cached_property
    def weights_before(self) -> dict[str, float]:
        return dict(zip(self.roster, self.roster_weights_before))


# ---------------------------------------------------------------------------
# Block confirmation
# ---------------------------------------------------------------------------

def _arrivals(n: int, latency: LatencyModel, rng_proposal: random.Random,
              rng_vote: random.Random, processing_ms: float,
              ) -> tuple[list[float], list[float], list[float], list[int]]:
    """The proposal+vote pipeline of `n` validators on the simulated clock: the
    proposal and vote delays, the vote arrival times, and the arrival order.

    The proposal reaches validator i after one message delay (from
    `rng_proposal`; a separate stream from `rng_vote`), and its vote arrives
    one more delay later. Each stage adds a fixed processing cost. Everyone
    votes yes here; dissent is modeled at the behavior level, not the
    transport level. Each protocol finds its own confirmation time in this
    one order (`weights.quorum_time`).
    """
    proposals, votes = latency.draws(rng_proposal, n), latency.draws(rng_vote, n)
    arrivals = [processing_ms + p + processing_ms + v for p, v in zip(proposals, votes)]
    return proposals, votes, arrivals, sorted(range(n), key=arrivals.__getitem__)


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------

def _build_motivations(config: ScenarioConfig) -> dict[ActionKind, MotivationProfile]:
    weights = tuple(config.motivation_weights)
    return {
        kind: MotivationProfile(tuple(config.motivation_intensities[kind.value]), weights)
        for kind in ActionKind
    }


@dataclass
class _TrialState:
    config: ScenarioConfig
    hub: RngHub
    shape: adv.HonestShape
    latency: LatencyModel
    delay_rngs: tuple[random.Random, random.Random]  # the proposal and vote delay streams
    schedule: RewardSchedule
    sybil_controller: Optional[adv.AdaptiveSybilController] = None
    trace: Optional[Sequence[TraceBlock]] = None  # a replay's blocks, one per epoch
    pending_events: list[dict] = field(default_factory=list)
    # id -> (its strategy, its behavior stream's bound random() if the strategy is
    # plain honest, else its EpochContext), made when it joins (_join) and deleted
    # when it retires (_change_roster), so only alive ids have an entry.
    members: dict[str, tuple] = field(default_factory=dict)
    # The sorted ids alive this epoch, and what is aligned with them (_set_roster).
    alive: list[str] = field(default_factory=list)
    signers: frozenset[str] = frozenset()  # the signer set their blocks share
    pos_of: dict[str, int] = field(default_factory=dict)  # id -> roster position
    positions: list[int] = field(default_factory=list)  # 0, 1, ..., len(alive) - 1
    # (first, draws, None) for a run of plain-honest validators from position
    # `first` on, with each one's bound behavior random(); else (pos, context, strategy).
    emitters: list[tuple] = field(default_factory=list)


def _start_trial(config: ScenarioConfig, seed: int, protocols: Sequence[str],
                 trace: Optional[Sequence[TraceBlock]] = None,
                 ) -> tuple[_TrialState, list[_PobRules | _PosRules]]:
    """The trial's state, replaying `trace` if given, and each protocol's rules, in
    `protocols` order. Each roster entry's members join with its strategy, the
    rest of the configured ids as honest validators."""
    hub = RngHub(seed)
    ids = config.validator_ids()
    # One stake draw for both protocols, so paired runs start from the same shape: the
    # baseline's stakes and, under `genesis_weights: stake`, the genesis weights.
    if config.stake_distribution == "pareto":
        stakes = pareto_stakes(ids, hub.stream("stake"), config.stake_alpha, config.stake_xmin)
    else:
        stakes = {vid: 1.0 for vid in ids}
    shape = adv.HonestShape(config.honest_utility_lo, config.honest_utility_hi,
                            config.honest_initiative_lo, config.honest_initiative_hi,
                            config.oracle_rate, _build_motivations(config))
    state = _TrialState(config, hub, shape,
                        LatencyModel(config.latency_distribution, config.latency_mean_ms),
                        (hub.stream("latency/proposal"), hub.stream("latency/vote")),
                        config.reward_schedule(), trace=trace)
    strategies: dict[str, adv.Strategy] = dict.fromkeys(ids, adv.HonestStrategy())
    for entry in config.roster:
        kind, param, members = entry.spec.kind, entry.spec.param, ids[entry.lo:entry.hi]
        if kind == "honest":
            make = adv.HonestStrategy
        elif kind == "sybil-burst":
            coalition = adv.SybilCoalition(members, param("burst_epoch"), param("fraud_value"),
                                           param("burst_every"))
            make = partial(adv.SybilBurstStrategy, coalition)
        elif kind == "adaptive-sybil":  # at most one such entry (config._roster)
            cap = param("max_population")
            state.sybil_controller = adv.AdaptiveSybilController(
                param("spawn_rate"), param("join_weight"), param("fraud_value"),
                2 * config.n_validators if cap is None else cap)
            state.sybil_controller.register(members)
            make = state.sybil_controller.strategy
        elif kind == "griefing":
            make = partial(adv.GriefingStrategy, param("empty_block_run"),
                           param("utility_epsilon"), param("low_initiative"))
        else:  # stealth, or long-range-fork: stealth frauds from keys pob forks (_PobRules)
            make = partial(adv.StealthStrategy, param("fraud_rate"), param("fraud_value"))
        for vid in members:
            strategies[vid] = make()
    for vid, strategy in strategies.items():
        _join(state, vid, strategy)
    _set_roster(state, sorted(ids))
    rules = {"pob": _PobRules, "pos": _PosRules}
    return state, [rules[protocol](state, stakes) for protocol in protocols]


def _join(state: _TrialState, vid: str, strategy: adv.Strategy) -> None:
    """Make `vid` a member with `strategy`: the one place its streams are asked for."""
    behavior = state.hub.stream(f"behavior/{vid}")
    if type(strategy).emit is adv.Strategy.emit:  # plain honest
        state.members[vid] = strategy, behavior.random
    else:
        state.members[vid] = strategy, adv.EpochContext(
            0, False, behavior, state.hub.stream(f"adversary/{vid}"), state.shape)


def _set_roster(state: _TrialState, alive: list[str]) -> None:
    """Make `alive` the roster and regroup its members into the emitters (the
    rest aligned with it is the rules' weights)."""
    state.alive = alive
    state.signers = frozenset(alive)
    state.pos_of = {vid: pos for pos, vid in enumerate(alive)}
    state.positions = list(range(len(alive)))
    emitters = []
    for pos, vid in enumerate(alive):
        strategy, source = state.members[vid]
        if isinstance(source, adv.EpochContext):
            emitters.append((pos, source, strategy))
        elif emitters and emitters[-1][2] is None:  # the run of plain-honest validators goes on
            emitters[-1][1].append(source)
        else:
            emitters.append((pos, [source], None))
    state.emitters = emitters


# ---------------------------------------------------------------------------
# Epoch stages shared by both protocols
# ---------------------------------------------------------------------------

def _elect(state: _TrialState, rules: _PobRules | _PosRules, epoch: int) -> str:
    """The trace's proposer, else an override's, else the protocol's lottery."""
    if state.trace is not None:
        return state.trace[epoch].proposer
    override = state.config.proposer_override
    if override is not None and override.from_epoch <= epoch < override.to_epoch:
        return override.validator
    return rules.elect(state)


def _behave(state: _TrialState, epoch: int, proposer: Optional[str]) -> BehaviorColumns:
    """Every alive validator's records for the epoch, in roster order.

    Every validator draws as a non-proposer: outside a trace each protocol
    then turns its proposer's record into a propose record (`_as_proposer`).
    `proposer` only tells a strategy that reads `is_proposer` (the
    griefer) that it was elected; with None no one was. Under a trace the
    proposer's action is the trace block's, in the first row; the rest of
    the network still validates every block, so scores stay live.
    """
    cols = BehaviorColumns(epoch)
    proposer_pos = state.pos_of.get(proposer, -1)
    skip = -1
    if state.trace is not None:
        tb = state.trace[epoch]
        motivation_kind = ActionKind.FRAUD if tb.is_exploit else tb.kind
        skip = state.pos_of[tb.proposer]
        cols.add(skip, tb.kind, tb.base_utility, tb.phi, tb.alpha,
                 state.shape.motivations[motivation_kind], tb.is_exploit)
        proposer_pos = -1
    shape = state.shape
    for first, source, strategy in state.emitters:
        if strategy is None:  # `source` holds the run's draws
            k = skip - first
            if 0 <= k < len(source):  # the trace proposer does not draw
                adv.draw_honest(cols, shape, first, source[:k])
                first, source = skip + 1, source[k + 1:]
            adv.draw_honest(cols, shape, first, source)
        elif first != skip:  # `source` is the validator's context
            source.epoch = epoch
            source.is_proposer = first == proposer_pos
            strategy.emit(source, cols, first)
    return cols


class _EpochFacts:
    """What the rest of an epoch reads about its behavior columns, one object
    shared by every protocol and every ledger of the epoch. Lists are aligned
    with the roster; record indices are rows of the columns.

    The outcomes, utilities, harmful rows and scores are computed when it is
    made. Each roster position's rows and activeness are worked out on first
    read: only a proposer's row differs between the protocols, and its
    propose kind counts in the diversity as the validate kind it replaces.
    """

    def __init__(self, cols: BehaviorColumns, positions: list[int],
                 betas: tuple[float, float, float]):
        self.cols, self.positions, self.betas = cols, positions, betas
        self.outcomes, self.utilities = utility_columns(cols)  # per row
        self.harmful = [row for row, o in enumerate(self.outcomes) if o < 0.0]
        # The summed utility of each validator's records: the one score rule, which
        # `ledger.replay_epoch` runs too. With one record each in roster order, the
        # scores are the utilities (a utility is never -0.0, so 0.0 + it is itself).
        self.scores = self.utilities
        if cols.actor != positions:
            self.scores = [0.0] * len(positions)
            for actor, u in zip(cols.actor, self.utilities):
                self.scores[actor] += u

    @cached_property
    def per_position(self) -> tuple[list[list[int]], list[tuple[float, float, float]]]:
        """Each roster position's rows, and its activeness inputs: (action count
        / network mean, mean initiative, diversity). Every position has a row."""
        cols, n = self.cols, len(self.positions)
        mean_actions = len(cols.actor) / n
        one_record = 1 / mean_actions
        initiative, kind = cols.initiative, cols.kind
        rows_of: list[list[int]] = [[] for _ in range(n)]
        for row, actor in enumerate(cols.actor):
            rows_of[actor].append(row)
        inputs = []
        for mine in rows_of:
            count = len(mine)
            if count == 1:
                inputs.append((one_record, initiative[mine[0]],
                               SINGLE_KIND_DIVERSITY[kind[mine[0]]]))
            else:
                inputs.append((count / mean_actions,
                               left_sum([initiative[i] for i in mine]) / count,
                               diversity_index([kind[i] for i in mine])))
        return rows_of, inputs

    @cached_property
    def activeness(self) -> list[float]:
        if not self.positions:  # no roster, no rows
            return []
        column = activeness_column(*zip(*self.per_position[1]), self.betas)
        del self.per_position  # read by `_sessions` only, which runs before any ledger is out
        return column


def _as_proposer(state: _TrialState, cols: BehaviorColumns, facts: _EpochFacts,
                 proposer: str) -> tuple[BehaviorColumns, list[float], list[float]]:
    """The epoch's columns, scores and row utilities with `proposer`'s record
    made its propose record: the one place a drawn record becomes one, for
    every trial outside a trace (where the actor column is sorted).

    Every validator draws as a non-proposer (`_behave`), so the proposer's
    first row is the validate record `draw_honest` wrote; it becomes the
    propose record, with the propose motivation and that row's utility. A
    proposer draws the same values either way. A first row of another kind
    (a fraud, or a griefer's own propose record) stays. Inputs that do not
    change are returned as they are, and a list that changes is copied,
    never changed in place, so the protocols of a paired epoch share them.
    """
    pos = state.pos_of.get(proposer)
    row = -1 if pos is None else bisect_left(cols.actor, pos)
    if row < 0 or cols.kind[row] is not ActionKind.VALIDATE:
        return cols, facts.scores, facts.utilities
    motivation = state.shape.motivations[ActionKind.PROPOSE]
    kind, motivations, utilities = cols.kind.copy(), cols.motivation.copy(), facts.utilities.copy()
    kind[row], motivations[row] = ActionKind.PROPOSE, motivation
    utilities[row] = motivation.utility + facts.outcomes[row]
    scores = utilities  # one row each (_EpochFacts)
    if facts.scores is not facts.utilities:  # the facts' rule over the proposer's rows
        scores = facts.scores.copy()
        scores[pos] = left_sum(utilities[row:bisect_right(cols.actor, pos)])
    return dataclasses.replace(cols, kind=kind, motivation=motivations), scores, utilities


def _sessions(state: _TrialState, cols: BehaviorColumns, facts: _EpochFacts,
              observe_rng: random.Random) -> list[tuple[int, int, int, bool]]:
    """Suspicion channel: a (subject position, row, reporter count, harmful)
    session per reported row.

    Harmful rows come first, then the first row of each actor whose activity
    looks scripted, with an outcome of at least 0, in roster order. Each is
    observed by every other validator. Below `observe_prob` 1 each observer
    reports on its own `observe_rng` draw, and the count is the number that
    did; a row no one reports convenes no session. At `observe_prob` 1 every
    observer reports, but the count is recorded as 1.
    """
    config = state.config
    observers = len(state.alive) - 1
    rows = list(facts.harmful)
    harmful = len(rows)
    # Each validator has a record, and a one-record actor has this action ratio;
    # at or below the threshold, one record each leaves no actor to check.
    n, records = len(facts.positions), len(facts.utilities)
    single_suspect = 1 / (records / n) > config.anomaly_freq_threshold
    if single_suspect or records > n:
        for mine, participation in zip(*facts.per_position):
            if ((len(mine) > 1 or single_suspect)
                    and looks_scripted(*participation, config.anomaly_freq_threshold,
                                       config.anomaly_quality_threshold)
                    and facts.outcomes[mine[0]] >= 0.0):
                rows.append(mine[0])
    if config.observe_prob < 1.0:
        draw, p = observe_rng.random, config.observe_prob
        counts = [sum(draw() < p for _ in range(observers)) for _ in rows]
    else:
        counts = [min(observers, 1)] * len(rows)
    return [(cols.actor[row], row, count, i < harmful)
            for i, (row, count) in enumerate(zip(rows, counts)) if count]


def _change_roster(state: _TrialState, halves: Sequence[_PobRules | _PosRules],
                   ledgers: Sequence[EpochLedger], epoch: int, last: bool) -> None:
    """The one roster change after `epoch`, rebuilt once: retire the adaptive
    Sybils convicted in it, then admit the next epoch's joiners (the newcomer
    and the granted respawns, each a fresh id) in sorted order. Its events go to
    the next epoch's ledgers. After the `last` epoch only the retirements land, in
    its own: the trial-end fork reads them, and no epoch follows for a joiner.
    A retired id is forgotten: its member entry, its coalition membership and,
    in pob's `reshape`, its offense count go, as no id joins twice."""
    controller = state.sybil_controller
    coalition = controller.coalition_members if controller is not None else set()
    convicted = sorted({v.subject for ledger in ledgers for v in ledger.verdicts
                        if v.guilty and v.subject in coalition})
    newcomer = not last and epoch + 1 == state.config.newcomer_epoch
    joining = {"newcomer": adv.HonestStrategy()} if newcomer else {}  # id -> its strategy
    if not convicted and not joining:
        return
    events, retired = state.pending_events, set(convicted)
    for vid in convicted:
        events.append({"kind": "retire", "id": vid, "epoch": epoch})
        del state.members[vid]
    coalition -= retired
    kept = [pos for pos, vid in enumerate(state.alive) if vid not in retired]
    alive = [state.alive[pos] for pos in kept]
    if convicted and not last:
        fresh, cap_events = controller.replacements(epoch, len(alive) + len(joining), convicted)
        events.extend(cap_events)
        joining.update((vid, controller.strategy()) for vid in fresh)
    joined = []  # (position on insertion, id)
    for vid in sorted(joining):
        at = bisect_left(alive, vid)
        alive.insert(at, vid)
        joined.append((at, vid))
        _join(state, vid, joining[vid])
        events.append({"kind": "join", "id": vid, "role": joining[vid].kind,
                       "epoch": epoch + 1})
    for rules in halves:
        rules.reshape(state, kept, joined)
    _set_roster(state, alive)


# ---------------------------------------------------------------------------
# Protocol rules: the one place the two protocols differ
# ---------------------------------------------------------------------------
#
# A trial keeps one rules object per protocol as a local of trial_epochs.
# The rules hold only what their protocol uses, each stream only it draws
# as its own `RngHub.stream` generator, and never point back at the trial
# state, so a finished trial leaves no reference cycle to collect. Each keeps
# `weights`, its election and reward weights aligned with the roster, as a
# new list on every change, so a ledger can keep the one it got, and
# `chain`, the blocks its trial-end fork reads (None without a fork). They
# call the protocol operations through this module's globals, where a
# tracer can wrap them by name.

class _PobRules:
    """Behavior weighting: reports, committee verdicts, the weight update and the fork."""

    protocol = "pob"

    def __init__(self, state: _TrialState, stakes: Mapping[str, float]):
        config, hub = state.config, state.hub
        self.election_rng = hub.stream("election")
        self.committee_rng = hub.stream("committee")
        self.watchdog_rng = hub.stream("latency/watchdog")
        self.observe_rng = hub.stream("observe")
        self.offense_counts: dict[str, int] = {}
        by_stake = config.genesis_weights == "stake"
        self.weights = normalize([stakes[v] if by_stake else 1.0 for v in state.alive])
        # The long-range-fork keys, sorted, and their one fork depth (config._roster).
        forks = [entry for entry in config.roster if entry.spec.kind == "long-range-fork"]
        ids = config.validator_ids()
        self.compromised = sorted(vid for entry in forks for vid in ids[entry.lo:entry.hi])
        self.fork_depth = forks[0].spec.param("fork_depth") if forks else 0
        # The blocks the fork can reach, older ones dropped; no chain without a fork.
        self.chain = deque([genesis_block()], maxlen=self.fork_depth + 1) if forks else None

    def land_slashes(self, state: _TrialState, epoch: int,
                     events: list[dict]) -> tuple[str, ...]:
        return ()

    def elect(self, state: _TrialState) -> str:
        return state.alive[dampened_pick(self.weights, state.config.delta, self.election_rng)]

    def review(self, state: _TrialState, epoch: int, behaviors: BehaviorColumns,
               facts: _EpochFacts, confirm_ms: Optional[float],
               ) -> tuple[Optional[float], tuple[Verdict, ...]]:
        """Suspicion sessions, the watchdog's delay on `confirm_ms`, and verdicts."""
        config = state.config
        sessions = _sessions(state, behaviors, facts, self.observe_rng)
        committee_size = min(config.resolved_committee_size(), len(state.alive) - 1)
        if confirm_ms is not None:
            confirm_ms += config.processing_ms  # behavior-scoring stage
            if sessions:
                delays = state.latency.draws(self.watchdog_rng, committee_size)
                confirm_ms += config.processing_ms + (max(delays) if delays else 0.0)
        if not sessions:
            return confirm_ms, ()
        voters = {pos: vote for pos, vid in enumerate(state.alive)  # the coalition votes
                  if (vote := getattr(state.members[vid][0], "committee_vote", None)) is not None}
        weights, verdicts = process_epoch_suspicions(
            sessions, state.alive, self.weights, behaviors, config.penalty, config.theta,
            committee_size, self.committee_rng, self.offense_counts,
            config.detection_accuracy, voters)
        self.weights = normalize(weights)
        return confirm_ms, tuple(verdicts)

    def settle(self, state: _TrialState, scores: list[float]) -> list[float]:
        """The weight update; rewards follow the updated weights."""
        self.weights = ema_step(self.weights, scores, state.config.rho)
        return self.weights

    def reshape(self, state: _TrialState, kept: list[int],
                joined: list[tuple[int, str]]) -> None:
        """The kept weights renormalized and the retired ids' offense counts
        dropped if any retired, then a respawned Sybil's `join_weight` or the
        newcomer's 0 inserted for each joiner."""
        weights, controller = self.weights, state.sybil_controller
        if len(kept) < len(weights):
            weights = normalize([weights[pos] for pos in kept])
            stay = {state.alive[pos] for pos in kept}
            self.offense_counts = {vid: n for vid, n in self.offense_counts.items() if vid in stay}
        for at, vid in joined:
            join_weight = 0.0 if vid == "newcomer" else controller.join_weight
            weights = weights[:at] + [join_weight] + weights[at:]
            if join_weight > 0.0:
                weights = normalize(weights)
        self.weights = weights

    def fork(self, state: _TrialState) -> Optional[dict]:
        """The long-range fork attempt at trial end, once a block is confirmed.
        The chain holds at least the last `fork_depth + 1` blocks."""
        chain = self.chain
        height = chain[-1].height
        if height == 0:
            return None
        outcome = adv.long_range_fork_outcome(
            chain, WeightTable(dict(zip(state.alive, self.weights))),
            self.compromised, min(self.fork_depth, height),
            claimed_utility_boost=abs(chain[-1].cumulative_utility) + 1000.0)
        outcome["kind"] = "fork-outcome"
        return outcome


class _PosRules:
    """The stake-weighted baseline: static stakes, and a slash that lands
    `pos_slash_delay` epochs after an offender's first detection. Until
    then the offender keeps proposing at full stake; there is no escalation."""

    protocol = "pos"
    chain = None  # no fork

    def __init__(self, state: _TrialState, stakes: Mapping[str, float]):
        self.election_rng = state.hub.stream("election")
        self.detect_rng = state.hub.stream("pos-detection")
        self.weights = [stakes[v] for v in state.alive]  # the stakes
        self.pending: dict[str, int] = {}  # offender -> epoch its slash lands
        self.slashed: set[str] = set()
        self.neutralized: tuple[str, ...] = ()  # the slashed ids, sorted

    def land_slashes(self, state: _TrialState, epoch: int,
                     events: list[dict]) -> tuple[str, ...]:
        """Land the slashes due by `epoch`; returns every slashed id so far."""
        landed = sorted(vid for vid, due in self.pending.items() if due <= epoch)
        if landed:
            keep, weights = 1.0 - state.config.pos_slash_fraction, list(self.weights)
            for vid in landed:
                weights[state.pos_of[vid]] *= keep
                del self.pending[vid]
                events.append({"kind": "pos-slash", "id": vid, "epoch": epoch})
            self.weights = weights
            self.slashed.update(landed)
            self.neutralized = tuple(sorted(self.slashed))
        return self.neutralized

    def elect(self, state: _TrialState) -> str:
        return state.alive[stake_pick(self.weights, self.election_rng)]

    def review(self, state: _TrialState, epoch: int, behaviors: BehaviorColumns,
               facts: _EpochFacts, confirm_ms: Optional[float],
               ) -> tuple[Optional[float], tuple[Verdict, ...]]:
        """The delayed-slash coin: each harmful record is detected at the configured
        rate, and an offender's first detection schedules its slash."""
        accuracy = state.config.detection_accuracy
        for index in facts.harmful:
            if self.detect_rng.random() < accuracy:
                offender = state.alive[behaviors.actor[index]]
                if offender not in self.pending and offender not in self.slashed:
                    self.pending[offender] = epoch + state.config.pos_slash_delay
        return confirm_ms, ()

    def settle(self, state: _TrialState, scores: list[float]) -> list[float]:
        """Stakes do not move; rewards follow them."""
        return self.weights

    def reshape(self, state: _TrialState, kept: list[int],
                joined: list[tuple[int, str]]) -> None:
        """The `kept` positions' stakes, and `stake_xmin` for each joiner."""
        stakes = [self.weights[pos] for pos in kept]
        for at, _ in joined:
            stakes.insert(at, state.config.stake_xmin)
        self.weights = stakes


def shares_one_state(config: ScenarioConfig, trace: Optional[Sequence[TraceBlock]]) -> bool:
    """Whether both protocols can run on one trial state, which draws every
    record and delay once for both. They cannot when a draw depends on the
    protocol: pob retires convicted adaptive Sybils, so the roster does; and
    outside a trace a griefer's records depend on its being the proposer,
    whom each protocol elects for itself."""
    kinds = {entry.spec.kind for entry in config.roster}
    return "adaptive-sybil" not in kinds and (trace is not None or "griefing" not in kinds)


def _run_epoch(state: _TrialState, halves: Sequence[_PobRules | _PosRules], epoch: int,
               last: bool) -> list[EpochLedger]:
    """One epoch of one trial state, ended by its roster change (`_change_roster`):
    the ledger of each of its protocols, in `halves` order. The behaviors (each
    validator as a non-proposer, or a replay's block from `state.trace`) and
    delays are drawn, and the arrival order and `_EpochFacts` worked out, once for
    them all. Each protocol then elects, makes its proposer's record a propose
    record outside a trace (`_as_proposer`), finds its quorum, and runs its own
    slashes, review, settlement and `chain`. The `last` epoch's ledgers end with
    its retirements, then the trial-end fork."""
    config = state.config
    events, state.pending_events = state.pending_events, []
    alive = state.alive
    starts = []  # each protocol's (events, slashed ids, weights before, proposer)
    for rules in halves:
        own_events = list(events)
        neutralized = rules.land_slashes(state, epoch, own_events)
        starts.append((own_events, neutralized, rules.weights,
                       _elect(state, rules, epoch)))
    cols = _behave(state, epoch, starts[0][3] if len(halves) == 1 else None)
    facts = _EpochFacts(cols, state.positions, config.betas)
    proposals, votes, arrivals, order = _arrivals(
        len(alive), state.latency, *state.delay_rngs, config.processing_ms)
    ledgers = []
    for rules, (own_events, neutralized, weights_before, proposer) in zip(halves, starts):
        behaviors, scores, utilities = cols, facts.scores, facts.utilities
        if state.trace is None:
            behaviors, scores, utilities = _as_proposer(state, cols, facts, proposer)
        confirm_ms = quorum_time(arrivals, weights_before, config.quorum, order)
        confirmed = confirm_ms is not None
        confirm_ms, verdicts = rules.review(state, epoch, behaviors, facts, confirm_ms)
        weights_after = rules.settle(state, scores)
        if confirmed and rules.chain is not None:
            rules.chain.append(extend_chain(rules.chain[-1], proposer, left_sum(utilities),
                                            state.signers, weights_after))
        ledgers.append(EpochLedger(
            epoch, rules.protocol, proposer, alive, behaviors, state.schedule, facts,
            scores, weights_before, weights_after, verdicts, confirmed, confirm_ms,
            proposals, votes, neutralized, tuple(own_events),
        ))
    _change_roster(state, halves, ledgers, epoch, last)
    if last:  # its retirements reach its ledgers, then the trial-end fork
        for rules, ledger in zip(halves, ledgers):
            ledger.events += tuple(state.pending_events)
            outcome = rules.fork(state) if rules.chain is not None else None
            if outcome is not None:
                ledger.events += (outcome,)
    return ledgers


def trial_epochs(
    config: ScenarioConfig,
    seed: int,
    protocols: Sequence[str],
    trace: Optional[Sequence[TraceBlock]] = None,
) -> Iterator[tuple[EpochLedger, ...]]:
    """One seeded trial as a stream of its epochs: each epoch's ledgers, one
    per protocol of `protocols`, in that order.

    The protocols share one trial state where the config `shares_one_state`,
    and each runs on a state of its own otherwise; each state is the trial of
    its protocols alone. The states advance in step, one epoch each
    (`_run_epoch`), and each epoch is handed out once every state has run it.

    `config` was checked when it was made. Nothing runs until the first
    epoch is asked for: then a trace's proposers are checked
    (`check_trace`) and the trial is set up, each state holding the trace
    (`_start_trial`), so no stage below takes it. The trial keeps no epoch
    it has handed out and nothing of an id it has retired, so its memory
    stays flat in the epoch count.
    """
    protocols, distinct = tuple(protocols), set(protocols)
    if not protocols or not distinct <= {"pob", "pos"} or len(distinct) < len(protocols):
        raise ValueError(
            f"a trial needs distinct concrete protocols, got {protocols!r} "
            "(resolve 'paired' at the experiment layer)"
        )
    if trace is not None:
        check_trace(config, trace)
    groups = [protocols] if shares_one_state(config, trace) else [(p,) for p in protocols]
    states = [_start_trial(config, seed, group, trace) for group in groups]
    epochs = len(trace) if trace is not None else config.epochs
    for epoch in range(epochs):
        ledgers: list[EpochLedger] = []
        for state, halves in states:
            ledgers += _run_epoch(state, halves, epoch, epoch == epochs - 1)
        yield tuple(ledgers)


def run_trial(
    config: ScenarioConfig,
    seed: int,
    protocol: Optional[str] = None,
    trace: Optional[Sequence[TraceBlock]] = None,
) -> list[EpochLedger]:
    """One seeded trial of one protocol (`trial_epochs`), its ledgers as a list."""
    protocols = (protocol or config.protocol,)
    return [ledger for (ledger,) in trial_epochs(config, seed, protocols, trace)]
