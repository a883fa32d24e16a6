"""Deterministic epoch-driven network simulation.

One trial = one seeded run of the full pipeline: proposer election,
behavior generation, latency-delayed block confirmation, misbehavior
review, weight update and reward distribution, with an append-only
ledger per epoch. The same loop can be driven from a block-trace file
(replay mode) and can host the stake-weighted baseline protocol for
paired comparisons.

Determinism contract: a trial (`trial_epochs`, and `run_trial` that
drains it) is a pure function of (config, seed, protocols). All
randomness flows through named substreams, every iteration order is
sorted, so re-runs are bit-identical. A paired trial is one loop over
one trial state: the behaviors and delays are drawn once and shared, and
so are the epoch's facts, activity and arrival order. Per protocol are
its own copy of the election stream, its proposer's record, its quorum,
slashes, review, settlement, chain and fork. So each protocol's ledgers
are, byte for byte, those of a trial that runs that protocol alone.
"""

from __future__ import annotations

import dataclasses
import json
import marshal
import random
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import log
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from . import adversaries as adv
from .baseline_pos import (
    StakeTable,
    pareto_stakes,
    pos_apply_due_slashes,
    pos_schedule_slash,
    stake_pick,
)
from .chain import extend_chain, genesis_block
from .config import ScenarioConfig, check_config
from .errors import TraceError
from .rewards import Payout, PoolSplit, RewardSchedule, split_pool, stipends
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
    total_utility,
)
from .watchdog import Penalty, Verdict, process_epoch_suspicions, slash
from .weights import WeightTable, dampened_pick, ema_step, left_sum, normalize


# ---------------------------------------------------------------------------
# Message latency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatencyModel:
    """Message-delay sampler. Sampled delays are always >= 0."""

    distribution: str = "exponential"
    mean_ms: float = 50.0

    def __post_init__(self):
        if self.distribution not in ("exponential", "fixed", "uniform"):
            raise ValueError(f"unknown latency distribution {self.distribution!r}")
        if self.mean_ms <= 0:
            raise ValueError("mean_ms must be > 0")

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

def _roster_map(column: str) -> cached_property:
    """A view of the roster-aligned list `column` as {id: value}, built on first read."""
    return cached_property(lambda ledger: dict(zip(ledger.roster, getattr(ledger, column))))


@dataclass
class EpochLedger:
    """Append-only audit record of one epoch.

    It stores the epoch's inputs: the sorted roster, behavior columns,
    reward schedule, activeness blend, three roster-aligned float lists and
    the delays. What follows from them (activeness, pool split, latency
    samples and the record and {id: float} views) is built when first read.
    """

    epoch: int
    protocol: str
    proposer: str
    roster: list[str]  # the sorted alive ids
    behavior_rows: BehaviorColumns
    schedule: RewardSchedule
    betas: tuple[float, float, float]
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
    # The epoch's activity, shared by the ledgers of every protocol that ran it
    # (trial_epochs); a ledger built without one works out its own.
    activity: Optional[_Activity] = field(default=None, repr=False, compare=False)

    scores = _roster_map("roster_scores")
    activeness = _roster_map("roster_activeness")
    weights_before = _roster_map("roster_weights_before")
    weights_after = _roster_map("roster_weights_after")

    @cached_property
    def roster_activeness(self) -> list[float]:
        if not self.roster:
            return []
        activity = self.activity or _Activity(self.behavior_rows, len(self.roster), self.betas)
        return activity.activeness

    @cached_property
    def pool_split(self) -> PoolSplit:
        return split_pool(self.schedule, self.roster_weights_after, self.roster_scores,
                          self.roster_activeness)

    @cached_property
    def latency_samples(self) -> list[float]:
        """Each validator's proposal delay, then its vote delay, in roster order."""
        samples = [0.0] * (2 * len(self.proposal_delays))
        samples[0::2] = self.proposal_delays
        samples[1::2] = self.vote_delays
        return samples

    @cached_property
    def behaviors(self) -> tuple[BehaviorRecord, ...]:
        return self.behavior_rows.records(self.roster)

    @cached_property
    def payouts(self) -> tuple[Payout, ...]:
        return self.pool_split.records(self.roster)


# One canonical ledger writer. It writes what
# json.dumps(..., sort_keys=True, separators=(",", ":")) writes for the
# ledger's views as plain dicts and lists, byte for byte, from its columns:
# keys are fixed fragments in sorted order (the roster is sorted, so column
# order is key order), a finite float is its repr, and anything else (None,
# bools, ints, NaN/Infinity, verdicts and free-form events) goes through
# one encoder with json.dumps's settings.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_encode = _ENCODER.encode
_string = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_VERDICT_FIELDS = tuple(f.name for f in dataclasses.fields(Verdict))
_KIND_JSON = {kind: _string(kind.value) for kind in ActionKind}


def _value(x) -> str:
    """A JSON scalar: repr for a finite float, the shared encoder otherwise."""
    cls = x.__class__
    if cls is float:
        s = _float_repr(x)
        if "n" not in s:  # "nan", "inf" and "-inf" are not JSON
            return s
    elif cls is int:
        return int.__repr__(x)
    elif cls is bool:
        return "true" if x else "false"
    return _encode(x)


def _texts(values: Sequence) -> list[str]:
    """Each value as a JSON scalar."""
    try:
        texts = list(map(_float_repr, values))
    except TypeError:  # an int or a bool among the floats
        return list(map(_value, values))
    if "n" in "".join(texts):
        return list(map(_value, values))
    return texts


def _names(roster: list[str]) -> list[str]:
    return list(map(_string, roster))


def _rows(n: int, *pieces) -> str:
    """`n` rows joined, each the row's text of every piece in turn: a piece is a
    list of `n` texts, or one text that every row repeats."""
    width = len(pieces)
    parts = [""] * (width * n)
    for k, piece in enumerate(pieces):
        parts[k::width] = [piece] * n if piece.__class__ is str else piece
    return "".join(parts)


def _map(values: Sequence[float], names: list[str]) -> str:
    """A roster-aligned list as a JSON object keyed by the roster's `names`."""
    return "{" + _rows(len(names), names, ":", _texts(values), ",")[:-1] + "}"


def _motivations(profiles: Sequence[MotivationProfile]) -> list[str]:
    """Each profile's JSON, encoded once per distinct profile."""
    distinct = {id(m): m for m in profiles}
    texts = {key: '{"intensities":[' + ",".join(_texts(m.intensities)) + '],"weights":['
                  + ",".join(_texts(m.weights)) + "]}" for key, m in distinct.items()}
    return list(map(texts.__getitem__, map(id, profiles)))


def _behaviors(base_utility: list[float], context_factor: list[float], initiative: list[float],
               actor: list[int], fraud: list[bool], kinds: list[str], motivations: list[str],
               epoch: int, names: list[str]) -> str:
    rows = _rows(len(actor), '{"actor":', list(map(names.__getitem__, actor)),
                 ',"base_utility":', _texts(base_utility),
                 ',"context_factor":', _texts(context_factor), ',"epoch":', _value(epoch),
                 ',"initiative":', _texts(initiative),
                 ',"is_fraud_ground_truth":', list(map(_value, fraud)), ',"kind":', kinds,
                 ',"motivation":', motivations, "},")
    return "[" + rows[:-1] + "]"


def _payouts(total: list[float], bonus: list[float], multiplier: list[float], base: float,
             actives: list[int], names: list[str]) -> str:
    rows = _rows(len(actives), '{"activeness_multiplier":', _texts(multiplier),
                 ',"base":', _value(base), ',"bonus":', _texts(bonus), ',"total":', _texts(total),
                 ',"validator":', list(map(names.__getitem__, actives)), "},")
    return "[" + rows[:-1] + "]"


def _latency(proposals: list[float], votes: list[float]) -> str:
    """The latency samples: each validator's proposal delay, then its vote delay."""
    return "[" + _rows(len(proposals), _texts(proposals), ",", _texts(votes), ",")[:-1] + "]"


def _verdicts(verdicts: Sequence[Verdict]) -> str:
    return _encode([{f: getattr(v, f) for f in _VERDICT_FIELDS} for v in verdicts])


def _same(a, b) -> bool:
    """Whether `a` and `b` write the same JSON: one object, or equal values of the same
    types and bits. `==` alone is not enough: it takes -0.0 for 0.0 and True for 1
    and 1.0, which each write differently; marshal writes each value's type and bits."""
    if a is b:
        return True
    try:
        return a == b and marshal.dumps(a, 2) == marshal.dumps(b, 2)
    except ValueError:  # a value marshal cannot write: no reuse
        return False


def ledger_to_json(ledger: EpochLedger, last: Optional[dict] = None) -> str:
    """Canonical serialization: sorted keys, shortest round-trip floats.

    `last` is the writer state that a trial's ledgers share: for each
    protocol, the parts of the last ledger written, as (write, columns,
    text). A part (the roster's names, each roster map, the behaviors, the
    latency samples, the payouts) is one function of a few columns, and its
    text is copied from an earlier part of the same function whose columns
    are each `_same` as its own. A protocol hands out a new weight list on
    every change (see the protocol rules), so an unchanged list is the same
    object; a paired trial's halves draw the same behaviors and delays, so
    their twin columns are equal.
    """
    last = {} if last is None else last
    earlier = [known for parts in last.values() for known in parts]
    written = last[ledger.protocol] = []

    def part(write: Callable, *columns):
        # Callers list a part's most changeable columns first, where a mismatch shows soonest.
        for known in written + earlier:
            if known[0] is write and all(map(_same, known[1], columns)):
                text = known[2]
                break
        else:
            text = write(*columns)
        written.append((write, columns, text))
        return text

    names = part(_names, ledger.roster)
    c, split = ledger.behavior_rows, ledger.pool_split
    behaviors = part(_behaviors, c.base_utility, c.context_factor, c.initiative, c.actor,
                     c.fraud, list(map(_KIND_JSON.__getitem__, c.kind)),
                     _motivations(c.motivation), c.epoch, names)
    payouts = part(_payouts, split.total, split.bonus, split.multiplier, split.base,
                   split.actives, names)
    return (
        f'{{"activeness":{part(_map, ledger.roster_activeness, names)}'
        f',"behaviors":{behaviors}'
        f',"confirm_ms":{_value(ledger.confirm_ms)}'
        f',"confirmed":{_value(ledger.confirmed)}'
        f',"epoch":{_value(ledger.epoch)}'
        f',"events":{_encode(list(ledger.events))}'
        f',"latency_samples":{part(_latency, ledger.proposal_delays, ledger.vote_delays)}'
        f',"neutralized":{_encode(list(ledger.neutralized))}'
        f',"payouts":{payouts}'
        f',"proposer":{_string(ledger.proposer)}'
        f',"protocol":{_string(ledger.protocol)}'
        f',"scores":{part(_map, ledger.roster_scores, names)}'
        f',"verdicts":{_verdicts(ledger.verdicts)}'
        f',"weights_after":{part(_map, ledger.roster_weights_after, names)}'
        f',"weights_before":{part(_map, ledger.roster_weights_before, names)}}}'
    )


# ---------------------------------------------------------------------------
# Block confirmation
# ---------------------------------------------------------------------------

def simulate_confirmation(
    alive: Sequence[str],
    weights: list[float],
    quorum: Fraction,
    latency: LatencyModel,
    rng_proposal: random.Random,
    rng_vote: random.Random,
    processing_ms: float,
) -> tuple[Optional[float], list[float], list[float]]:
    """Run the proposal+vote pipeline on the simulated clock.

    `weights` lists the weights in `alive` order. The proposal reaches
    validator i after one message delay (from `rng_proposal`; a separate
    stream from `rng_vote`); its vote arrives one more delay later. Each
    stage adds a fixed processing cost. Everyone votes yes here; dissent is
    modeled at the behavior level, not the transport level. Returns the
    confirmation time (`quorum_time` of the vote arrivals) and the proposal
    and vote delays, in `alive` order. A trial runs the two steps apart:
    it draws the arrivals once, and each protocol finds its own quorum.
    """
    proposals, votes, arrivals, order = _arrivals(len(alive), latency, rng_proposal, rng_vote,
                                                  processing_ms)
    return quorum_time(arrivals, weights, quorum, order), proposals, votes


def _arrivals(n: int, latency: LatencyModel, rng_proposal: random.Random,
              rng_vote: random.Random, processing_ms: float,
              ) -> tuple[list[float], list[float], list[float], list[int]]:
    """The `n` proposal and vote delays, the vote arrival times, and the arrival order."""
    proposals, votes = latency.draws(rng_proposal, n), latency.draws(rng_vote, n)
    arrivals = [processing_ms + p + processing_ms + v for p, v in zip(proposals, votes)]
    return proposals, votes, arrivals, sorted(range(n), key=arrivals.__getitem__)


def quorum_time(arrivals: Sequence[float], weights: Sequence[float], quorum: Fraction,
                order: Optional[Sequence[int]] = None) -> Optional[float]:
    """The arrival at which the yes-weight, counted in arrival order (ties in
    list order), first reaches `quorum` times the total; None if it never does.
    `order` is that arrival order, when the caller has already sorted it."""
    if not 0 < quorum <= 1:
        raise ValueError(f"quorum {quorum} outside (0, 1]")
    if order is None:
        order = sorted(range(len(arrivals)), key=arrivals.__getitem__)
    total = left_sum(weights)
    # Float comparison outside a slack band around the target; inside it
    # an exact rational check, so a vote landing exactly on the quorum
    # cannot flip on rounding.
    target = float(quorum) * total
    slack = 1e-12 * max(1.0, abs(total))
    above, below = target + slack, target - slack
    acc = 0.0
    for i in order:
        acc += weights[i]
        if acc > above or (acc >= below and Fraction(acc) >= quorum * Fraction(total)):
            return arrivals[i]
    return None


# ---------------------------------------------------------------------------
# Block trace files
# ---------------------------------------------------------------------------

TRACE_KINDS = {k.value for k in ActionKind}


@dataclass(frozen=True)
class TraceBlock:
    height: int
    proposer: str
    kind: ActionKind
    base_utility: float
    phi: float
    alpha: float
    is_exploit: bool
    # the 1-based line of the block in its trace file; None for a block built in code
    line: Optional[int] = field(default=None, compare=False)


def parse_trace(source: str | Path | Iterable[str]) -> list[TraceBlock]:
    """Parse a line-oriented block trace.

    Format per line: height,proposer_id,kind,base_utility,phi,alpha,is_exploit
    with `#` comments and blank lines allowed. Any deviation (wrong field
    count, bad types, out-of-range values) raises TraceError with the
    line number.
    """
    if isinstance(source, (str, Path)):
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = list(source)
    blocks: list[TraceBlock] = []
    last_height: Optional[int] = None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 7:
            raise TraceError(line_no, f"expected 7 fields, found {len(fields)}")
        try:
            height = int(fields[0])
            base_utility = float(fields[3])
            phi = float(fields[4])
            alpha = float(fields[5])
        except ValueError as exc:
            raise TraceError(line_no, f"bad numeric field: {exc}") from None
        proposer = fields[1].strip()
        kind_str = fields[2].strip()
        exploit_str = fields[6].strip()
        if not proposer:
            raise TraceError(line_no, "empty proposer id")
        if kind_str not in TRACE_KINDS:
            raise TraceError(line_no, f"unknown action kind {kind_str!r}")
        if exploit_str not in ("0", "1"):
            raise TraceError(line_no, f"is_exploit must be 0 or 1, found {exploit_str!r}")
        if not 0.0 <= phi <= 1.0:
            raise TraceError(line_no, f"phi {phi} outside [0, 1]")
        if not 0.0 <= alpha <= 1.0:
            raise TraceError(line_no, f"alpha {alpha} outside [0, 1]")
        if last_height is not None and height != last_height + 1:
            raise TraceError(line_no, f"height {height} does not follow {last_height}")
        last_height = height
        is_exploit = exploit_str == "1"
        kind = ActionKind(kind_str)
        if is_exploit:
            kind = ActionKind.FRAUD
            base_utility = -abs(base_utility)
        blocks.append(TraceBlock(height, proposer, kind, base_utility, phi, alpha, is_exploit,
                                 line_no))
    return blocks


def check_trace(config: ScenarioConfig, trace: Sequence[TraceBlock]) -> None:
    """Raise TraceError at the first block whose proposer is not alive at its
    epoch (its index in `trace`): a configured validator, or the newcomer
    from `newcomer_epoch` on. An adaptive-sybil member is refused too, since
    pob may retire it before the block's epoch. The error names the block's
    line in its file; a block built in code counts as line index + 1."""
    ids = config.validator_ids()
    join_epoch = dict.fromkeys(ids, 0)
    if config.newcomer_epoch is not None:
        join_epoch["newcomer"] = config.newcomer_epoch
    sybils = {vid for entry in config.roster if entry.spec.kind == "adaptive-sybil"
              for vid in ids[entry.lo:entry.hi]}
    for epoch, tb in enumerate(trace):
        line = epoch + 1 if tb.line is None else tb.line
        where = f"proposer {tb.proposer!r} (block height {tb.height})"
        if join_epoch.get(tb.proposer, epoch + 1) > epoch:
            raise TraceError(line, f"{where} not in the validator set at epoch {epoch}")
        if tb.proposer in sybils:
            raise TraceError(line, f"{where} is an adaptive-sybil member, which pob may "
                                   f"retire before epoch {epoch}")


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
    strategies: dict[str, adv.Strategy]  # id -> its strategy, for every id that ever joins
    shape: adv.HonestShape
    latency: LatencyModel
    schedule: RewardSchedule
    sybil_controller: Optional[adv.AdaptiveSybilController] = None
    # the long-range-fork keys, sorted, and their one fork depth
    compromised: list[str] = field(default_factory=list)
    fork_depth: int = 0
    pending_events: list[dict] = field(default_factory=list)
    # The sorted ids alive this epoch, and what is aligned with them (_set_roster).
    alive: list[str] = field(default_factory=list)
    signers: frozenset[str] = frozenset()  # the signer set their blocks share
    pos_of: dict[str, int] = field(default_factory=dict)  # id -> roster position
    positions: list[int] = field(default_factory=list)  # 0, 1, ..., len(alive) - 1
    # (first, draws, None) for a run of plain-honest validators from position
    # `first` on, with each one's bound behavior random(); else (pos, context, strategy).
    emitters: list[tuple] = field(default_factory=list)
    # roster position -> that member's coalition vote, for members whose strategy has one
    voters: dict[int, Callable[[str], bool]] = field(default_factory=dict)
    # join epoch -> ids that join then; every key is > 0
    joins: dict[int, list[str]] = field(default_factory=dict)


def _start_trial(config: ScenarioConfig, seed: int,
                 protocols: Sequence[str]) -> tuple[_TrialState, list[_PobRules | _PosRules]]:
    """The trial's state and each protocol's rules, in `protocols` order."""
    hub = RngHub(seed)
    ids = config.validator_ids()
    # One stake draw for both protocols, so paired runs start from the same shape: the
    # baseline's stake table and, under `genesis_weights: stake`, the genesis weights.
    if config.stake_distribution == "pareto":
        stakes = pareto_stakes(ids, hub.stream("stake"), config.stake_alpha, config.stake_xmin)
    else:
        stakes = {vid: 1.0 for vid in ids}
    state = _setup_trial(config, hub, ids)
    rules = {"pob": _PobRules, "pos": _PosRules}
    return state, [rules[protocol](state, stakes) for protocol in protocols]


def _setup_trial(config: ScenarioConfig, hub: RngHub, ids: list[str]) -> _TrialState:
    """The trial's actors: each roster entry's members get its strategy, the rest are honest."""
    shape = adv.HonestShape(config.honest_utility_lo, config.honest_utility_hi,
                            config.honest_initiative_lo, config.honest_initiative_hi,
                            config.oracle_rate, _build_motivations(config))
    honest = adv.HonestStrategy()
    strategies: dict[str, adv.Strategy] = dict.fromkeys(ids, honest)
    state = _TrialState(config, hub, strategies, shape,
                        LatencyModel(config.latency_distribution, config.latency_mean_ms),
                        _reward_schedule(config))
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
        else:  # stealth, or long-range-fork: stealth frauds from keys that fork at trial end
            make = partial(adv.StealthStrategy, param("fraud_rate"), param("fraud_value"))
            if kind == "long-range-fork":  # one fork depth for all (config._roster)
                state.compromised = sorted(state.compromised + members)
                state.fork_depth = param("fork_depth")
        for vid in members:
            strategies[vid] = make()

    if config.newcomer_epoch is not None:
        strategies["newcomer"] = honest
        state.joins[config.newcomer_epoch] = ["newcomer"]
    _set_roster(state, sorted(ids))
    return state


def _reward_schedule(config: ScenarioConfig) -> RewardSchedule:
    return RewardSchedule(config.r_total, config.resolved_r_base(),
                          config.activity_threshold, config.epsilon)


def _set_roster(state: _TrialState, alive: list[str]) -> None:
    """Make `alive` the roster and rebuild what is aligned with it (but the rules' weights)."""
    state.alive = alive
    state.signers = frozenset(alive)
    state.pos_of = {vid: pos for pos, vid in enumerate(alive)}
    state.positions = list(range(len(alive)))
    hub, emitters, voters = state.hub, [], {}
    for pos, vid in enumerate(alive):
        strategy = state.strategies[vid]
        if hasattr(strategy, "committee_vote"):
            voters[pos] = strategy.committee_vote
        if type(strategy).emit is not adv.Strategy.emit:
            emitters.append((pos, adv.EpochContext(0, vid, False, hub.stream(f"behavior/{vid}"),
                                                   hub.stream(f"adversary/{vid}"), state.shape),
                             strategy))
        elif emitters and emitters[-1][2] is None:  # the run of plain-honest validators goes on
            emitters[-1][1].append(hub.stream(f"behavior/{vid}").random)
        else:
            emitters.append((pos, [hub.stream(f"behavior/{vid}").random], None))
    state.emitters = emitters
    state.voters = voters


# ---------------------------------------------------------------------------
# Epoch stages shared by both protocols
# ---------------------------------------------------------------------------

def _apply_joins(state: _TrialState, halves: Sequence[_PobRules | _PosRules], epoch: int,
                 events: list[dict]) -> None:
    """Admit the validators whose join epoch is `epoch` into every protocol's
    rules, then rebuild the roster.

    Every joiner is a fresh id (the newcomer or a respawned Sybil), so
    none is in the weight or stake table yet.
    """
    joining = state.joins.pop(epoch, None)
    if not joining:
        return
    alive = list(state.alive)
    for vid in sorted(joining):
        at = bisect_left(alive, vid)
        alive.insert(at, vid)
        for rules in halves:
            rules.admit(state, vid, at)
        events.append({"kind": "join", "id": vid, "role": state.strategies[vid].kind,
                       "epoch": epoch})
    _set_roster(state, alive)


def _elect(state: _TrialState, rules: _PobRules | _PosRules, epoch: int,
           trace: Optional[Sequence[TraceBlock]]) -> str:
    """The trace's proposer, else an override's, else the protocol's lottery."""
    if trace is not None:
        return trace[epoch].proposer
    override = state.config.proposer_override
    if override is not None and override[1] <= epoch < override[2]:
        return override[0]
    return rules.elect(state)


def _behave(state: _TrialState, epoch: int, proposer: Optional[str],
            trace: Optional[Sequence[TraceBlock]]) -> BehaviorColumns:
    """Every alive validator's records for the epoch, in roster order.

    Outside a trace `proposer` draws as the proposer; with None every
    validator draws as a non-proposer (see `_as_proposer`). Under a trace
    the proposer's action is the trace block's, in the first row; the rest
    of the network still validates every block, so scores stay live.
    """
    cols = BehaviorColumns(epoch)
    proposer_pos = state.pos_of.get(proposer, -1)
    skip = -1
    if trace is not None:
        tb = trace[epoch]
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
                adv.draw_honest(cols, shape, first, source[:k], proposer_pos)
                first, source = skip + 1, source[k + 1:]
            adv.draw_honest(cols, shape, first, source, proposer_pos)
        elif first != skip:  # `source` is the validator's context
            source.epoch = epoch
            source.is_proposer = first == proposer_pos
            strategy.emit(source, cols, first)
    return cols


@dataclass
class _EpochFacts:
    """What the rest of an epoch reads about its behavior columns, computed once.
    Lists are aligned with the roster; record indices are rows of the columns."""

    scores: list[float]  # summed utility of each validator's records
    utility: float  # summed utility of every record, in record order
    utilities: list[float]  # each row's utility; the scores themselves with one row each
    outcomes: list[float]  # each row's outcome utility
    harmful: list[int]  # rows with a negative outcome
    # (first row, action count / network mean, mean initiative, diversity)
    # of each actor whose activity could look scripted, in roster order
    suspects: list[tuple[int, float, float, float]]


class _Activity:
    """An epoch's rows per roster position and activeness inputs, worked out on
    first read. The suspects and every protocol's ledger of the epoch read one:
    only a proposer's row differs between the protocols, and its propose kind
    counts in the diversity as the validate kind it replaces."""

    def __init__(self, cols: BehaviorColumns, n: int, betas: tuple[float, float, float]):
        self.cols, self.n, self.betas = cols, n, betas

    @cached_property
    def per_position(self) -> tuple[list[list[int]], list[tuple[float, float, float]]]:
        """Each of the `n` roster positions' rows, and its activeness inputs: (action
        count / network mean, mean initiative, diversity). Every position has a row."""
        cols, n = self.cols, self.n
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
        column = activeness_column(*zip(*self.per_position[1]), self.betas)
        del self.per_position  # read by the facts only, which are made before any ledger is out
        return column


def _epoch_facts(cols: BehaviorColumns, activity: _Activity, positions: list[int],
                 freq_threshold: float) -> _EpochFacts:
    n = len(positions)
    outcomes = [b * c * i for b, c, i in zip(cols.base_utility, cols.context_factor,
                                             cols.initiative)]
    utilities = [m.utility + o for m, o in zip(cols.motivation, outcomes)]  # total_utility
    harmful = [row for row, o in enumerate(outcomes) if o < 0.0]
    # With one record each in roster order, the scores are the utilities (a
    # utility is never -0.0, so the score 0.0 + utility is the utility).
    scores = utilities
    if cols.actor != positions:
        scores = [0.0] * n
        for actor, u in zip(cols.actor, utilities):
            scores[actor] += u
    # Each validator has a record, and a one-record actor has this action ratio;
    # at or below the threshold, one record each leaves no suspect.
    single_suspect = 1 / (len(utilities) / n) > freq_threshold
    suspects = []
    if single_suspect or len(utilities) > n:
        suspects = [(mine[0], *actor_inputs)
                    for mine, actor_inputs in zip(*activity.per_position)
                    if len(mine) > 1 or single_suspect]
    return _EpochFacts(scores, left_sum(utilities), utilities, outcomes, harmful, suspects)


def _as_proposer(state: _TrialState, cols: BehaviorColumns, facts: _EpochFacts,
                 proposer: str) -> tuple[BehaviorColumns, list[float], float]:
    """The epoch's columns, scores and utility total as they are when `proposer`
    draws as the proposer: its first row turned from the validate record that
    `draw_honest` writes for a non-proposer into its propose record, with the
    propose motivation and that row's utility. The draws are the same either
    way. Inputs that do not change are returned as they are, and a list that
    changes is copied, never changed in place. Outside a trace only, where the
    actor column is sorted.
    """
    pos = state.pos_of.get(proposer)
    row = -1 if pos is None else bisect_left(cols.actor, pos)
    if row < 0 or cols.kind[row] is not ActionKind.VALIDATE:
        return cols, facts.scores, facts.utility
    motivation = state.shape.motivations[ActionKind.PROPOSE]
    kind, motivations, utilities = cols.kind.copy(), cols.motivation.copy(), facts.utilities.copy()
    kind[row], motivations[row] = ActionKind.PROPOSE, motivation
    utilities[row] = motivation.utility + facts.outcomes[row]
    scores = utilities  # one row each (_epoch_facts)
    if facts.scores is not facts.utilities:
        scores, score = facts.scores.copy(), 0.0
        for u in utilities[row:bisect_right(cols.actor, pos)]:  # the proposer's rows
            score += u
        scores[pos] = score
    return (dataclasses.replace(cols, kind=kind, motivation=motivations), scores,
            left_sum(utilities))


def _sessions(state: _TrialState, cols: BehaviorColumns,
              facts: _EpochFacts) -> list[tuple[int, int, int, bool]]:
    """Suspicion channel: a (subject position, row, reporter count, harmful)
    session per reported row.

    Harmful rows come first, then the scripted-looking rows with an outcome
    of at least 0, each observed by every other validator. Below
    `observe_prob` 1 each observer reports on its own `observe` draw, and
    the count is the number that did; a row no one reports convenes no
    session. At `observe_prob` 1 every observer reports, but the count is
    recorded as 1.
    """
    config = state.config
    observers = len(state.alive) - 1
    rows = list(facts.harmful)
    harmful = len(rows)
    for row, *participation in facts.suspects:
        if looks_scripted(*participation, config.anomaly_freq_threshold,
                          config.anomaly_quality_threshold) and facts.outcomes[row] >= 0.0:
            rows.append(row)
    if config.observe_prob < 1.0:
        draw, p = state.hub.stream("observe").random, config.observe_prob
        counts = [sum(draw() < p for _ in range(observers)) for _ in rows]
    else:
        counts = [min(observers, 1)] * len(rows)
    return [(cols.actor[row], row, count, i < harmful)
            for i, (row, count) in enumerate(zip(rows, counts)) if count]


def _retire_convicted(state: _TrialState, rules: _PobRules | _PosRules,
                      verdicts: Sequence[Verdict], epoch: int) -> None:
    """Retire the adaptive Sybils convicted this epoch and queue their respawns."""
    controller = state.sybil_controller
    if controller is None:
        return
    retired = {v.subject for v in verdicts if v.guilty and v.subject in controller.coalition_members}
    if not retired:
        return
    convicted = sorted(retired)
    for vid in convicted:
        state.pending_events.append({"kind": "retire", "id": vid, "epoch": epoch})
        state.hub.drop(f"behavior/{vid}", f"adversary/{vid}")  # respawns get fresh ids
    kept = [pos for pos, vid in enumerate(state.alive) if vid not in retired]
    rules.retire(kept)
    _set_roster(state, [state.alive[pos] for pos in kept])
    population = len(state.alive) + len(state.joins.get(epoch + 1, ()))
    fresh, cap_events = controller.replacements(epoch, population, convicted)
    state.pending_events.extend(cap_events)
    for vid in fresh:
        state.strategies[vid] = controller.strategy()
        state.joins.setdefault(epoch + 1, []).append(vid)


# ---------------------------------------------------------------------------
# Protocol rules: the one place the two protocols differ
# ---------------------------------------------------------------------------
#
# A trial keeps one rules object per protocol as a local of trial_epochs:
# its half of the trial. The rules hold only what their protocol uses and
# never point back at the trial state, so a finished trial leaves no
# reference cycle to collect. Each keeps `weights`, its election and reward
# weights aligned with the roster, as a new list on every change, so a
# ledger can keep the one it got. They call the protocol operations through
# this module's globals, where a tracer can wrap them by name.

class _Half:
    """What every protocol keeps apart: its own copy of the election stream,
    from which the protocols draw different counts, and its chain and clock."""

    def __init__(self, state: _TrialState):
        self.election_rng = state.hub.fresh("election")
        # The blocks the trial-end fork can reach; older ones are dropped.
        self.chain = deque([genesis_block()], maxlen=state.fork_depth + 1)
        self.sim_time = 0.0


class _PobRules(_Half):
    """Behavior weighting: reports, committee verdicts and the weight update."""

    protocol = "pob"

    def __init__(self, state: _TrialState, stakes: Mapping[str, float]):
        super().__init__(state)
        self.offense_counts: dict[str, int] = {}
        self.committee_rng = state.hub.stream("committee")
        self.watchdog_rng = state.hub.stream("latency/watchdog")
        by_stake = state.config.genesis_weights == "stake"
        self.weights = normalize([stakes[v] if by_stake else 1.0 for v in state.alive])

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
        sessions = _sessions(state, behaviors, facts)
        committee_size = min(config.resolved_committee_size(), len(state.alive) - 1)
        if confirm_ms is not None:
            confirm_ms += config.processing_ms  # behavior-scoring stage
            if sessions:
                delays = state.latency.draws(self.watchdog_rng, committee_size)
                confirm_ms += config.processing_ms + (max(delays) if delays else 0.0)
        if not sessions:
            return confirm_ms, ()
        weights, verdicts = process_epoch_suspicions(
            sessions, state.alive, self.weights, behaviors, config.penalty, config.theta,
            committee_size, self.committee_rng, self.offense_counts,
            config.detection_accuracy, state.voters)
        self.weights = normalize(weights)
        return confirm_ms, tuple(verdicts)

    def settle(self, state: _TrialState, scores: list[float]) -> list[float]:
        """The weight update; rewards follow the updated weights."""
        self.weights = ema_step(self.weights, scores, state.config.rho)
        return self.weights

    def admit(self, state: _TrialState, vid: str, at: int) -> None:
        controller = state.sybil_controller
        sybil = controller is not None and vid in controller.coalition_members
        join_weight = controller.join_weight if sybil else 0.0
        weights = self.weights[:at] + [join_weight] + self.weights[at:]
        self.weights = normalize(weights) if join_weight > 0.0 else weights

    def retire(self, kept: list[int]) -> None:
        self.weights = normalize([self.weights[pos] for pos in kept])

    def fork(self, state: _TrialState) -> Optional[dict]:
        """The long-range fork attempt at trial end, if the roster has one.
        The chain holds at least the last `fork_depth + 1` blocks."""
        chain = self.chain
        height = chain[-1].height
        if not state.compromised or height == 0:
            return None
        outcome = adv.long_range_fork_outcome(
            chain, WeightTable(dict(zip(state.alive, self.weights))),
            state.compromised, min(state.fork_depth, height),
            claimed_utility_boost=abs(chain[-1].cumulative_utility) + 1000.0)
        outcome["kind"] = "fork-outcome"
        return outcome


class _PosRules(_Half):
    """The stake-weighted baseline: static stakes and a delayed slash."""

    protocol = "pos"

    def __init__(self, state: _TrialState, stakes: dict[str, float]):
        super().__init__(state)
        config = state.config
        self.stakes = StakeTable(stakes, config.pos_slash_delay, config.pos_slash_fraction)
        self.detect_rng = state.hub.stream("pos-detection")
        self.weights = [stakes[v] for v in state.alive]

    def land_slashes(self, state: _TrialState, epoch: int,
                     events: list[dict]) -> tuple[str, ...]:
        """Land the slashes due by `epoch`; returns every slashed id so far."""
        landed = pos_apply_due_slashes(self.stakes, epoch)
        for vid in landed:
            events.append({"kind": "pos-slash", "id": vid, "epoch": epoch})
        if landed:
            self.weights = [self.stakes.stakes[v] for v in state.alive]
        return tuple(sorted(self.stakes.slashed))

    def elect(self, state: _TrialState) -> str:
        return state.alive[stake_pick(self.weights, self.election_rng)]

    def review(self, state: _TrialState, epoch: int, behaviors: BehaviorColumns,
               facts: _EpochFacts, confirm_ms: Optional[float],
               ) -> tuple[Optional[float], tuple[Verdict, ...]]:
        """The delayed-slash coin: each harmful record is detected at the configured rate."""
        accuracy = state.config.detection_accuracy
        for index in facts.harmful:
            if self.detect_rng.random() < accuracy:
                pos_schedule_slash(self.stakes, state.alive[behaviors.actor[index]], epoch)
        return confirm_ms, ()

    def settle(self, state: _TrialState, scores: list[float]) -> list[float]:
        """Stakes do not move; rewards follow them."""
        return self.weights

    def admit(self, state: _TrialState, vid: str, at: int) -> None:
        stake = state.config.stake_xmin
        self.stakes.stakes[vid] = stake
        self.weights = self.weights[:at] + [stake] + self.weights[at:]

    def fork(self, state: _TrialState) -> Optional[dict]:
        return None


def shares_one_state(config: ScenarioConfig, trace: Optional[Sequence[TraceBlock]]) -> bool:
    """Whether both protocols can run on one trial state, which draws every
    record and delay once for both. They cannot when a draw depends on the
    protocol: pob retires convicted adaptive Sybils, so the roster does; and
    outside a trace a griefer's records depend on its being the proposer,
    whom each protocol elects for itself."""
    kinds = {entry.spec.kind for entry in config.roster}
    return "adaptive-sybil" not in kinds and (trace is not None or "griefing" not in kinds)


def trial_epochs(
    config: ScenarioConfig,
    seed: int,
    protocols: Sequence[str],
    trace: Optional[Sequence[TraceBlock]] = None,
) -> Iterator[tuple[EpochLedger, ...]]:
    """One seeded trial as a stream of its epochs: each epoch's ledgers, one
    per protocol of `protocols`, in that order.

    The protocols share one trial state. Each epoch draws the behaviors
    (every validator as a non-proposer when there are several protocols)
    and the delays once, and works out the facts, the activity and the
    arrival order once. Each protocol then elects its own proposer and
    turns that proposer's record into a propose record (`_as_proposer`),
    finds its own quorum in the shared arrival order, and runs its own
    slashes, review, settlement, chain and fork. Several protocols need a
    config that `shares_one_state`; a ValueError says so otherwise.

    Nothing runs until the first epoch is asked for: then `config` is
    checked as the loader checks it (`check_config`), a trace's proposers
    are checked (`check_trace`) and the trial is set up. Each epoch comes
    out once the next one starts (the last one waits for the trial-end
    fork outcome), and the trial keeps none it has handed out past the
    next epoch, so its memory stays flat in the epoch count.
    """
    protocols, distinct = tuple(protocols), set(protocols)
    if not protocols or not distinct <= {"pob", "pos"} or len(distinct) < len(protocols):
        raise ValueError(
            f"a trial needs distinct concrete protocols, got {protocols!r} "
            "(resolve 'paired' at the experiment layer)"
        )
    config = check_config(config)
    if len(protocols) > 1 and not shares_one_state(config, trace):
        raise ValueError("this roster's draws depend on the protocol: run each protocol alone")
    if trace is not None:
        check_trace(config, trace)
    state, halves = _start_trial(config, seed, protocols)

    epochs = len(trace) if trace is not None else config.epochs
    finished: tuple[EpochLedger, ...] = ()
    rng_lat_prop = state.hub.stream("latency/proposal")
    rng_lat_vote = state.hub.stream("latency/vote")
    threshold = state.schedule.activity_threshold

    for epoch in range(epochs):
        if finished:
            yield finished
        events, state.pending_events = state.pending_events, []
        _apply_joins(state, halves, epoch, events)
        alive = state.alive
        starts = []  # each protocol's (events, slashed ids, weights before, proposer)
        for rules in halves:
            own_events = list(events)
            neutralized = rules.land_slashes(state, epoch, own_events)
            starts.append((own_events, neutralized, rules.weights,
                           _elect(state, rules, epoch, trace)))
        cols = _behave(state, epoch, starts[0][3] if len(halves) == 1 else None, trace)
        activity = _Activity(cols, len(alive), config.betas)
        facts = _epoch_facts(cols, activity, state.positions, config.anomaly_freq_threshold)
        proposals, votes, arrivals, order = _arrivals(
            len(alive), state.latency, rng_lat_prop, rng_lat_vote, config.processing_ms)
        ledgers = []
        for rules, (own_events, neutralized, weights_before, proposer) in zip(halves, starts):
            behaviors, scores, utility = cols, facts.scores, facts.utility
            if trace is None:
                behaviors, scores, utility = _as_proposer(state, cols, facts, proposer)
            confirm_ms = quorum_time(arrivals, weights_before, config.quorum, order)
            confirmed = confirm_ms is not None
            confirm_ms, verdicts = rules.review(state, epoch, behaviors, facts, confirm_ms)
            rules.sim_time += confirm_ms if confirmed else 0.0
            weights_after = rules.settle(state, scores)
            # split_pool's check, run here: the ledger splits the pool only when read
            stipends(state.schedule, len([s for s in scores if s > threshold]))
            if confirmed:
                rules.chain.append(extend_chain(rules.chain[-1], proposer, utility,
                                                rules.sim_time, state.signers, weights_after))
            ledgers.append(EpochLedger(
                epoch, rules.protocol, proposer, alive, behaviors, state.schedule, config.betas,
                scores, weights_before, weights_after, verdicts, confirmed, confirm_ms,
                proposals, votes, neutralized, tuple(own_events), activity,
            ))
        finished = tuple(ledgers)
        for rules, ledger in zip(halves, finished):
            _retire_convicted(state, rules, ledger.verdicts, epoch)

    for rules, ledger in zip(halves, finished):
        outcome = rules.fork(state)
        if outcome is not None:
            ledger.events += (outcome,)
    if finished:
        yield finished


def run_trial(
    config: ScenarioConfig,
    seed: int,
    protocol: Optional[str] = None,
    trace: Optional[Sequence[TraceBlock]] = None,
    sink: Optional[Callable[[EpochLedger], None]] = None,
) -> list[EpochLedger]:
    """Execute one seeded trial of one protocol (`trial_epochs`), handing each
    ledger to `sink`.

    Without a sink the ledgers are collected and returned; with one the
    trial keeps no ledger once `sink` returns, and the returned list is
    empty.
    """
    ledgers: list[EpochLedger] = []
    if sink is None:
        sink = ledgers.append
    for (ledger,) in trial_epochs(config, seed, (protocol or config.protocol,), trace):
        sink(ledger)
    return ledgers


def replay_trace(
    trace: Sequence[TraceBlock] | str | Path,
    config: ScenarioConfig,
    seed: Optional[int] = None,
    protocol: Optional[str] = None,
) -> list[EpochLedger]:
    """Drive the epoch loop from a block trace instead of live strategies."""
    blocks = parse_trace(trace) if isinstance(trace, (str, Path)) else list(trace)
    return run_trial(config, seed if seed is not None else config.seed,
                     protocol=protocol, trace=blocks)


# ---------------------------------------------------------------------------
# Ledger replay (audit-trail invariant)
# ---------------------------------------------------------------------------

def replay_epoch(ledger: EpochLedger, config: ScenarioConfig) -> tuple[dict[str, float], tuple]:
    """Recompute an epoch's after-state from its recorded inputs.

    Applies the recorded verdicts and re-runs the trial's scoring, slash,
    weight and reward kernels. Must reproduce the recorded weights and
    payouts bit-exactly; anything else means the ledger or the pipeline drifted.
    """
    if ledger.protocol != "pob":
        raise ValueError("ledger replay is defined for the behavior-weighted protocol")
    roster = ledger.roster
    weights = list(ledger.roster_weights_before)
    scores = [0.0] * len(roster)
    for actor, b in zip(ledger.behavior_rows.actor, ledger.behaviors):
        scores[actor] += total_utility(b)
    if ledger.verdicts:
        for v in ledger.verdicts:
            if v.guilty:
                at = bisect_left(roster, v.subject)
                weights[at] = slash(weights[at], Penalty(v.penalty_kind, v.penalty_value))
        weights = normalize(weights)
    weights = ema_step(weights, scores, config.rho)
    split = split_pool(_reward_schedule(config), weights, scores, ledger.roster_activeness)
    return dict(zip(roster, weights)), split.records(roster)
