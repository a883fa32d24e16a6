"""Deterministic epoch-driven network simulation.

One trial = one seeded run of the full pipeline: proposer election,
behavior generation, latency-delayed block confirmation, misbehavior
review, weight update and reward distribution, with an append-only
ledger per epoch. The same loop can be driven from a block-trace file
(replay mode) and can host the stake-weighted baseline protocol for
paired comparisons.

Determinism contract: run_trial is a pure function of (config, seed,
protocol). All randomness flows through named substreams, every
iteration order is sorted, so re-runs are bit-identical.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import adversaries as adv
from .baseline_pos import (
    StakeTable,
    pareto_stakes,
    pos_apply_due_slashes,
    pos_schedule_slash,
    pos_select_proposer,
)
from .chain import Block, extend_chain, genesis_block
from .config import ScenarioConfig
from .errors import TraceError
from .rewards import Payout, RewardSchedule, distribute
from .rng import RngHub
from .scoring import (
    SINGLE_KIND_DIVERSITY,
    ActionKind,
    BehaviorRecord,
    MotivationProfile,
    activeness_blend,
    check_betas,
    diversity_index,
    looks_scripted,
    outcome_utility,
    total_utility,
)
from .watchdog import SuspicionReport, Verdict, process_epoch_suspicions
from .weights import WeightTable, select_proposer, update_weights


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

    def sampler(self, rng: random.Random) -> Callable[[], float]:
        """A draw function bound to `rng`, for drawing many delays.

        The distribution is dispatched once, here. Each draw is
        `rng.uniform(0, 2 * mean)` or `rng.expovariate(1 / mean)` (a fixed
        delay draws nothing), so the stream and its values are unchanged.
        """
        mean = self.mean_ms
        if self.distribution == "fixed":
            return lambda: mean
        if self.distribution == "uniform":
            return partial(rng.uniform, 0.0, 2.0 * mean)
        return partial(rng.expovariate, 1.0 / mean)


# ---------------------------------------------------------------------------
# Epoch ledger
# ---------------------------------------------------------------------------

@dataclass
class EpochLedger:
    """Append-only audit record of one epoch."""

    epoch: int
    protocol: str
    proposer: str
    behaviors: tuple[BehaviorRecord, ...]
    verdicts: tuple[Verdict, ...]
    payouts: tuple[Payout, ...]
    scores: dict[str, float]
    activeness: dict[str, float]
    weights_before: dict[str, float]
    weights_after: dict[str, float]
    confirmed: bool
    confirm_ms: Optional[float]
    latency_samples: tuple[float, ...]
    neutralized: tuple[str, ...] = ()
    events: tuple[dict, ...] = ()


# One canonical ledger writer. It writes what
# json.dumps(..., sort_keys=True, separators=(",", ":")) writes for the
# ledger's fields as plain dicts and lists, byte for byte, without building
# them: keys are fixed fragments in sorted order, a finite float is its
# repr, and anything else (None, bools, ints, NaN/Infinity, verdicts and
# free-form events) goes through one encoder with json.dumps's settings.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_encode = _ENCODER.encode
_string = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_VERDICT_FIELDS = tuple(f.name for f in dataclasses.fields(Verdict))


def _value(x) -> str:
    """A JSON scalar: repr for a finite float, the shared encoder otherwise."""
    cls = x.__class__
    if cls is float:
        s = _float_repr(x)
        if "n" not in s:  # "nan", "inf" and "-inf" are not JSON
            return s
    elif cls is int:
        return int.__repr__(x)
    return _encode(x)


def _floats(xs: Sequence) -> str:
    """A JSON array of numbers."""
    try:
        s = ",".join(map(_float_repr, xs))
    except TypeError:  # an int or a bool among the floats
        return _encode(list(xs))
    if "n" in s:
        return _encode(list(xs))
    return "[" + s + "]"


def _float_map(m: Mapping) -> str:
    """A JSON object of {id: number}, in sorted key order."""
    keys = sorted(m)
    try:
        values = list(map(_float_repr, map(m.__getitem__, keys)))
        names = list(map(_string, keys))
    except TypeError:
        return _encode(m)
    if "n" in "".join(values):
        return _encode(m)
    return "{" + ",".join(map(":".join, zip(names, values))) + "}"


def _motivation(m: MotivationProfile) -> str:
    return '{"intensities":' + _floats(m.intensities) + ',"weights":' + _floats(m.weights) + "}"


def _behaviors(behaviors: Sequence[BehaviorRecord]) -> str:
    motivations: dict[int, str] = {}  # id(profile) -> its JSON, once per ledger
    parts = []
    for b in behaviors:
        m = b.motivation
        motivation = motivations.get(id(m))
        if motivation is None:
            motivation = motivations[id(m)] = _motivation(m)
        parts.append(
            f'{{"actor":{_string(b.actor)}'
            f',"base_utility":{_value(b.base_utility)}'
            f',"context_factor":{_value(b.context_factor)}'
            f',"epoch":{_value(b.epoch)}'
            f',"initiative":{_value(b.initiative)}'
            f',"is_fraud_ground_truth":{_value(b.is_fraud_ground_truth)}'
            f',"kind":{_string(b.kind.value)}'
            f',"motivation":{motivation}}}'
        )
    return "[" + ",".join(parts) + "]"


def _payouts(payouts: Sequence[Payout]) -> str:
    return "[" + ",".join([
        f'{{"activeness_multiplier":{_value(p.activeness_multiplier)}'
        f',"base":{_value(p.base)}'
        f',"bonus":{_value(p.bonus)}'
        f',"total":{_value(p.total)}'
        f',"validator":{_string(p.validator)}}}'
        for p in payouts
    ]) + "]"


def _verdicts(verdicts: Sequence[Verdict]) -> str:
    return _encode([{f: getattr(v, f) for f in _VERDICT_FIELDS} for v in verdicts])


def ledger_to_json(ledger: EpochLedger) -> str:
    """Canonical serialization: sorted keys, shortest round-trip floats."""
    return (
        f'{{"activeness":{_float_map(ledger.activeness)}'
        f',"behaviors":{_behaviors(ledger.behaviors)}'
        f',"confirm_ms":{_value(ledger.confirm_ms)}'
        f',"confirmed":{_value(ledger.confirmed)}'
        f',"epoch":{_value(ledger.epoch)}'
        f',"events":{_encode(list(ledger.events))}'
        f',"latency_samples":{_floats(ledger.latency_samples)}'
        f',"neutralized":{_encode(list(ledger.neutralized))}'
        f',"payouts":{_payouts(ledger.payouts)}'
        f',"proposer":{_string(ledger.proposer)}'
        f',"protocol":{_string(ledger.protocol)}'
        f',"scores":{_float_map(ledger.scores)}'
        f',"verdicts":{_verdicts(ledger.verdicts)}'
        f',"weights_after":{_float_map(ledger.weights_after)}'
        f',"weights_before":{_float_map(ledger.weights_before)}}}'
    )


# ---------------------------------------------------------------------------
# Block confirmation
# ---------------------------------------------------------------------------

def simulate_confirmation(
    alive: Sequence[str],
    weight_of: Mapping[str, float],
    quorum: Fraction,
    latency: LatencyModel,
    rng_proposal: random.Random,
    rng_vote: random.Random,
    processing_ms: float,
) -> tuple[bool, Optional[float], list[float]]:
    """Run the proposal+vote pipeline on the simulated clock.

    The proposal reaches validator i after one message delay; its vote
    arrives one more delay later. Each stage adds a fixed processing
    cost. Votes are counted in arrival order, ties in `alive` order, and
    the block confirms the instant the accumulated yes-weight reaches
    `quorum` times the total weight. Everyone votes yes here; dissent is
    modeled at the behavior level, not the transport level.
    """
    if not 0 < quorum <= 1:
        raise ValueError(f"quorum {quorum} outside (0, 1]")
    sample_proposal = latency.sampler(rng_proposal)
    sample_vote = latency.sampler(rng_vote)
    samples: list[float] = []
    arrivals: list[float] = []
    for _ in alive:
        d_prop = sample_proposal()
        d_vote = sample_vote()
        samples.append(d_prop)
        samples.append(d_vote)
        arrivals.append(processing_ms + d_prop + processing_ms + d_vote)
    weights = [weight_of[v] for v in alive]
    total = sum(weights)
    # Float comparison outside a slack band around the target; inside it
    # an exact rational check, so a vote landing exactly on the quorum
    # cannot flip on rounding.
    target = float(quorum) * total
    slack = 1e-12 * max(1.0, abs(total))
    above, below = target + slack, target - slack
    acc = 0.0
    for i in sorted(range(len(arrivals)), key=arrivals.__getitem__):
        acc += weights[i]
        if acc > above or (acc >= below and Fraction(acc) >= quorum * Fraction(total)):
            return True, arrivals[i], samples
    return False, None, samples


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
        blocks.append(TraceBlock(height, proposer, kind, base_utility, phi, alpha, is_exploit))
    return blocks


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------

def _build_motivations(config: ScenarioConfig) -> dict[ActionKind, MotivationProfile]:
    weights = tuple(config.motivation_weights)
    return {
        kind: MotivationProfile(tuple(config.motivation_intensities[kind.value]), weights)
        for kind in ActionKind
    }


def _make_strategy(spec: adv.StrategySpec, coalitions: dict[str, object],
                   member_ids: Sequence[str]) -> adv.Strategy:
    p = spec.params
    if spec.kind == "honest":
        return adv.HonestStrategy()
    if spec.kind in ("stealth", "long-range-fork"):
        return adv.StealthStrategy(
            fraud_rate=p.get("fraud_rate", 0.05),
            fraud_value=p.get("fraud_value", 50.0),
        )
    if spec.kind == "sybil-burst":
        key = "sybil-burst"
        if key not in coalitions:
            coalitions[key] = adv.SybilCoalition(
                members=member_ids,
                burst_epoch=int(p.get("burst_epoch", 50)),
                fraud_value=p.get("fraud_value", 50.0),
                burst_every=int(p["burst_every"]) if "burst_every" in p else None,
            )
        return adv.SybilBurstStrategy(coalitions[key])
    if spec.kind == "adaptive-sybil":
        controller: adv.AdaptiveSybilController = coalitions["adaptive-controller"]
        return adv.AdaptiveSybilStrategy(
            controller.coalition_members, fraud_value=p.get("fraud_value", 1.0)
        )
    if spec.kind == "griefing":
        return adv.GriefingStrategy(
            empty_block_run=int(p.get("empty_block_run", 10)),
            utility_epsilon=p.get("utility_epsilon", 0.01),
            low_initiative=p.get("low_initiative", 0.1),
        )
    raise ValueError(f"unknown strategy kind {spec.kind!r}")


@dataclass
class _TrialState:
    config: ScenarioConfig
    hub: RngHub
    validators: dict[str, adv.ValidatorState]
    table: WeightTable
    shape: adv.HonestShape
    latency: LatencyModel
    schedule: RewardSchedule
    offense_counts: dict[str, int] = field(default_factory=dict)
    # One behavior context per validator, created when it first acts.
    contexts: dict[str, adv.EpochContext] = field(default_factory=dict)
    sybil_controller: Optional[adv.AdaptiveSybilController] = None
    fork_cfg: Optional[dict] = None
    pending_events: list[dict] = field(default_factory=list)
    # The sorted ids alive this epoch and the signer set their blocks
    # share. Rebuilt only when a validator joins or retires.
    alive: list[str] = field(default_factory=list)
    signers: frozenset[str] = frozenset()
    # join epoch -> ids that join then; every key is > 0
    joins: dict[int, list[str]] = field(default_factory=dict)


def _start_trial(config: ScenarioConfig, seed: int,
                 protocol: str) -> tuple[_TrialState, _PobRules | _PosRules]:
    """The trial's state and its protocol's rules."""
    hub = RngHub(seed)
    ids = config.validator_ids()
    # One stake draw for both protocols, so paired runs start from the same shape: the
    # baseline's stake table and, under `genesis_weights: stake`, the genesis weights.
    if config.stake_distribution == "pareto":
        stakes = pareto_stakes(ids, hub.stream("stake"), config.stake_alpha, config.stake_xmin)
    else:
        stakes = {vid: 1.0 for vid in ids}
    state = _setup_trial(config, hub, ids, stakes)
    return state, (_PobRules if protocol == "pob" else _PosRules)(state, stakes)


def _setup_trial(config: ScenarioConfig, hub: RngHub, ids: list[str],
                 stakes: Mapping[str, float]) -> _TrialState:
    shape = adv.HonestShape(
        base_utility_lo=config.honest_utility_lo,
        base_utility_hi=config.honest_utility_hi,
        initiative_lo=config.honest_initiative_lo,
        initiative_hi=config.honest_initiative_hi,
        oracle_rate=config.oracle_rate,
        motivations=_build_motivations(config),
    )

    # Roster: per-index strategy specs, honest by default.
    specs: dict[str, adv.StrategySpec] = {vid: adv.StrategySpec("honest") for vid in ids}
    spec_members: dict[int, list[str]] = {}
    for entry_idx, entry in enumerate(config.roster):
        for i in range(entry.lo, entry.hi):
            specs[ids[i]] = entry.spec
            spec_members.setdefault(entry_idx, []).append(ids[i])

    coalitions: dict[str, object] = {}
    sybil_controller = None
    fork_cfg = None
    for entry_idx, entry in enumerate(config.roster):
        members = spec_members.get(entry_idx, [])
        if entry.spec.kind == "adaptive-sybil" and sybil_controller is None:
            p = entry.spec.params
            sybil_controller = adv.AdaptiveSybilController(
                spawn_rate=p.get("spawn_rate", 0.1),
                join_weight=p.get("join_weight", 0.0),
                fraud_value=p.get("fraud_value", 1.0),
                max_population=int(p.get("max_population", 2 * config.n_validators)),
            )
            sybil_controller.register(members)
            coalitions["adaptive-controller"] = sybil_controller
        if entry.spec.kind == "long-range-fork":
            if fork_cfg is None:
                fork_cfg = {
                    "compromised": [],
                    "fork_depth": int(entry.spec.params.get("fork_depth", 100)),
                }
            fork_cfg["compromised"] = sorted(set(fork_cfg["compromised"]) | set(members))

    members_of: dict[int, list[str]] = {}
    for vid in ids:
        members_of.setdefault(id(specs[vid]), []).append(vid)
    validators: dict[str, adv.ValidatorState] = {}
    for vid in ids:
        spec = specs[vid]
        strategy = _make_strategy(spec, coalitions, members_of[id(spec)])
        validators[vid] = adv.ValidatorState(vid=vid, strategy=strategy, role=spec.kind)

    if config.genesis_weights == "stake":
        total = sum(stakes[v] for v in ids)
        entries = {v: stakes[v] / total for v in ids}
    else:
        entries = {v: 1.0 / len(ids) for v in ids}

    if config.newcomer_epoch is not None:
        vid = "newcomer"
        validators[vid] = adv.ValidatorState(
            vid=vid,
            strategy=adv.HonestStrategy(),
            role="honest",
            join_epoch=config.newcomer_epoch,
        )

    state = _TrialState(
        config=config,
        hub=hub,
        validators=validators,
        table=WeightTable(entries, epoch=0),
        shape=shape,
        latency=LatencyModel(config.latency_distribution, config.latency_mean_ms),
        schedule=_reward_schedule(config),
        sybil_controller=sybil_controller,
        fork_cfg=fork_cfg,
    )
    for vid, vs in validators.items():
        if vs.join_epoch > 0:
            state.joins.setdefault(vs.join_epoch, []).append(vid)
    _set_roster(state, sorted(v for v, vs in validators.items() if vs.join_epoch <= 0))
    return state


def _reward_schedule(config: ScenarioConfig) -> RewardSchedule:
    return RewardSchedule(config.r_total, config.resolved_r_base(),
                          config.activity_threshold, config.epsilon)


def _set_roster(state: _TrialState, alive: list[str]) -> None:
    state.alive = alive
    state.signers = frozenset(alive)


# ---------------------------------------------------------------------------
# Epoch stages shared by both protocols
# ---------------------------------------------------------------------------

def _apply_joins(state: _TrialState, rules: _PobRules | _PosRules, epoch: int,
                 events: list[dict]) -> None:
    """Admit the validators whose join epoch is `epoch`, then rebuild the roster.

    Every joiner is a fresh id (the newcomer or a respawned Sybil), so
    none is in the weight or stake table yet.
    """
    joining = state.joins.pop(epoch, None)
    if not joining:
        return
    for vid in sorted(joining):
        rules.admit(state, vid)
        events.append({"kind": "join", "id": vid, "role": state.validators[vid].role,
                       "epoch": epoch})
    _set_roster(state, sorted(state.alive + joining))


def _elect(state: _TrialState, rules: _PobRules | _PosRules, epoch: int,
           trace: Optional[Sequence[TraceBlock]], rng: random.Random) -> str:
    """The trace's proposer, else an override's, else the protocol's lottery."""
    if trace is not None:
        return trace[epoch].proposer
    override = state.config.proposer_override
    if override is not None and override[1] <= epoch < override[2]:
        return override[0]
    return rules.elect(state, rng)


def _behave(state: _TrialState, epoch: int, proposer: str,
            trace: Optional[Sequence[TraceBlock]]) -> tuple[BehaviorRecord, ...]:
    """Every alive validator's records for the epoch, in roster order.

    Under a trace the proposer's action is the trace block's; the rest of
    the network still validates every block, so scores stay live.
    """
    behaviors: list[BehaviorRecord] = []
    actors = state.alive
    if trace is not None:
        tb = trace[epoch]
        motivation_kind = ActionKind.FRAUD if tb.is_exploit else tb.kind
        behaviors.append(BehaviorRecord(
            actor=tb.proposer,
            epoch=epoch,
            kind=tb.kind,
            base_utility=tb.base_utility,
            context_factor=tb.phi,
            initiative=tb.alpha,
            motivation=state.shape.motivation_for(motivation_kind),
            is_fraud_ground_truth=tb.is_exploit,
        ))
        actors = [v for v in actors if v != tb.proposer]
    contexts = state.contexts
    for vid in actors:
        ctx = contexts.get(vid)
        if ctx is None:
            ctx = contexts[vid] = adv.EpochContext(
                epoch=epoch,
                vid=vid,
                is_proposer=False,
                rng_behavior=state.hub.stream(f"behavior/{vid}"),
                rng_adversary=state.hub.stream(f"adversary/{vid}"),
                shape=state.shape,
            )
        ctx.epoch = epoch
        ctx.is_proposer = vid == proposer
        behaviors.extend(state.validators[vid].strategy.behaviors(ctx))
    return tuple(behaviors)


@dataclass
class _EpochFacts:
    """What the rest of an epoch reads about its behavior records.

    Built in one pass over the records, so each record's utility and
    each actor's activeness inputs are computed once.
    """

    scores: dict[str, float]  # alive id -> summed utility of its records
    utility: float  # summed utility of every record, in record order
    harmful: list[int]  # indices of records with a negative outcome
    first_index: dict[str, int]  # actor -> index of its first record
    # actor -> (action count / network mean, mean initiative, diversity),
    # for actors with records, in alive order
    participation: dict[str, tuple[float, float, float]]
    activeness: dict[str, float]  # alive id -> activeness


def _epoch_facts(behaviors: Sequence[BehaviorRecord], alive: list[str],
                 betas: tuple[float, float, float]) -> _EpochFacts:
    scores = dict.fromkeys(alive, 0.0)
    utilities: list[float] = []
    harmful: list[int] = []
    first_index: dict[str, int] = {}
    # actor -> indices of its records, only for actors with more than one
    repeats: dict[str, list[int]] = {}
    for index, b in enumerate(behaviors):
        outcome = outcome_utility(b)
        u = b.motivation.utility + outcome  # total_utility(b)
        utilities.append(u)
        actor = b.actor
        scores[actor] += u
        if outcome < 0.0:
            harmful.append(index)
        first = first_index.setdefault(actor, index)
        if first != index:
            indices = repeats.get(actor)
            if indices is None:
                repeats[actor] = [first, index]
            else:
                indices.append(index)

    participation: dict[str, tuple[float, float, float]] = {}
    if not behaviors or not alive:
        act_map = dict.fromkeys(alive, 0.0)
    else:
        mean_actions = len(behaviors) / len(alive)
        one_record = 1 / mean_actions
        idle = activeness_blend(0.0, 0.0, 0.0, betas)
        act_map = {}
        for vid in alive:
            first = first_index.get(vid)
            if first is None:
                act_map[vid] = idle
                continue
            indices = repeats.get(vid)
            if indices is None:
                b = behaviors[first]
                inputs = (one_record, b.initiative, SINGLE_KIND_DIVERSITY[b.kind])
            else:
                n = len(indices)
                inputs = (n / mean_actions,
                          sum([behaviors[i].initiative for i in indices]) / n,
                          diversity_index([behaviors[i].kind for i in indices]))
            participation[vid] = inputs
            act_map[vid] = activeness_blend(*inputs, betas)
    return _EpochFacts(scores, sum(utilities), harmful, first_index, participation, act_map)


def _build_reports(state: _TrialState, epoch: int, alive: list[str],
                   behaviors: Sequence[BehaviorRecord],
                   facts: _EpochFacts) -> list[SuspicionReport]:
    """Suspicion channel: harmful outcomes plus anomalous activity patterns."""
    config = state.config
    reports: list[SuspicionReport] = []
    observe_rng = state.hub.stream("observe") if config.observe_prob < 1.0 else None

    def add_reports(behavior: BehaviorRecord, index: int) -> None:
        observers = [v for v in alive if v != behavior.actor]
        if observe_rng is None:
            if observers:
                # All honest observers report; one record carries the count.
                reports.append(
                    SuspicionReport(behavior.actor, behavior, index, epoch, observers[0])
                )
        else:
            for obs in observers:
                if observe_rng.random() < config.observe_prob:
                    reports.append(
                        SuspicionReport(behavior.actor, behavior, index, epoch, obs)
                    )

    for index in facts.harmful:
        add_reports(behaviors[index], index)
    for vid, participation in facts.participation.items():
        if looks_scripted(*participation, config.anomaly_freq_threshold,
                          config.anomaly_quality_threshold):
            idx = facts.first_index[vid]
            if outcome_utility(behaviors[idx]) >= 0.0:
                add_reports(behaviors[idx], idx)
    return reports


def _retire_convicted(state: _TrialState, verdicts: Sequence[Verdict], epoch: int) -> None:
    """Retire the adaptive Sybils convicted this epoch and queue their respawns."""
    controller = state.sybil_controller
    if controller is None:
        return
    convicted = sorted(
        {v.subject for v in verdicts if v.guilty and v.subject in controller.coalition_members}
    )
    if not convicted:
        return
    for vid in convicted:
        state.validators[vid].retired_epoch = epoch
        state.contexts.pop(vid, None)
        state.table = state.table.without([vid])
        state.pending_events.append({"kind": "retire", "id": vid, "epoch": epoch})
    state.table = state.table.normalized()
    retired = set(convicted)
    _set_roster(state, [v for v in state.alive if v not in retired])
    population = len(state.alive) + len(state.joins.get(epoch + 1, ()))
    fresh, cap_events = controller.replacements(epoch, population, convicted)
    state.pending_events.extend(cap_events)
    for vid in fresh:
        strategy = adv.AdaptiveSybilStrategy(controller.coalition_members, controller.fraud_value)
        state.validators[vid] = adv.ValidatorState(
            vid=vid, strategy=strategy, role="adaptive-sybil", join_epoch=epoch + 1)
        state.joins.setdefault(epoch + 1, []).append(vid)


# ---------------------------------------------------------------------------
# Protocol rules: the one place the two protocols differ
# ---------------------------------------------------------------------------
#
# A trial chooses one rules object and keeps it as a local of run_trial.
# The rules hold only what their protocol uses and never point back at the
# trial state, so a finished trial leaves no reference cycle to collect.
# They call the protocol operations through this module's globals, where a
# tracer can wrap them by name.

class _PobRules:
    """Behavior weighting: reports, committee verdicts and the weight update."""

    protocol = "pob"

    def __init__(self, state: _TrialState, stakes: Mapping[str, float]):
        self.committee_rng = state.hub.stream("committee")
        self.watchdog_rng = state.hub.stream("latency/watchdog")

    def land_slashes(self, epoch: int, events: list[dict]) -> tuple[str, ...]:
        return ()

    def weights(self, state: _TrialState) -> dict[str, float]:
        entries = state.table.entries
        return {v: entries[v] for v in state.alive}

    def elect(self, state: _TrialState, rng: random.Random) -> str:
        return select_proposer(state.table, state.alive, state.config.delta, rng)

    def review(self, state: _TrialState, epoch: int, behaviors: Sequence[BehaviorRecord],
               facts: _EpochFacts, confirm_ms: Optional[float],
               ) -> tuple[Optional[float], tuple[Verdict, ...]]:
        """Suspicion reports, the watchdog's delay on `confirm_ms`, and verdicts."""
        config = state.config
        alive = state.alive
        reports = _build_reports(state, epoch, alive, behaviors, facts)
        committee_size = min(config.resolved_committee_size(), len(alive) - 1)
        if confirm_ms is not None:
            confirm_ms += config.processing_ms  # behavior-scoring stage
            if reports:
                sample_delay = state.latency.sampler(self.watchdog_rng)
                delays = [sample_delay() for _ in range(committee_size)]
                confirm_ms += config.processing_ms + (max(delays) if delays else 0.0)
        if not reports:
            return confirm_ms, ()

        def vote_fn(member: str, behavior: BehaviorRecord, _rng: random.Random):
            return state.validators[member].strategy.committee_vote(behavior.actor, behavior)

        table, verdicts = process_epoch_suspicions(
            reports, state.table, config.penalty_policy(), config.theta, committee_size,
            self.committee_rng, detection_accuracy=config.detection_accuracy,
            vote_fn=vote_fn, offense_counts=state.offense_counts, eligible=alive)
        state.table = table.normalized()
        return confirm_ms, tuple(verdicts)

    def settle(self, state: _TrialState, epoch: int,
               scores: Mapping[str, float]) -> tuple[dict[str, float], WeightTable]:
        """The weight update; rewards follow the updated table."""
        state.table = update_weights(state.table, scores, state.config.rho)
        return self.weights(state), state.table

    def admit(self, state: _TrialState, vid: str) -> None:
        controller = state.sybil_controller
        join_weight = 0.0
        if controller is not None and vid in controller.coalition_members:
            join_weight = controller.join_weight
        state.table = state.table.with_entry(vid, join_weight)
        if join_weight > 0.0:
            state.table = state.table.normalized()

    def fork(self, state: _TrialState, chain: Sequence[Block]) -> Optional[dict]:
        """The long-range fork attempt at trial end, if the roster has one."""
        if state.fork_cfg is None or len(chain) <= 1:
            return None
        outcome = adv.long_range_fork_outcome(
            chain, state.table, state.fork_cfg["compromised"],
            min(state.fork_cfg["fork_depth"], len(chain) - 1),
            claimed_utility_boost=abs(chain[-1].cumulative_utility) + 1000.0)
        outcome["kind"] = "fork-outcome"
        return outcome


class _PosRules:
    """The stake-weighted baseline: static stakes and a delayed slash."""

    protocol = "pos"

    def __init__(self, state: _TrialState, stakes: dict[str, float]):
        config = state.config
        self.stakes = StakeTable(stakes, config.pos_slash_delay, config.pos_slash_fraction)
        self.detect_rng = state.hub.stream("pos-detection")

    def land_slashes(self, epoch: int, events: list[dict]) -> tuple[str, ...]:
        """Land the slashes due by `epoch`; returns every slashed id so far."""
        for vid in pos_apply_due_slashes(self.stakes, epoch):
            events.append({"kind": "pos-slash", "id": vid, "epoch": epoch})
        return tuple(sorted(self.stakes.slashed))

    def weights(self, state: _TrialState) -> dict[str, float]:
        stakes = self.stakes.stakes
        return {v: stakes[v] for v in state.alive}

    def elect(self, state: _TrialState, rng: random.Random) -> str:
        return pos_select_proposer(self.stakes, rng, state.alive)

    def review(self, state: _TrialState, epoch: int, behaviors: Sequence[BehaviorRecord],
               facts: _EpochFacts, confirm_ms: Optional[float],
               ) -> tuple[Optional[float], tuple[Verdict, ...]]:
        """The delayed-slash coin: each harmful record is detected at the configured rate."""
        accuracy = state.config.detection_accuracy
        for index in facts.harmful:
            if self.detect_rng.random() < accuracy:
                pos_schedule_slash(self.stakes, behaviors[index].actor, epoch)
        return confirm_ms, ()

    def settle(self, state: _TrialState, epoch: int,
               scores: Mapping[str, float]) -> tuple[dict[str, float], WeightTable]:
        """Stakes do not move; rewards follow them."""
        weights_after = self.weights(state)
        return weights_after, WeightTable(dict(weights_after), epoch)

    def admit(self, state: _TrialState, vid: str) -> None:
        self.stakes.stakes[vid] = state.config.stake_xmin

    def fork(self, state: _TrialState, chain: Sequence[Block]) -> Optional[dict]:
        return None


def run_trial(
    config: ScenarioConfig,
    seed: int,
    protocol: Optional[str] = None,
    trace: Optional[Sequence[TraceBlock]] = None,
    sink: Optional[Callable[[EpochLedger], None]] = None,
) -> list[EpochLedger]:
    """Execute one seeded trial, handing each finished ledger to `sink`.

    Without a sink the ledgers are collected and returned; with one the
    trial keeps no ledger once `sink` returns, so its memory stays flat
    in the epoch count, and the returned list is empty.
    """
    protocol = protocol or config.protocol
    if protocol not in ("pob", "pos"):
        raise ValueError(
            f"run_trial needs a concrete protocol, got {protocol!r} "
            "(resolve 'paired' at the experiment layer)"
        )
    state, rules = _start_trial(config, seed, protocol)
    config.validate_runtime()
    # Checked once per trial rather than on every per-epoch use.
    check_betas(config.betas)
    if not 0.0 <= config.delta <= 1.0:
        raise ValueError(f"delta {config.delta} outside [0, 1]")

    epochs = len(trace) if trace is not None else config.epochs
    if trace is not None:
        known = set(state.validators)
        for tb in trace:
            if tb.proposer not in known:
                raise TraceError(
                    tb.height + 1,
                    f"proposer {tb.proposer!r} (block height {tb.height}) "
                    "not in the configured validator set",
                )

    ledgers: list[EpochLedger] = []
    if sink is None:
        sink = ledgers.append
    # Each ledger goes to the sink once the next epoch starts; the last
    # one waits for the trial-end fork outcome.
    finished: Optional[EpochLedger] = None
    chain = [genesis_block()]
    sim_time = 0.0
    election_rng = state.hub.stream("election")
    rng_lat_prop = state.hub.stream("latency/proposal")
    rng_lat_vote = state.hub.stream("latency/vote")

    for epoch in range(epochs):
        if finished is not None:
            sink(finished)
        events, state.pending_events = state.pending_events, []
        _apply_joins(state, rules, epoch, events)
        neutralized = rules.land_slashes(epoch, events)
        alive = state.alive
        weights_before = rules.weights(state)
        proposer = _elect(state, rules, epoch, trace, election_rng)
        behaviors = _behave(state, epoch, proposer, trace)
        facts = _epoch_facts(behaviors, alive, config.betas)
        confirmed, confirm_ms, samples = simulate_confirmation(
            alive, weights_before, config.quorum, state.latency,
            rng_lat_prop, rng_lat_vote, config.processing_ms,
        )
        confirm_ms, verdicts = rules.review(state, epoch, behaviors, facts, confirm_ms)
        sim_time += confirm_ms if confirm_ms is not None else 0.0
        weights_after, reward_table = rules.settle(state, epoch, facts.scores)
        payouts = tuple(distribute(state.schedule, reward_table, facts.scores, facts.activeness))
        if confirmed:
            chain.append(extend_chain(chain[-1], proposer, facts.utility, sim_time,
                                      state.signers, reward_table, roster=alive))
        finished = EpochLedger(
            epoch=epoch, protocol=rules.protocol, proposer=proposer, behaviors=behaviors,
            verdicts=verdicts, payouts=payouts, scores=facts.scores, activeness=facts.activeness,
            weights_before=weights_before, weights_after=weights_after, confirmed=confirmed,
            confirm_ms=confirm_ms, latency_samples=tuple(samples), neutralized=neutralized,
            events=tuple(events),
        )
        _retire_convicted(state, verdicts, epoch)

    outcome = rules.fork(state, chain)
    if outcome is not None:
        finished = dataclasses.replace(finished, events=finished.events + (outcome,))
    if finished is not None:
        sink(finished)
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

    Applies the recorded verdicts and re-runs the pure scoring, weight and
    reward operations. Must reproduce the recorded weights and payouts
    bit-exactly; anything else means the ledger or the pipeline drifted.
    """
    if ledger.protocol != "pob":
        raise ValueError("ledger replay is defined for the behavior-weighted protocol")
    from .watchdog import Penalty, apply_penalty

    table = WeightTable(dict(ledger.weights_before), ledger.epoch)
    alive = sorted(ledger.weights_before)
    scores = {v: 0.0 for v in alive}
    for b in ledger.behaviors:
        scores[b.actor] += total_utility(b)
    if ledger.verdicts:
        for v in ledger.verdicts:
            if v.guilty:
                table = apply_penalty(table, v.subject, Penalty(v.penalty_kind, v.penalty_value))
        table = table.normalized()
    table = update_weights(table, scores, config.rho)
    payouts = tuple(distribute(_reward_schedule(config), table, scores, ledger.activeness))
    return dict(table.entries), payouts
