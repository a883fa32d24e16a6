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
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from . import adversaries as adv
from .baseline_pos import (
    StakeTable,
    pareto_stakes,
    pos_apply_due_slashes,
    pos_schedule_slash,
    pos_select_proposer,
)
from .chain import extend_chain, genesis_block
from .config import ScenarioConfig
from .errors import TraceError
from .rewards import Payout, RewardSchedule, distribute
from .rng import RngHub
from .scoring import (
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

    def sample(self, rng: random.Random) -> float:
        if self.distribution == "fixed":
            return self.mean_ms
        if self.distribution == "uniform":
            return rng.uniform(0.0, 2.0 * self.mean_ms)
        return rng.expovariate(1.0 / self.mean_ms)


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


def _behavior_to_dict(b: BehaviorRecord) -> dict:
    return {
        "actor": b.actor,
        "epoch": b.epoch,
        "kind": b.kind.value,
        "base_utility": b.base_utility,
        "context_factor": b.context_factor,
        "initiative": b.initiative,
        "motivation": {
            "intensities": list(b.motivation.intensities),
            "weights": list(b.motivation.weights),
        },
        "is_fraud_ground_truth": b.is_fraud_ground_truth,
    }


def ledger_to_dict(ledger: EpochLedger) -> dict:
    return {
        "epoch": ledger.epoch,
        "protocol": ledger.protocol,
        "proposer": ledger.proposer,
        "behaviors": [_behavior_to_dict(b) for b in ledger.behaviors],
        "verdicts": [dataclasses.asdict(v) for v in ledger.verdicts],
        "payouts": [dataclasses.asdict(p) for p in ledger.payouts],
        "scores": ledger.scores,
        "activeness": ledger.activeness,
        "weights_before": ledger.weights_before,
        "weights_after": ledger.weights_after,
        "confirmed": ledger.confirmed,
        "confirm_ms": ledger.confirm_ms,
        "latency_samples": list(ledger.latency_samples),
        "neutralized": list(ledger.neutralized),
        "events": list(ledger.events),
    }


def ledger_to_json(ledger: EpochLedger) -> str:
    """Canonical serialization: sorted keys, shortest round-trip floats."""
    return json.dumps(ledger_to_dict(ledger), sort_keys=True, separators=(",", ":"))


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
    samples: list[float] = []
    arrivals: list[float] = []
    for _ in alive:
        d_prop = latency.sample(rng_proposal)
        d_vote = latency.sample(rng_vote)
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


def write_trace(path: str | Path, blocks: Sequence[TraceBlock], header: str = "") -> None:
    out = []
    if header:
        out.extend(f"# {line}" for line in header.splitlines())
    for b in blocks:
        out.append(
            f"{b.height},{b.proposer},{b.kind.value},{b.base_utility!r},"
            f"{b.phi!r},{b.alpha!r},{int(b.is_exploit)}"
        )
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def make_synthetic_trace(
    n_blocks: int,
    n_validators: int,
    exploit_at: Optional[int],
    exploit_value: float,
    seed: int,
) -> list[TraceBlock]:
    """Generate an honest trace with one optional exploit block."""
    rng = random.Random(seed)
    ids = [f"v{i:04d}" for i in range(n_validators)]
    blocks = []
    for h in range(n_blocks):
        proposer = ids[h % n_validators]
        if exploit_at is not None and h == exploit_at:
            blocks.append(
                TraceBlock(h, proposer, ActionKind.FRAUD, -abs(exploit_value), 1.0, 1.0, True)
            )
            continue
        u_b = round(rng.uniform(0.5, 1.5), 6)
        alpha = round(rng.uniform(0.6, 1.0), 6)
        blocks.append(TraceBlock(h, proposer, ActionKind.PROPOSE, u_b, 1.0, alpha, False))
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
    protocol: str
    hub: RngHub
    validators: dict[str, adv.ValidatorState]
    table: WeightTable
    stakes: Optional[StakeTable]
    shape: adv.HonestShape
    latency: LatencyModel
    schedule: RewardSchedule
    offense_counts: dict[str, int] = field(default_factory=dict)
    # One behavior context per validator, created when it first acts.
    contexts: dict[str, adv.EpochContext] = field(default_factory=dict)
    sybil_controller: Optional[adv.AdaptiveSybilController] = None
    fork_cfg: Optional[dict] = None
    pending_events: list[dict] = field(default_factory=list)


def _setup_trial(config: ScenarioConfig, seed: int, protocol: str) -> _TrialState:
    hub = RngHub(seed)
    ids = [f"v{i:04d}" for i in range(config.n_validators)]
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

    # Stakes: drawn once, shared by the PoS ladder and (optionally) the
    # genesis weight distribution so paired runs start from the same shape.
    stake_rng = hub.stream("stake")
    if config.stake_distribution == "pareto":
        stake_map = pareto_stakes(ids, stake_rng, config.stake_alpha, config.stake_xmin)
    else:
        stake_map = {vid: 1.0 for vid in ids}

    if config.genesis_weights == "stake":
        total = sum(stake_map[v] for v in ids)
        entries = {v: stake_map[v] / total for v in ids}
    else:
        entries = {v: 1.0 / len(ids) for v in ids}
    table = WeightTable(entries, epoch=0)

    stakes = None
    if protocol == "pos":
        stakes = StakeTable(
            stakes=dict(stake_map),
            slash_delay_blocks=config.pos_slash_delay,
            slash_fraction=config.pos_slash_fraction,
        )

    if config.newcomer_epoch is not None:
        vid = "newcomer"
        validators[vid] = adv.ValidatorState(
            vid=vid,
            strategy=adv.HonestStrategy(),
            role="honest",
            join_epoch=config.newcomer_epoch,
        )

    return _TrialState(
        config=config,
        protocol=protocol,
        hub=hub,
        validators=validators,
        table=table,
        stakes=stakes,
        shape=shape,
        latency=LatencyModel(config.latency_distribution, config.latency_mean_ms),
        schedule=RewardSchedule(
            total_reward=config.r_total,
            base_reward=config.resolved_r_base(),
            activity_threshold=config.activity_threshold,
            activeness_epsilon=config.epsilon,
        ),
        sybil_controller=sybil_controller,
        fork_cfg=fork_cfg,
    )


def _alive_ids(state: _TrialState, epoch: int) -> list[str]:
    return sorted(v for v, vs in state.validators.items() if vs.alive(epoch))


def _apply_joins(state: _TrialState, epoch: int) -> list[dict]:
    events = []
    for vid in sorted(state.validators):
        vs = state.validators[vid]
        if vs.join_epoch == epoch and epoch > 0 and vid not in state.table.entries:
            join_weight = 0.0
            if state.sybil_controller is not None and vid in state.sybil_controller.coalition_members:
                join_weight = state.sybil_controller.join_weight
            state.table = state.table.with_entry(vid, join_weight)
            if join_weight > 0.0:
                state.table = state.table.normalized()
            if state.stakes is not None:
                state.stakes.stakes[vid] = state.config.stake_xmin
            events.append({"kind": "join", "id": vid, "role": vs.role, "epoch": epoch})
    return events


def _generate_behaviors(state: _TrialState, epoch: int, alive: list[str],
                        proposer: str) -> list[BehaviorRecord]:
    behaviors: list[BehaviorRecord] = []
    contexts = state.contexts
    for vid in alive:
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
    return behaviors


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
    # actor -> (initiatives, kinds) of its records
    tallies: dict[str, tuple[list[float], list[ActionKind]]] = {}
    for index, b in enumerate(behaviors):
        u = total_utility(b)
        utilities.append(u)
        scores[b.actor] += u
        if outcome_utility(b) < 0.0:
            harmful.append(index)
        tally = tallies.get(b.actor)
        if tally is None:
            first_index[b.actor] = index
            tallies[b.actor] = ([b.initiative], [b.kind])
        else:
            tally[0].append(b.initiative)
            tally[1].append(b.kind)

    participation: dict[str, tuple[float, float, float]] = {}
    if not behaviors or not alive:
        act_map = dict.fromkeys(alive, 0.0)
    else:
        mean_actions = len(behaviors) / len(alive)
        act_map = {}
        for vid in alive:
            tally = tallies.get(vid)
            if tally is None:
                act_map[vid] = activeness_blend(0.0, 0.0, 0.0, betas)
                continue
            initiatives, kinds = tally
            n = len(kinds)
            participation[vid] = (n / mean_actions, sum(initiatives) / n, diversity_index(kinds))
            act_map[vid] = activeness_blend(*participation[vid], betas)
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


def run_trial(
    config: ScenarioConfig,
    seed: int,
    protocol: Optional[str] = None,
    trace: Optional[Sequence[TraceBlock]] = None,
) -> list[EpochLedger]:
    """Execute one seeded trial and return its per-epoch ledgers."""
    protocol = protocol or config.protocol
    if protocol not in ("pob", "pos"):
        raise ValueError(
            f"run_trial needs a concrete protocol, got {protocol!r} "
            "(resolve 'paired' at the experiment layer)"
        )
    state = _setup_trial(config, seed, protocol)
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
    chain = [genesis_block()]
    sim_time = 0.0
    election_rng = state.hub.stream("election")
    committee_rng = state.hub.stream("committee")
    rng_lat_prop = state.hub.stream("latency/proposal")
    rng_lat_vote = state.hub.stream("latency/vote")
    rng_lat_watchdog = state.hub.stream("latency/watchdog")
    pos_detect_rng = state.hub.stream("pos-detection")

    for epoch in range(epochs):
        events: list[dict] = list(state.pending_events)
        state.pending_events = []
        events.extend(_apply_joins(state, epoch))
        alive = _alive_ids(state, epoch)

        neutralized: tuple[str, ...] = ()
        if state.stakes is not None:
            landed = pos_apply_due_slashes(state.stakes, epoch)
            for vid in landed:
                events.append({"kind": "pos-slash", "id": vid, "epoch": epoch})
            neutralized = tuple(sorted(state.stakes.slashed))

        weights_before = (
            {v: state.table.entries[v] for v in alive}
            if protocol == "pob"
            else {v: state.stakes.stakes[v] for v in alive}
        )

        # --- proposer election -------------------------------------------
        if trace is not None:
            proposer = trace[epoch].proposer
        elif config.proposer_override is not None and (
            config.proposer_override[1] <= epoch < config.proposer_override[2]
        ):
            proposer = config.proposer_override[0]
        elif protocol == "pob":
            proposer = select_proposer(state.table, alive, config.delta, election_rng)
        else:
            proposer = pos_select_proposer(state.stakes, election_rng, alive)

        # --- behaviors -----------------------------------------------------
        if trace is not None:
            # The trace dictates the proposer's action; the rest of the
            # network still validates every block, so scores stay live.
            tb = trace[epoch]
            motivation_kind = ActionKind.FRAUD if tb.is_exploit else tb.kind
            generated = [
                BehaviorRecord(
                    actor=tb.proposer,
                    epoch=epoch,
                    kind=tb.kind,
                    base_utility=tb.base_utility,
                    context_factor=tb.phi,
                    initiative=tb.alpha,
                    motivation=state.shape.motivation_for(motivation_kind),
                    is_fraud_ground_truth=tb.is_exploit,
                )
            ]
            validating = [v for v in alive if v != tb.proposer]
            generated.extend(_generate_behaviors(state, epoch, validating, proposer))
        else:
            generated = _generate_behaviors(state, epoch, alive, proposer)
        # One tuple shared by the ledger and the block.
        behaviors = tuple(generated)
        facts = _epoch_facts(behaviors, alive, config.betas)
        scores = facts.scores

        # --- suspicion reports (protocol-observable facts only) ----------
        reports: list[SuspicionReport] = []
        if protocol == "pob":
            reports = _build_reports(state, epoch, alive, behaviors, facts)

        # --- block confirmation timing ------------------------------------
        weight_of = weights_before
        confirmed, confirm_ms, samples = simulate_confirmation(
            alive, weight_of, config.quorum, state.latency,
            rng_lat_prop, rng_lat_vote, config.processing_ms,
        )
        if protocol == "pob" and confirm_ms is not None:
            confirm_ms += config.processing_ms  # behavior-scoring stage
            if reports:
                committee_delays = [
                    state.latency.sample(rng_lat_watchdog)
                    for _ in range(min(config.resolved_committee_size(), len(alive) - 1))
                ]
                extra = max(committee_delays) if committee_delays else 0.0
                confirm_ms += config.processing_ms + extra
        sim_time += confirm_ms if confirm_ms is not None else 0.0

        # --- watchdog / baseline detection --------------------------------
        verdicts: tuple[Verdict, ...] = ()
        if protocol == "pob":
            if reports:
                def vote_fn(member: str, behavior: BehaviorRecord, _rng: random.Random):
                    return state.validators[member].strategy.committee_vote(
                        behavior.actor, behavior
                    )

                state.table, verdict_list = process_epoch_suspicions(
                    reports,
                    state.table,
                    config.penalty_policy(),
                    config.theta,
                    min(config.resolved_committee_size(), len(alive) - 1),
                    committee_rng,
                    detection_accuracy=config.detection_accuracy,
                    vote_fn=vote_fn,
                    offense_counts=state.offense_counts,
                    eligible=alive,
                )
                verdicts = tuple(verdict_list)
                state.table = state.table.normalized()
        else:
            for index in facts.harmful:
                if pos_detect_rng.random() < config.detection_accuracy:
                    pos_schedule_slash(state.stakes, behaviors[index].actor, epoch)

        # --- weight update -------------------------------------------------
        if protocol == "pob":
            state.table = update_weights(state.table, scores, config.rho)

        weights_after = (
            {v: state.table.entries[v] for v in alive}
            if protocol == "pob"
            else {v: state.stakes.stakes[v] for v in alive}
        )

        # --- rewards ---------------------------------------------------------
        reward_table = (
            state.table if protocol == "pob" else WeightTable(dict(weights_after), epoch)
        )
        payouts = tuple(distribute(state.schedule, reward_table, scores, facts.activeness))

        # --- chain + ledger ---------------------------------------------------
        if confirmed:
            chain.append(
                extend_chain(chain[-1], proposer, behaviors, facts.utility, sim_time, alive,
                             reward_table)
            )

        ledgers.append(
            EpochLedger(
                epoch=epoch,
                protocol=protocol,
                proposer=proposer,
                behaviors=behaviors,
                verdicts=verdicts,
                payouts=payouts,
                scores=scores,
                activeness=facts.activeness,
                weights_before=weights_before,
                weights_after=weights_after,
                confirmed=confirmed,
                confirm_ms=confirm_ms,
                latency_samples=tuple(samples),
                neutralized=neutralized,
                events=tuple(events),
            )
        )

        # --- adaptive adversary controller ---------------------------------
        if state.sybil_controller is not None and protocol == "pob":
            convicted = sorted(
                {v.subject for v in verdicts
                 if v.guilty and v.subject in state.sybil_controller.coalition_members}
            )
            if convicted:
                for vid in convicted:
                    state.validators[vid].retired_epoch = epoch
                    state.contexts.pop(vid, None)
                    state.table = state.table.without([vid])
                    state.pending_events.append({"kind": "retire", "id": vid, "epoch": epoch})
                state.table = state.table.normalized()
                population = len(_alive_ids(state, epoch + 1))
                fresh, cap_events = state.sybil_controller.replacements(
                    epoch, population, convicted
                )
                state.pending_events.extend(cap_events)
                for vid in fresh:
                    state.validators[vid] = adv.ValidatorState(
                        vid=vid,
                        strategy=adv.AdaptiveSybilStrategy(
                            state.sybil_controller.coalition_members,
                            state.sybil_controller.fraud_value,
                        ),
                        role="adaptive-sybil",
                        join_epoch=epoch + 1,
                    )

    # --- long-range fork attempt (trial end) -------------------------------
    if state.fork_cfg is not None and protocol == "pob" and len(chain) > 1:
        depth = min(state.fork_cfg["fork_depth"], len(chain) - 1)
        outcome = adv.long_range_fork_outcome(
            chain,
            state.table,
            state.fork_cfg["compromised"],
            depth,
            claimed_utility_boost=abs(chain[-1].cumulative_utility) + 1000.0,
        )
        outcome["kind"] = "fork-outcome"
        if ledgers:
            ledgers[-1] = dataclasses.replace(
                ledgers[-1], events=ledgers[-1].events + (outcome,)
            )

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
    schedule = RewardSchedule(
        total_reward=config.r_total,
        base_reward=config.resolved_r_base(),
        activity_threshold=config.activity_threshold,
        activeness_epsilon=config.epsilon,
    )
    payouts = tuple(distribute(schedule, table, scores, ledger.activeness))
    return dict(table.entries), payouts
