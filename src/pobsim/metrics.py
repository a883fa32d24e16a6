"""Evaluation metrics over trial ledgers.

This is the only module allowed to read ground-truth fraud labels and
adversary roles: everything here is measurement, not protocol. Metrics
are computed per trial and then aggregated as mean with a normal-
approximation 95% confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

from .config import ScenarioConfig
from .netsim import EpochLedger
from .weights import election_prob, left_sum

CSV_COLUMNS = (
    "trial",
    "seed",
    "protocol",
    "far",
    "proposer_gini",
    "mean_latency_ms",
    "newcomer_adaptation_blocks",
    "suppression_blocks",
    "loss_averted",
    "bottom_decile_share",
    "false_positives",
)

Z_95 = 1.96


@dataclass
class TrialMetrics:
    far: Optional[float]
    proposer_gini: Optional[float]
    mean_latency_ms: float
    newcomer_adaptation_blocks: Optional[int]
    suppression_blocks: Optional[int]
    loss_averted: Optional[float]
    bottom_decile_share: Optional[float]
    false_positives: int = 0
    fraud_attempted: int = 0
    fraud_accepted: int = 0
    fraud_accepted_value: float = 0.0


@dataclass(frozen=True)
class FraudOutcome:
    epoch: int
    actor: str
    value: float
    accepted: bool


def fraud_acceptance_rate(attempted: int, accepted: int) -> Optional[float]:
    """Accepted / attempted; undefined (None) when nothing was attempted."""
    if attempted < 0 or accepted < 0:
        raise ValueError("counts must be non-negative")
    if accepted > attempted:
        raise ValueError(f"accepted ({accepted}) exceeds attempted ({attempted})")
    if attempted == 0:
        return None
    return accepted / attempted


def gini(counts: Sequence[float]) -> Optional[float]:
    """Gini coefficient of a non-negative count vector.

    0 for perfect equality, 1 - 1/n when one holder owns everything.
    Undefined (None) when the counts sum to zero.
    """
    if not counts:
        raise ValueError("counts must be non-empty")
    values = sorted(float(c) for c in counts)
    if values[0] < 0:
        raise ValueError("counts must be non-negative")
    n = len(values)
    total = left_sum(values)
    if total <= 0:
        return None
    weighted = left_sum((i + 1) * x for i, x in enumerate(values))
    return (2.0 * weighted - (n + 1) * total) / (n * total)


def adaptation_time(trajectory: Sequence[float], target_share: float) -> Optional[int]:
    """First block with value >= target_share; None when it never rises that far."""
    for i, value in enumerate(trajectory):
        if value >= target_share:
            return i
    return None


def suppression_time(trajectory: Sequence[float], drop_frac: float = 0.1) -> Optional[int]:
    """First block where the value falls below drop_frac times its peak so far.

    Using the running peak pins the answer to the first genuine collapse;
    a later recovery (weights are forgiving by design) cannot retroactively
    move the suppression point.
    """
    peak = 0.0
    for i, value in enumerate(trajectory):
        if value > peak:
            peak = value
        elif peak > 0 and value < drop_frac * peak:
            return i
    return None


def weight_share_trajectory(ledgers: Sequence[EpochLedger], ids: set[str]) -> list[float]:
    """Aggregate weight share of a group of validators, per epoch."""
    shares = []
    for ledger in ledgers:
        w = ledger.weights_before
        total = left_sum(w.values())
        group = left_sum(w.get(v, 0.0) for v in ids)
        shares.append(group / total if total > 0 else 0.0)
    return shares


def adversary_ids(config: ScenarioConfig) -> list[str]:
    ids = config.validator_ids()
    return sorted({vid for entry in config.roster if entry.spec.kind != "honest"
                   for vid in ids[entry.lo:entry.hi]})


class TrialTally:
    """What the trial metrics read from the ledgers, folded one ledger at a time.

    `add` takes the ledgers in epoch order, so a trial can stream each one
    in and drop it. The state kept is small: fraud attempts and guilty
    verdict keys, proposer counts, the first epoch's weights, and short
    per-epoch lists (confirm latencies, two election-probability
    trajectories). Sums are taken over those lists when a metric is read,
    in the order a pass over the full ledger list takes them, so the
    results are bit-identical to it.
    """

    def __init__(self, config: ScenarioConfig, protocol: str):
        self.config = config
        adversaries = adversary_ids(config)
        self.first_adversary = adversaries[0] if adversaries else None
        self.join = config.newcomer_epoch
        # The stake lottery is the election rule at delta = 0.
        self.delta = config.delta if protocol == "pob" else 0.0
        self.epochs = 0
        # (epoch, actor, behavior index, value, accepted unless found guilty)
        self.frauds: list[tuple[int, str, int, float, bool]] = []
        self.guilty_keys: set[tuple[int, str, int]] = set()
        self.false_positives = 0
        self.seen_ids: set[str] = set()
        self.last_roster: Optional[list[str]] = None  # a new list only where the roster changed
        self.proposals: dict[str, int] = {}
        self.initial_weights: Optional[dict[str, float]] = None
        self.latencies: list[float] = []
        self.alive_at_join: Optional[int] = None
        self.newcomer_probs: list[float] = []
        self.adversary_probs: list[float] = []

    def add(self, ledger: EpochLedger) -> None:
        roster, weights, c = ledger.roster, ledger.roster_weights_before, ledger.behavior_rows
        labels = c.fraud
        frauds = [(i, roster[c.actor[i]], c.base_utility[i])
                  for i, fraud in enumerate(labels) if fraud] if True in labels else []
        for v in ledger.verdicts:
            if v.guilty:
                self.guilty_keys.add((v.epoch, v.subject, v.behavior_index))
                # a guilty verdict on a behavior that was not fraud
                if not labels[v.behavior_index]:
                    self.false_positives += 1
        for idx, actor, base_utility in frauds:
            accepted = ledger.confirmed and actor not in ledger.neutralized
            self.frauds.append((ledger.epoch, actor, idx, abs(base_utility), accepted))

        if self.initial_weights is None:
            self.initial_weights = dict(zip(roster, weights))
        if roster is not self.last_roster:
            self.seen_ids.update(roster)
            self.last_roster = roster
        self.proposals[ledger.proposer] = self.proposals.get(ledger.proposer, 0) + 1
        if ledger.confirmed and ledger.confirm_ms is not None:
            self.latencies.append(ledger.confirm_ms)

        if self.join is not None and self.epochs >= self.join:
            if self.epochs == self.join:
                self.alive_at_join = len(roster)
            self.newcomer_probs.append(election_prob(roster, weights, "newcomer", self.delta))
        if self.first_adversary is not None:
            self.adversary_probs.append(
                election_prob(roster, weights, self.first_adversary, self.delta))
        self.epochs += 1

    def fraud_outcomes(self) -> list[FraudOutcome]:
        """Acceptance of every ground-truth fraud attempt.

        A fraud is accepted iff its block confirmed, no committee found it
        guilty within the detection window, and (baseline) its actor had
        not already been slashed when the block was committed.
        """
        return [
            FraudOutcome(epoch, actor, value,
                         accepted and (epoch, actor, idx) not in self.guilty_keys)
            for epoch, actor, idx, value, accepted in self.frauds
        ]

    def proposer_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(self.seen_ids, 0)
        for vid, n in self.proposals.items():
            counts[vid] = counts.get(vid, 0) + n
        return counts

    def _bottom_decile_share(self, counts: dict[str, int]) -> Optional[float]:
        """Proposer share of the bottom tenth of validators by initial holding."""
        initial = self.initial_weights
        if initial is None:
            return None
        ranked = sorted(initial, key=lambda v: (initial[v], v))
        k = max(1, len(ranked) // 10)
        bottom = ranked[:k]
        total = sum(counts.values())
        if total == 0:
            return None
        return sum(counts.get(v, 0) for v in bottom) / total

    def metrics(self) -> TrialMetrics:
        config = self.config
        outcomes = self.fraud_outcomes()
        attempted = len(outcomes)
        accepted = sum(1 for o in outcomes if o.accepted)
        accepted_value = left_sum(o.value for o in outcomes if o.accepted)

        counts = self.proposer_counts()
        gini_value = gini(list(counts.values())) if counts else None

        latencies = self.latencies
        mean_latency = left_sum(latencies) / len(latencies) if latencies else 0.0

        newcomer_blocks: Optional[int] = None
        if self.newcomer_probs and self.alive_at_join:
            target = config.adaptation_target_frac / self.alive_at_join
            newcomer_blocks = adaptation_time(self.newcomer_probs, target)

        suppression: Optional[int] = None
        if self.first_adversary is not None:
            suppression = suppression_time(self.adversary_probs, config.suppression_drop_frac)

        return TrialMetrics(
            far=fraud_acceptance_rate(attempted, accepted),
            proposer_gini=gini_value,
            mean_latency_ms=mean_latency,
            newcomer_adaptation_blocks=newcomer_blocks,
            suppression_blocks=suppression,
            loss_averted=None,
            bottom_decile_share=self._bottom_decile_share(counts),
            false_positives=self.false_positives,
            fraud_attempted=attempted,
            fraud_accepted=accepted,
            fraud_accepted_value=accepted_value,
        )


def paired_loss_averted(pob: TrialTally, pos: TrialTally) -> float:
    """Accepted fraud value under the baseline minus under behavior weighting.

    Requires paired trials driven by common random numbers: both runs must
    contain the same fraud attempts.
    """
    pob_outcomes = pob.fraud_outcomes()
    pos_outcomes = pos.fraud_outcomes()
    if len(pob_outcomes) != len(pos_outcomes) or [
        (o.epoch, o.actor) for o in pob_outcomes
    ] != [(o.epoch, o.actor) for o in pos_outcomes]:
        raise ValueError("unpaired trials: fraud attempt streams differ")
    pos_value = left_sum(o.value for o in pos_outcomes if o.accepted)
    pob_value = left_sum(o.value for o in pob_outcomes if o.accepted)
    return pos_value - pob_value


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def aggregate_values(values: Sequence[Optional[float]]) -> dict:
    """Mean and 95% CI half-width, excluding undefined entries pairwise."""
    present = [float(v) for v in values if v is not None]
    n = len(present)
    if n == 0:
        return {"mean": None, "ci95": None, "n": 0}
    mean = left_sum(present) / n
    if n < 2:
        return {"mean": mean, "ci95": None, "n": n}
    var = left_sum((x - mean) ** 2 for x in present) / (n - 1)
    half_width = Z_95 * math.sqrt(var) / math.sqrt(n)
    return {"mean": mean, "ci95": half_width, "n": n}


def aggregate(per_trial: Sequence[TrialMetrics]) -> dict:
    """Aggregate every metric field across trials."""
    out: dict[str, dict] = {}
    for f in fields(TrialMetrics):
        values = [getattr(t, f.name) for t in per_trial]
        out[f.name] = aggregate_values(values)
    return out
