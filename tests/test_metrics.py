import itertools

import pytest
from hypothesis import given, strategies as st

from pobsim.metrics import (
    adaptation_time,
    aggregate_values,
    fraud_acceptance_rate,
    gini,
    paired_loss_averted,
    suppression_time,
    TrialTally,
)
from pobsim import netsim
from pobsim.config import ScenarioConfig, with_overrides
from pobsim.netsim import EpochLedger, _EpochFacts
from pobsim.presets import builtin_presets
from pobsim.rewards import RewardSchedule
from pobsim.scoring import ActionKind, BehaviorColumns, MotivationProfile
from pobsim.watchdog import Verdict

MOT = MotivationProfile((0.0,), (1.0,))


def tally(ledgers, protocol="pob"):
    """The ledgers folded, in order, into a tally of a plain two-validator trial."""
    folded = TrialTally(ScenarioConfig(protocol=protocol, n_validators=2), protocol)
    for each in ledgers:
        folded.add(each)
    return folded


def fraud_outcomes(ledgers):
    return tally(ledgers).fraud_outcomes()


def ledger(epoch, frauds=(), verdicts=(), neutralized=(), confirmed=True, protocol="pob"):
    """A two-validator ledger with one fraud row per (actor, value) in `frauds`,
    built from its inputs; nothing here reads its activeness or payouts."""
    roster = ["a", "b"]
    rows = BehaviorColumns(epoch)
    for actor, value in frauds:
        rows.add(roster.index(actor), ActionKind.FRAUD, -value, 1.0, 1.0, MOT, True)
    return EpochLedger(
        epoch=epoch, protocol=protocol, proposer="a", roster=roster, behavior_rows=rows,
        schedule=RewardSchedule(100.0, 0.0),
        facts=_EpochFacts(rows, [0, 1], (1 / 3, 1 / 3, 1 / 3)),
        roster_scores=[0.0, 0.0], roster_weights_before=[0.5, 0.5],
        roster_weights_after=[0.5, 0.5], verdicts=tuple(verdicts), confirmed=confirmed,
        confirm_ms=100.0, proposal_delays=[25.0, 30.0], vote_delays=[20.0, 45.0],
        neutralized=tuple(neutralized),
    )


def guilty_verdict(subject, epoch, index):
    return Verdict(
        subject=subject, epoch=epoch, behavior_index=index, malicious_fraction=1.0,
        committee_size=3, guilty=True, penalty_applied=0.1,
        penalty_kind="additive", penalty_value=0.1,
    )


class TestFraudAcceptanceRate:
    def test_plain_division(self):
        assert fraud_acceptance_rate(10, 1) == pytest.approx(0.1)

    def test_zero_attempts_undefined(self):
        assert fraud_acceptance_rate(0, 0) is None

    def test_large_acceptance(self):
        assert fraud_acceptance_rate(20, 17) == pytest.approx(0.85)

    def test_accepted_cannot_exceed_attempted(self):
        with pytest.raises(ValueError):
            fraud_acceptance_rate(5, 6)

    def test_monotone_in_accepted(self):
        rates = [fraud_acceptance_rate(10, k) for k in range(11)]
        assert rates == sorted(rates)


class TestGini:
    def test_uniform_counts(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_one_owner(self):
        counts = [0.0] * 99 + [10.0]
        assert gini(counts) == pytest.approx(0.99)

    def test_hand_case(self):
        # pairwise oracle: sum |xi-xj| over ordered pairs = 20; 20/(2*4*10)
        assert gini([1, 2, 3, 4]) == pytest.approx(0.25)

    def test_all_zero_undefined(self):
        assert gini([0, 0, 0]) is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini([1, -1])

    def _oracle(self, counts):
        n = len(counts)
        total = sum(counts)
        pairwise = sum(abs(x - y) for x in counts for y in counts)
        return pairwise / (2 * n * total)

    def test_small_vectors_match_pairwise_oracle(self):
        for n in range(1, 4):
            for counts in itertools.product(range(5), repeat=n):
                if sum(counts) == 0:
                    continue
                assert gini(counts) == pytest.approx(self._oracle(counts), abs=1e-12)

    @given(st.lists(st.floats(0.01, 100), min_size=2, max_size=10), st.floats(0.1, 10))
    def test_scale_invariance(self, counts, c):
        assert gini([c * x for x in counts]) == pytest.approx(gini(counts), abs=1e-9)

    @given(st.lists(st.floats(0, 100), min_size=2, max_size=10))
    def test_permutation_invariance(self, counts):
        if sum(counts) == 0:
            return
        assert gini(list(reversed(counts))) == pytest.approx(gini(counts), abs=1e-12)

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=12))
    def test_range(self, counts):
        if sum(counts) <= 0:
            return
        n = len(counts)
        value = gini(counts)
        assert -1e-12 <= value <= 1 - 1 / n + 1e-12


class TestAdaptationTime:
    def test_constant_at_fair_share(self):
        assert adaptation_time([0.1, 0.1, 0.1], 0.1) == 0

    def test_never_crossing(self):
        assert adaptation_time([0.0, 0.0], 0.5) is None


class TestSuppressionTime:
    def test_collapse_after_peak(self):
        traj = [0.5, 1.0, 0.9, 0.05, 0.8]
        assert suppression_time(traj, 0.1) == 3

    def test_recovery_does_not_move_the_point(self):
        traj = [1.0, 0.05, 1.5, 0.05]
        assert suppression_time(traj, 0.1) == 1

    def test_no_collapse(self):
        assert suppression_time([0.5, 0.6, 0.55], 0.1) is None

    def test_empty(self):
        assert suppression_time([], 0.1) is None


class TestFraudOutcomes:
    def test_confirmed_unconvicted_accepted(self):
        ledgers = [ledger(0, frauds=[("a", 10.0)])]
        outcomes = fraud_outcomes(ledgers)
        assert len(outcomes) == 1
        assert outcomes[0].accepted and outcomes[0].value == 10.0

    def test_guilty_verdict_blocks_acceptance(self):
        ledgers = [
            ledger(0, frauds=[("a", 10.0)],
                   verdicts=[guilty_verdict("a", 0, 0)])
        ]
        assert not fraud_outcomes(ledgers)[0].accepted

    def test_neutralized_actor_rejected(self):
        ledgers = [ledger(0, frauds=[("a", 10.0)], neutralized=("a",))]
        assert not fraud_outcomes(ledgers)[0].accepted

    def test_unconfirmed_block_rejected(self):
        ledgers = [ledger(0, frauds=[("a", 10.0)], confirmed=False)]
        assert not fraud_outcomes(ledgers)[0].accepted


class TestTrialTallies:
    """A tally of real trials against references recomputed from their ledgers."""

    @pytest.mark.parametrize("preset, changes, protocols", [
        # retirements and respawns change the roster in many epochs
        ("case-d-adaptive-sybil", {"epochs": 40}, ("pob",)),
        # one change: the newcomer joins both protocols' rosters
        ("case-b-fairness-100", {"epochs": 40, "newcomer_epoch": 20}, ("pob", "pos")),
    ])
    def test_proposer_counts_cover_every_roster(self, preset, changes, protocols):
        config = with_overrides(builtin_presets()[preset].build(), **changes)
        tallies = {protocol: TrialTally(config, protocol) for protocol in protocols}
        reference = {protocol: {} for protocol in protocols}
        for ledgers in netsim.trial_epochs(config, config.seed, protocols):
            for ledger in ledgers:
                tallies[ledger.protocol].add(ledger)
                counts = reference[ledger.protocol]
                for vid in ledger.roster:  # the union of every epoch's roster
                    counts.setdefault(vid, 0)
                counts[ledger.proposer] += 1
        for protocol in protocols:
            counts = reference[protocol]
            assert len(counts) > config.n_validators  # someone joined
            assert tallies[protocol].proposer_counts() == counts

    def test_false_positives_count_guilty_verdicts_on_honest_rows(self):
        # Every validator files an oracle report each epoch, so every one looks
        # scripted to these thresholds; at accuracy 0 a committee member votes
        # malicious on a row that is not harmful, so honest rows are convicted.
        config = ScenarioConfig(protocol="pob", n_validators=6, epochs=6, oracle_rate=1.0,
                                anomaly_freq_threshold=0.5, anomaly_quality_threshold=1.0,
                                detection_accuracy=0.0)
        ledgers = netsim.run_trial(config, config.seed)
        false_positives = sum(1 for ledger in ledgers for v in ledger.verdicts
                              if v.guilty and not ledger.behavior_rows.fraud[v.behavior_index])
        assert false_positives > 0
        folded = TrialTally(config, "pob")
        for each in ledgers:
            folded.add(each)
        assert folded.metrics().false_positives == false_positives  # a trial row's count


class TestLossAverted:
    def test_identical_acceptance_sets(self):
        pob = [ledger(0, frauds=[("a", 10.0)])]
        pos = [ledger(0, frauds=[("a", 10.0)], protocol="pos")]
        assert paired_loss_averted(tally(pob), tally(pos, "pos")) == 0.0

    def test_million_dollar_example(self):
        # baseline accepts 1.0M; behavior weighting accepts 0.25M
        pob = [
            ledger(0, frauds=[("a", 250_000.0)]),
            ledger(1, frauds=[("a", 750_000.0)],
                   verdicts=[guilty_verdict("a", 1, 0)]),
        ]
        pos = [
            ledger(0, frauds=[("a", 250_000.0)], protocol="pos"),
            ledger(1, frauds=[("a", 750_000.0)], protocol="pos"),
        ]
        assert paired_loss_averted(tally(pob), tally(pos, "pos")) == pytest.approx(750_000.0)

    def test_signed_result(self):
        pob = [ledger(0, frauds=[("a", 10.0)])]
        pos = [ledger(0, frauds=[("a", 10.0)], neutralized=("a",), protocol="pos")]
        assert paired_loss_averted(tally(pob), tally(pos, "pos")) == pytest.approx(-10.0)

    def test_unpaired_trials_rejected(self):
        pob = [ledger(0, frauds=[("a", 10.0)])]
        pos = [ledger(0, frauds=[("b", 10.0)], protocol="pos")]
        with pytest.raises(ValueError):
            paired_loss_averted(tally(pob), tally(pos, "pos"))


class TestAggregate:
    def test_identical_trials_zero_width(self):
        out = aggregate_values([0.4, 0.4, 0.4])
        assert out["mean"] == pytest.approx(0.4)
        assert out["ci95"] == pytest.approx(0.0)
        assert out["n"] == 3

    def test_two_point_hand_case(self):
        # s = 0.7071..., hw = 1.96 * s / sqrt(2) = 0.98
        out = aggregate_values([0.0, 1.0])
        assert out["mean"] == pytest.approx(0.5)
        assert out["ci95"] == pytest.approx(0.98, abs=1e-9)

    def test_single_trial_no_ci(self):
        out = aggregate_values([0.7])
        assert out["mean"] == pytest.approx(0.7)
        assert out["ci95"] is None
        assert out["n"] == 1

    def test_undefined_excluded_pairwise(self):
        out = aggregate_values([0.5, None, 0.7])
        assert out["n"] == 2
        assert out["mean"] == pytest.approx(0.6)

    def test_all_undefined(self):
        out = aggregate_values([None, None])
        assert out["mean"] is None and out["n"] == 0
