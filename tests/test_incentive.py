import tracemalloc

import pytest
from hypothesis import given, strategies as st

from pobsim.config import ScenarioConfig, RosterEntry
from pobsim.adversaries import StrategySpec
from pobsim.incentive import (
    IncentiveParams,
    check_ic,
    empirical_ic,
    find_focal,
    future_loss,
    _focal_arm,
)
from pobsim.metrics import TrialTally
from pobsim.netsim import _start_trial, trial_epochs


class TestFutureLoss:
    def test_no_weight_loss_limit(self):
        # as the retained fraction approaches 1 only the immediate penalty remains
        p = IncentiveParams(discount=0.5, immediate_penalty=5.0,
                            slash_factor=1.0 - 1e-12, expected_honest_reward=1.0)
        assert future_loss(p) == pytest.approx(5.0, abs=1e-9)

    def test_geometric_series(self):
        p = IncentiveParams(discount=0.5, immediate_penalty=0.0,
                            slash_factor=0.0, expected_honest_reward=1.0)
        assert future_loss(p) == pytest.approx(2.0)

    def test_hand_worked_case(self):
        # 10 + 0.8 * 3 / 0.1 = 10 + 24 = 34
        p = IncentiveParams(discount=0.9, immediate_penalty=10.0,
                            slash_factor=0.2, expected_honest_reward=3.0)
        assert future_loss(p) == pytest.approx(34.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            IncentiveParams(discount=1.0)
        with pytest.raises(ValueError):
            IncentiveParams(discount=0.5, slash_factor=1.0)

    @given(st.floats(0.01, 0.99), st.floats(0, 0.99), st.floats(0, 20), st.floats(0, 20))
    def test_monotonicities(self, discount, slash, reward, penalty):
        base = IncentiveParams(discount=discount, immediate_penalty=penalty,
                               slash_factor=slash, expected_honest_reward=reward)
        harsher_slash = IncentiveParams(discount=discount, immediate_penalty=penalty,
                                        slash_factor=slash * 0.5, expected_honest_reward=reward)
        richer = IncentiveParams(discount=discount, immediate_penalty=penalty,
                                 slash_factor=slash, expected_honest_reward=reward + 1)
        more_patient = IncentiveParams(discount=min(0.999, discount + 0.005),
                                       immediate_penalty=penalty,
                                       slash_factor=slash, expected_honest_reward=reward)
        assert future_loss(harsher_slash) >= future_loss(base) - 1e-9
        assert future_loss(richer) >= future_loss(base)
        assert future_loss(more_patient) >= future_loss(base) - 1e-9


class TestCheckIc:
    def test_hand_case(self):
        p = IncentiveParams(discount=0.9, immediate_penalty=10.0, slash_factor=0.2,
                            expected_honest_reward=3.0, deviation_gain=5.0)
        holds, margin = check_ic(p)
        assert holds and margin == pytest.approx(29.0)

    def test_boundary_is_strict(self):
        p = IncentiveParams(discount=0.5, immediate_penalty=0.0, slash_factor=0.0,
                            expected_honest_reward=1.0, deviation_gain=2.0)
        holds, margin = check_ic(p)
        assert not holds and margin == pytest.approx(0.0)

    def test_zero_gain(self):
        p = IncentiveParams(discount=0.5, immediate_penalty=1.0, slash_factor=0.0,
                            expected_honest_reward=0.0, deviation_gain=0.0)
        holds, _ = check_ic(p)
        assert holds

    @given(st.floats(0.1, 10))
    def test_scale_consistency(self, c):
        base = IncentiveParams(discount=0.8, immediate_penalty=2.0, slash_factor=0.3,
                               expected_honest_reward=1.5, deviation_gain=4.0)
        scaled = IncentiveParams(discount=0.8, immediate_penalty=2.0 * c, slash_factor=0.3,
                                 expected_honest_reward=1.5 * c, deviation_gain=4.0 * c)
        assert check_ic(base)[0] == check_ic(scaled)[0]


def tiny_ic_config(**kw):
    defaults = dict(
        protocol="pob", n_validators=10, epochs=40, trials=2, seed=3,
        roster=(RosterEntry(9, 10, StrategySpec("stealth",
                                                {"fraud_rate": 0.1, "fraud_value": 20.0})),),
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def burst_focal_config():
    """A three-member sybil-burst focal entry over [2, 5) that bursts at epoch 2."""
    burst = StrategySpec("sybil-burst", {"burst_epoch": 2, "fraud_value": 6.0})
    return tiny_ic_config(epochs=4, trials=1, roster=(RosterEntry(2, 5, burst),))


def frauds(config, seed, honest=()):
    """(epoch, actor, value) of every fraud of a pob trial, `honest` playing honestly."""
    return {(l.epoch, b.actor, b.base_utility)
            for (l,) in trial_epochs(config, seed, ("pob",), honest=honest)
            for b in l.behaviors if b.is_fraud_ground_truth}


class TestEmpiricalIc:
    def test_focal_detection(self):
        cfg = tiny_ic_config()
        assert find_focal(cfg) == "v0009"

    def test_no_deviator_rejected(self):
        with pytest.raises(ValueError):
            find_focal(ScenarioConfig(protocol="pob", n_validators=10))

    def test_honest_arm_swaps_only_the_focal(self):
        cfg = tiny_ic_config()
        (deviant, _), (honest, _) = (_start_trial(cfg, 5, ("pob",), honest=swap)
                                     for swap in ((), ("v0009",)))
        kinds = {vid: (deviant.members[vid][0].kind, honest.members[vid][0].kind)
                 for vid in cfg.validator_ids()}
        assert {vid: pair for vid, pair in kinds.items() if pair[0] != pair[1]} == {
            "v0009": ("stealth", "honest")}

    def test_honest_arm_keeps_the_rest_of_the_focal_entry(self):
        stealth = StrategySpec("stealth", {"fraud_rate": 0.5, "fraud_value": 20.0})
        burst = StrategySpec("sybil-burst", {"burst_epoch": 2, "fraud_value": 6.0})
        cfg = tiny_ic_config(epochs=10, roster=(RosterEntry(2, 5, stealth),
                                                RosterEntry(7, 9, burst)))
        assert find_focal(cfg) == "v0002"
        deviant = frauds(cfg, 5)
        # Only the focal stops: its entry's other members and the burst fraud as before.
        assert {actor for _, actor, _ in deviant} == {"v0002", "v0003", "v0004", "v0007",
                                                      "v0008"}
        assert frauds(cfg, 5, honest=("v0002",)) == {f for f in deviant if f[1] != "v0002"}

    def test_honest_arm_keeps_the_focal_coalitions_fraud_split(self):
        # The coalition still has three members when its first plays honestly,
        # so the other two still split fraud_value 6 three ways.
        cfg = burst_focal_config()
        assert find_focal(cfg) == "v0002"
        assert frauds(cfg, 3) == {(2, vid, -2.0) for vid in ("v0002", "v0003", "v0004")}
        assert frauds(cfg, 3, honest=("v0002",)) == {(2, "v0003", -2.0), (2, "v0004", -2.0)}

    def test_honest_arm_keeps_the_focal_coalitions_votes(self):
        # On a committee, the focal's coalition still acquits it (votes not
        # guilty) in the honest arm, and still tries to convict everyone else.
        state, _ = _start_trial(burst_focal_config(), 3, ("pob",), honest=("v0002",))
        strategy = {vid: member[0] for vid, member in state.members.items()}
        assert not hasattr(strategy["v0002"], "committee_vote")  # the honest vote model
        votes = [strategy[voter].committee_vote(subject) for voter in ("v0003", "v0004")
                 for subject in ("v0002", "v0003", "v0009")]
        assert votes == [False, False, True] * 2  # True: guilty

    def test_identical_policies_identical_payoffs(self):
        # The honest arm of a one-member entry is the run with that entry made
        # honest, and making an honest validator honest changes nothing.
        cfg = tiny_ic_config()
        honest_cfg = tiny_ic_config(roster=(RosterEntry(9, 10, StrategySpec("honest")),))

        def arm(config, honest=()):
            return [(l.roster, l.pool_split)
                    for (l,) in trial_epochs(config, 5, ("pob",), honest=honest)]

        assert arm(cfg, ("v0009",)) == arm(honest_cfg) == arm(honest_cfg, ("v0009",))

    def test_report_shape_and_direction(self):
        report = empirical_ic(tiny_ic_config(), discount=0.9)
        assert report["focal"] == "v0009"
        assert len(report["per_trial"]) == 2
        for t in report["per_trial"]:
            assert t["honest_discounted"] > 0

    def test_disabled_punishment_flags_violation(self):
        cfg = tiny_ic_config(detection_accuracy=0.0, epochs=60)
        report = empirical_ic(cfg, discount=0.95)
        assert report["ic_violation_observed"]
        assert report["measured_delta_r"] > 0
        # nothing gets punished, so the enforced future loss is zero
        assert report["detection_rate"] == 0.0
        assert not report["ic_holds_effective"]

    def test_discount_validation(self):
        with pytest.raises(ValueError):
            empirical_ic(tiny_ic_config(), discount=1.0)


def reference_arm(config, seed, focal, honest):
    """The focal's payoffs and fraud outcomes from the full ledger list: a scan of
    every paid validator per epoch, then the focal's accepted frauds from a
    tally of every ledger. `_focal_arm` streams the trial instead."""
    ledgers = [l for (l,) in trial_epochs(config, seed, ("pob",),
                                          honest=(focal,) if honest else ())]
    payoffs = [0.0] * config.epochs
    tally = TrialTally(config, "pob")
    for ledger in ledgers:
        split = ledger.pool_split
        for position, total in zip(split.actives, split.total):
            if ledger.roster[position] == focal:
                payoffs[ledger.epoch] += total
        tally.add(ledger)
    outcomes = [o for o in tally.fraud_outcomes() if o.actor == focal]
    for outcome in outcomes:
        if outcome.accepted:
            payoffs[outcome.epoch] += outcome.value
    return payoffs, outcomes, ledgers


def unpaid_epochs(ledgers, focal):
    return sum(1 for l in ledgers if focal not in {l.roster[p] for p in l.pool_split.actives})


class TestFocalArm:
    """`_focal_arm` adds the same floats in the same order as the list logic."""

    def assert_same_arm(self, config, seed, focal, honest=False):
        payoffs, outcomes = _focal_arm(config, seed, focal, honest)
        ref_payoffs, ref_outcomes, ledgers = reference_arm(config, seed, focal, honest)
        assert list(map(float.hex, payoffs)) == list(map(float.hex, ref_payoffs))
        assert outcomes == ref_outcomes
        return outcomes, ledgers

    def test_stealth_focal(self):
        # half-sighted committees: some of the focal's frauds pay, some are caught
        outcomes, _ = self.assert_same_arm(tiny_ic_config(detection_accuracy=0.5), 3, "v0009")
        assert {o.accepted for o in outcomes} == {True, False}

    def test_focal_left_unpaid_by_the_activity_threshold(self):
        cfg = tiny_ic_config(activity_threshold=1.3)
        _, ledgers = self.assert_same_arm(cfg, 3, "v0009", honest=True)
        assert 0 < unpaid_epochs(ledgers, "v0009") < cfg.epochs

    def test_adaptive_sybil_focal_retired_mid_trial(self):
        cfg = tiny_ic_config(roster=(RosterEntry(8, 10, StrategySpec("adaptive-sybil")),))
        focal = find_focal(cfg)
        _, ledgers = self.assert_same_arm(cfg, 3, focal)
        on_roster = [focal in l.roster for l in ledgers]
        assert on_roster[0] and not on_roster[-1]


def test_memory_stays_flat_in_the_epoch_count():
    """No ledger outlives its epoch, so four times the epochs is not four times the memory."""
    peaks = []
    for epochs in (100, 400):
        tracemalloc.start()
        try:
            empirical_ic(tiny_ic_config(epochs=epochs, trials=1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks
