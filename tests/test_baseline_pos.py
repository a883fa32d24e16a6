import random

import pytest

from pobsim import netsim
from pobsim.adversaries import StrategySpec
from pobsim.config import RosterEntry, ScenarioConfig
from pobsim.netsim import run_trial
from pobsim.scoring import ActionKind, BehaviorColumns, MotivationProfile
from pobsim.weights import election_prob, pareto_stakes, stake_pick


class TestSelectProposer:
    def test_all_stake_one_holder(self):
        rng = random.Random(0)
        assert all(stake_pick([1.0, 0.0], rng) == 0 for _ in range(200))

    def test_uniform_stakes_uniform_frequency(self):
        rng = random.Random(9)
        n = 40_000
        counts = [0] * 4
        for _ in range(n):
            counts[stake_pick([1.0] * 4, rng)] += 1
        for c in counts:
            assert abs(c / n - 0.25) < 0.02

    def test_three_to_one_proportion(self):
        rng = random.Random(17)
        n = 100_000
        hits = sum(stake_pick([3.0, 1.0], rng) == 0 for _ in range(n))
        assert abs(hits / n - 0.75) < 0.01

    def test_zero_total_stake(self):
        # Every stake slashed away: the lottery's limit is uniform, one
        # randrange draw on the election stream, and its closed form agrees.
        rng, twin = random.Random(0), random.Random(0)
        picks = [stake_pick([0.0] * 4, rng) for _ in range(4000)]
        assert picks == [twin.randrange(4) for _ in range(4000)]
        assert min(picks.count(i) for i in range(4)) > 900
        assert election_prob(["a", "b", "c", "d"], [0.0] * 4, "b", 0.0) == 0.25

    def test_empty_stakes(self):
        with pytest.raises(ValueError):
            stake_pick([], random.Random(0))


def _pos_rules(delay: int, fraction: float) -> tuple[netsim._TrialState, netsim._PosRules]:
    """A three-validator pos trial's state and rules; every stake is 1 and
    every harmful record is detected."""
    config = ScenarioConfig(protocol="pos", n_validators=3, stake_distribution="equal",
                            detection_accuracy=1.0, pos_slash_delay=delay,
                            pos_slash_fraction=fraction)
    state, (rules,) = netsim._start_trial(config, 0, ("pos",))
    return state, rules


def _detect(state: netsim._TrialState, rules: netsim._PosRules, vid: str, epoch: int) -> None:
    """Review an epoch whose one harmful record is `vid`'s."""
    cols = BehaviorColumns(epoch)
    cols.add(state.pos_of[vid], ActionKind.FRAUD, -1.0, 1.0, 1.0, MotivationProfile((0.0,), (1.0,)),
             True)
    facts = netsim._EpochFacts(cols, state.positions, state.config.betas)
    assert facts.harmful == [0]
    assert rules.review(state, epoch, cols, facts, None) == (None, ())


class TestSlashing:
    def test_delay_semantics(self):
        state, rules = _pos_rules(delay=100, fraction=1.0)
        _detect(state, rules, "v0001", epoch=10)
        for epoch in range(10, 110):
            events = []
            assert rules.land_slashes(state, epoch, events) == ()
            assert rules.weights == [1.0, 1.0, 1.0], f"slashed early at epoch {epoch}"
            assert events == []
        events = []
        assert rules.land_slashes(state, 110, events) == ("v0001",)
        assert rules.weights == [1.0, 0.0, 1.0]
        assert events == [{"kind": "pos-slash", "id": "v0001", "epoch": 110}]

    def test_full_slash_fraction(self):
        state, rules = _pos_rules(delay=0, fraction=1.0)
        before = rules.weights
        _detect(state, rules, "v0000", epoch=3)
        assert rules.land_slashes(state, 3, []) == ("v0000",)
        assert rules.weights == [0.0, 1.0, 1.0]
        assert before == [1.0, 1.0, 1.0]  # a new list: a ledger keeps the one it got
        assert rules.slashed == {"v0000"} and not rules.pending
        assert rules.land_slashes(state, 4, []) == ("v0000",)  # every slashed id so far

    def test_half_slash(self):
        state, rules = _pos_rules(delay=0, fraction=0.5)
        _detect(state, rules, "v0002", epoch=0)
        assert rules.land_slashes(state, 0, []) == ("v0002",)
        assert rules.weights == [1.0, 1.0, 0.5]

    def test_first_detection_wins(self):
        state, rules = _pos_rules(delay=10, fraction=1.0)
        _detect(state, rules, "v0000", epoch=5)
        _detect(state, rules, "v0000", epoch=50)  # ignored
        assert rules.pending == {"v0000": 15}
        rules.land_slashes(state, 15, [])
        _detect(state, rules, "v0000", epoch=60)  # already slashed: ignored too
        assert not rules.pending

    def test_landed_slashes_halve_the_stakes_the_election_reads(self):
        config = ScenarioConfig(
            protocol="pos", n_validators=100, epochs=30, pos_slash_delay=3,
            pos_slash_fraction=0.5,
            roster=(RosterEntry(90, 100, StrategySpec("stealth", {"fraud_rate": 0.2})),))
        ledgers = run_trial(config, 42)
        stakes = dict(ledgers[0].weights_before)
        landed = [(e["epoch"], e["id"]) for ledger in ledgers for e in ledger.events
                  if e["kind"] == "pos-slash"]
        assert len(landed) == 10
        for epoch, vid in landed:
            assert ledgers[epoch].weights_before[vid] == stakes[vid] * 0.5
            assert vid in ledgers[epoch].neutralized
            assert vid not in ledgers[epoch - 1].neutralized


class TestParetoStakes:
    def test_positive_and_deterministic(self):
        ids = [f"v{i}" for i in range(100)]
        s1 = pareto_stakes(ids, random.Random(5), alpha=1.6)
        s2 = pareto_stakes(ids, random.Random(5), alpha=1.6)
        assert s1 == s2
        assert all(v >= 1.0 for v in s1.values())

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            pareto_stakes(["a"], random.Random(0), alpha=1.0)


class TestStaticStakeProperty:
    def test_no_adaptation_without_slashing(self):
        cfg = ScenarioConfig(protocol="pos", n_validators=10, epochs=60, trials=1)
        ledgers = run_trial(cfg, 3, protocol="pos")
        first = ledgers[0].weights_before
        last = ledgers[-1].weights_before
        assert first == last
