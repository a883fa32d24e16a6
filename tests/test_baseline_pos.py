import random

import pytest

from pobsim.baseline_pos import (
    StakeTable,
    pareto_stakes,
    pos_apply_due_slashes,
    pos_schedule_slash,
    stake_pick,
)
from pobsim.config import ScenarioConfig
from pobsim.errors import DegenerateElectionError
from pobsim.netsim import run_trial


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
        with pytest.raises(DegenerateElectionError):
            stake_pick([0.0], random.Random(0))

    def test_empty_stakes(self):
        with pytest.raises(ValueError):
            stake_pick([], random.Random(0))


class TestSlashing:
    def test_delay_semantics(self):
        table = StakeTable({"a": 2.0}, slash_delay_blocks=100, slash_fraction=1.0)
        pos_schedule_slash(table, "a", detection_block=10)
        for block in range(10, 110):
            pos_apply_due_slashes(table, block)
            assert table.stakes["a"] == 2.0, f"slashed early at block {block}"
        landed = pos_apply_due_slashes(table, 110)
        assert landed == ["a"]
        assert table.stakes["a"] == 0.0

    def test_full_slash_fraction(self):
        table = StakeTable({"a": 5.0}, slash_delay_blocks=0, slash_fraction=1.0)
        pos_schedule_slash(table, "a", 3)
        assert pos_apply_due_slashes(table, 3) == ["a"]
        assert table.stakes["a"] == 0.0
        assert table.slashed == {"a"} and not table.pending

    def test_half_slash(self):
        table = StakeTable({"a": 2.0}, slash_delay_blocks=0, slash_fraction=0.5)
        pos_schedule_slash(table, "a", 0)
        assert pos_apply_due_slashes(table, 0) == ["a"]
        assert table.stakes["a"] == 1.0

    def test_first_detection_wins(self):
        table = StakeTable({"a": 2.0}, slash_delay_blocks=10, slash_fraction=1.0)
        pos_schedule_slash(table, "a", 5)
        pos_schedule_slash(table, "a", 50)  # ignored
        assert table.pending["a"] == 15

    def test_unknown_offender(self):
        with pytest.raises(KeyError):
            pos_schedule_slash(StakeTable({"a": 1.0}), "zzz", 0)


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
