import math

import pytest
from hypothesis import given, strategies as st

from pobsim.config import ScenarioConfig
from pobsim.errors import ConfigError, RewardPoolError
from pobsim.rewards import RewardSchedule, split_pool


def payouts_of(schedule, weights, scores, activeness=None):
    """`split_pool`'s payout totals by id, over the sorted ids of `weights`."""
    roster = sorted(weights)
    activeness = activeness or {}
    split = split_pool(schedule, [weights[v] for v in roster], [scores[v] for v in roster],
                       [activeness.get(v, 0.0) for v in roster])
    return {roster[a]: total for a, total in zip(split.actives, split.total)}


def paid(epoch_scores, beta):
    """The active set as split_pool pays it: the validators that get a payout."""
    schedule = RewardSchedule(total_reward=100.0, base_reward=1.0, activity_threshold=beta)
    return set(payouts_of(schedule, dict.fromkeys(epoch_scores, 1.0), epoch_scores))


class TestActiveSet:
    def test_strict_inequality(self):
        assert paid({"a": 1.0, "b": 0.0}, beta=0.0) == {"a"}

    def test_negative_score_excluded(self):
        assert paid({"a": -5.0}, beta=0.0) == set()

    def test_threshold_filter(self):
        scores = {"a": 0.5, "b": 0.6, "c": 0.4}
        assert paid(scores, beta=0.45) == {"a", "b"}

    def test_payouts_in_id_order(self):
        # the roster is sorted by id, and payouts keep roster order
        split = split_pool(RewardSchedule(total_reward=10.0, base_reward=1.0), [0.25] * 4,
                           [1.0, 1.0, 1.0, -1.0], [0.0] * 4)
        assert split.actives == [0, 1, 2]


class TestDistribute:
    def test_single_active_gets_whole_pool(self):
        schedule = RewardSchedule(total_reward=100.0, base_reward=10.0)
        payouts = payouts_of(schedule, {"a": 0.5, "b": 0.5}, {"a": 1.0, "b": -1.0})
        assert list(payouts) == ["a"]
        assert payouts["a"] == pytest.approx(100.0)

    def test_hand_worked_split(self):
        # bonus = 100 - 2*10 = 80; a: 10 + 80*0.75 = 70; b: 10 + 80*0.25 = 30
        schedule = RewardSchedule(total_reward=100.0, base_reward=10.0)
        payouts = payouts_of(schedule, {"a": 0.75, "b": 0.25}, {"a": 1.0, "b": 1.0})
        assert payouts["a"] == pytest.approx(70.0)
        assert payouts["b"] == pytest.approx(30.0)

    def test_inactive_weight_is_ignored(self):
        schedule = RewardSchedule(total_reward=100.0, base_reward=10.0)
        payouts = payouts_of(schedule, {"a": 1.0, "ghost": 5.0}, {"a": 1.0, "ghost": 0.0})
        assert list(payouts) == ["a"]
        assert payouts["a"] == pytest.approx(100.0)

    def test_no_active_validators(self):
        schedule = RewardSchedule(total_reward=100.0, base_reward=10.0)
        split = split_pool(schedule, [1.0], [-1.0], [0.0])
        assert split.actives == [] and split.total == []

    def test_insufficient_pool(self):
        schedule = RewardSchedule(total_reward=15.0, base_reward=10.0)
        with pytest.raises(RewardPoolError):
            split_pool(schedule, [0.5, 0.5], [1.0, 1.0], [0.0, 0.0])

    def test_zero_weight_actives_split_bonus_uniformly(self):
        schedule = RewardSchedule(total_reward=100.0, base_reward=10.0)
        payouts = payouts_of(schedule, {"a": 0.0, "b": 0.0}, {"a": 1.0, "b": 1.0})
        assert payouts["a"] == pytest.approx(50.0)
        assert payouts["b"] == pytest.approx(50.0)

    def test_zero_weight_active_gets_exactly_base(self):
        schedule = RewardSchedule(total_reward=100.0, base_reward=10.0)
        payouts = payouts_of(schedule, {"a": 1.0, "b": 0.0}, {"a": 1.0, "b": 1.0})
        assert payouts["b"] == pytest.approx(10.0)

    def test_activeness_multiplier(self):
        schedule = RewardSchedule(total_reward=100.0, base_reward=10.0, activeness_epsilon=0.5)
        split = split_pool(schedule, [1.0], [1.0], [0.8])
        assert split.multiplier == [pytest.approx(1.4)]
        assert split.total == [pytest.approx((split.base + split.bonus[0]) * 1.4)]

    def test_payout_invariant_total(self):
        schedule = RewardSchedule(total_reward=60.0, base_reward=5.0, activeness_epsilon=0.2)
        split = split_pool(schedule, [0.6, 0.4], [1.0, 2.0], [0.5, 1.0])
        assert split.actives == [0, 1]
        for bonus, multiplier, total in zip(split.bonus, split.multiplier, split.total):
            assert total == pytest.approx((split.base + bonus) * multiplier)

    @given(
        st.lists(st.floats(0.0, 5.0), min_size=1, max_size=10),
        st.lists(st.floats(-2.0, 5.0), min_size=10, max_size=10),
    )
    def test_conservation_at_zero_epsilon(self, weights, scores):
        schedule = RewardSchedule(total_reward=100.0, base_reward=1.0)
        split = split_pool(schedule, weights + [0.0] * (10 - len(weights)), scores, [0.0] * 10)
        if split.actives:
            assert math.isclose(sum(split.total), 100.0, abs_tol=1e-9)

    def test_monotone_in_weight_among_equal_activeness(self):
        schedule = RewardSchedule(total_reward=100.0, base_reward=5.0)
        split = split_pool(schedule, [0.5, 0.3, 0.2], [1.0, 1.0, 1.0], [0.0] * 3)
        assert split.total[0] >= split.total[1] >= split.total[2]

    def test_floor_at_base_reward(self):
        schedule = RewardSchedule(total_reward=100.0, base_reward=7.0)
        split = split_pool(schedule, [1.0, 0.0, 0.0], [1.0, 0.5, 0.5], [0.0] * 3)
        assert all(total >= 7.0 - 1e-12 for total in split.total)

    def test_schedule_validation(self):
        # A RewardSchedule is made only from a config, which refuses a negative pool term.
        for field, value in (("r_total", -1.0), ("r_base", -0.5), ("epsilon", -0.1)):
            with pytest.raises(ConfigError) as err:
                ScenarioConfig(protocol="pob", n_validators=10, **{field: value})
            assert err.value.field == field
