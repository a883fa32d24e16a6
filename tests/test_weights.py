import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pobsim.scoring import ActionKind, BehaviorColumns, MotivationProfile
from pobsim.config import PenaltySettings
from pobsim.watchdog import Penalty, compute_penalty, process_epoch_suspicions, slash
from pobsim.weights import (
    WeightTable,
    dampened_pick,
    election_prob,
    left_sum,
    normalize,
    select_proposer,
    update_weights,
)


def test_left_sum_adds_left_to_right_on_every_interpreter():
    # 3.12's compensated builtin sum gives 1.0 here
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum(x for x in (1e16, 1.0, -1e16)) == 0.0
    assert left_sum([]) == 0


class TestWeightTable:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightTable({"a": -0.1})

    def test_normalized_unit_sum(self):
        w = normalize([2.0, 6.0])
        assert math.isclose(sum(w), 1.0, abs_tol=1e-12)
        assert math.isclose(w[0], 0.25, abs_tol=1e-12)

    def test_normalized_zero_mass_falls_back_to_uniform(self):
        assert normalize([0.0, 0.0]) == [0.5, 0.5]


class TestUpdateWeights:
    def test_rho_zero_is_identity(self):
        t = WeightTable({"a": 0.3, "b": 0.7})
        out = update_weights(t, {"a": 5.0, "b": 1.0}, rho=0.0)
        assert out.entries == t.entries
        assert out.epoch == t.epoch + 1

    def test_rho_one_replaces_with_share(self):
        t = WeightTable({"a": 0.5, "b": 0.5})
        out = update_weights(t, {"a": 3.0, "b": 1.0}, rho=1.0)
        assert math.isclose(out.entries["a"], 0.75, abs_tol=1e-12)
        assert math.isclose(out.entries["b"], 0.25, abs_tol=1e-12)

    def test_half_mix_hand_case(self):
        t = WeightTable({"a": 0.5, "b": 0.5})
        out = update_weights(t, {"a": 1.0, "b": 0.0}, rho=0.5)
        assert math.isclose(out.entries["a"], 0.75, abs_tol=1e-12)
        assert math.isclose(out.entries["b"], 0.25, abs_tol=1e-12)

    def test_negative_scores_clamped_to_zero_share(self):
        t = WeightTable({"a": 0.5, "b": 0.5})
        out = update_weights(t, {"a": -5.0, "b": 1.0}, rho=1.0)
        assert out.entries["a"] == 0.0
        assert out.entries["b"] == 1.0

    def test_zero_total_uses_uniform_share(self):
        t = WeightTable({"a": 0.9, "b": 0.1})
        out = update_weights(t, {"a": 0.0, "b": -2.0}, rho=1.0)
        assert out.entries == {"a": 0.5, "b": 0.5}

    def test_missing_score_means_zero(self):
        t = WeightTable({"a": 0.5, "b": 0.5})
        out = update_weights(t, {"a": 1.0}, rho=1.0)
        assert out.entries["b"] == 0.0

    def test_unknown_validator_rejected(self):
        with pytest.raises(KeyError):
            update_weights(WeightTable({"a": 1.0}), {"zzz": 1.0}, rho=0.5)

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            update_weights(WeightTable({"a": 1.0}), {}, rho=1.5)

    @given(
        st.lists(st.floats(0.01, 10), min_size=2, max_size=8),
        st.lists(st.floats(0, 100), min_size=8, max_size=8),
        st.floats(0, 1),
    )
    def test_preserves_unit_sum_and_nonnegativity(self, raw_weights, scores, rho):
        ids = [f"v{i}" for i in range(len(raw_weights))]
        total = sum(raw_weights)
        t = WeightTable({v: w / total for v, w in zip(ids, raw_weights)})
        score_map = dict(zip(ids, scores))
        out = update_weights(t, score_map, rho)
        assert math.isclose(out.total, 1.0, abs_tol=1e-9)
        assert all(w >= 0 for w in out.entries.values())


def additive(delta_w):
    return Penalty("additive", delta_w)


def multiplicative(rho_p):
    return Penalty("multiplicative", rho_p)


class TestSlashes:
    def test_additive_subtraction(self):
        assert slash(0.4, additive(0.1)) == pytest.approx(0.3)

    def test_additive_floors_at_zero(self):
        assert slash(0.05, additive(0.2)) == 0.0

    def test_additive_zero_is_identity(self):
        assert slash(0.4, additive(0.0)) == 0.4

    def test_multiplicative_scaling(self):
        assert slash(0.5, multiplicative(0.2)) == pytest.approx(0.1)

    def test_multiplicative_eighty_percent_cut(self):
        # retained fraction 0.2 is an 80% slash
        assert slash(0.5, multiplicative(0.2)) / 0.5 == pytest.approx(0.2)

    def test_zero_weight_fixed_point(self):
        assert slash(0.0, multiplicative(0.5)) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            slash(1.0, Penalty("exotic", 0.1))

    def test_rho_p_range(self):
        with pytest.raises(ValueError):
            slash(1.0, multiplicative(1.0))
        with pytest.raises(ValueError):
            slash(1.0, additive(-0.1))

    @given(st.floats(0, 2), st.floats(0, 0.999))
    def test_non_targets_untouched(self, delta_w, rho_p):
        roster, weights = ["a", "b", "c"], [0.4, 0.35, 0.25]
        cols = BehaviorColumns(0)
        cols.add(1, ActionKind.FRAUD, -delta_w, 1.0, 1.0, MotivationProfile((0.0,), (1.0,)))
        for policy in (PenaltySettings(), PenaltySettings(mode="multiplicative", rho_p=rho_p)):
            out, (verdict,) = process_epoch_suspicions(
                [(1, 0, 1, True)], roster, weights, cols, policy, Fraction(1, 2), 2,
                random.Random(0), {}, 1.0, {0: lambda subject: True, 2: lambda subject: True})
            assert verdict.guilty
            assert out[1] == slash(0.35, compute_penalty(policy, ActionKind.FRAUD, -delta_w, 0))
            assert (out[0], out[2]) == (0.4, 0.25)


class TestZeroScoreDecay:
    def test_weight_collapses_within_two_epochs_at_high_rho(self):
        # a validator scoring zero while others score positively loses
        # (1 - rho) of its weight per epoch: below 1% of initial in 2 epochs
        table = WeightTable({"idle": 0.5, "busy": 0.5})
        for _ in range(2):
            table = update_weights(table, {"idle": 0.0, "busy": 1.0}, rho=0.9)
        assert table.entries["idle"] <= 0.01 * 0.5 + 1e-12

    def test_geometric_decay_bound(self):
        rho = 0.7
        table = WeightTable({"idle": 0.4, "busy": 0.6})
        w0 = table.entries["idle"]
        for k in range(1, 8):
            table = update_weights(table, {"idle": 0.0, "busy": 2.0}, rho=rho)
            assert table.entries["idle"] <= (1 - rho) ** k * w0 + 1e-12


class TestSelectProposer:
    def test_degenerate_lottery(self):
        t = WeightTable({"a": 1.0, "b": 0.0})
        rng = random.Random(1)
        assert all(
            select_proposer(t, ["a", "b"], 0.0, rng) == "a" for _ in range(200)
        )

    def test_empty_active_set(self):
        with pytest.raises(ValueError):
            select_proposer(WeightTable({"a": 1.0}), [], 0.5, random.Random(0))

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_all_zero_weights_draw_the_uniform_limit(self, delta):
        # With no weight left the lottery is uniform at every delta: the delta
        # coin, then one randrange, as election_prob's 1/n says.
        weights, rng, twin = [0.0] * 5, random.Random(11), random.Random(11)
        for _ in range(200):
            twin.random()
            assert dampened_pick(weights, delta, rng) == twin.randrange(5)
        roster = ["a", "b", "c", "d", "e"]
        assert all(election_prob(roster, weights, v, delta) == 0.2 for v in roster)
        with pytest.raises(ValueError):
            dampened_pick([], delta, random.Random(0))

    def test_all_zero_weights_with_positive_delta_is_uniform(self):
        t = WeightTable({"a": 0.0, "b": 0.0})
        rng = random.Random(3)
        picks = {select_proposer(t, ["a", "b"], 1.0, rng) for _ in range(100)}
        assert picks == {"a", "b"}

    def test_pure_baseline_roughly_uniform(self):
        t = WeightTable({"a": 0.97, "b": 0.01, "c": 0.01, "d": 0.01})
        rng = random.Random(7)
        n = 20_000
        counts = {v: 0 for v in t.entries}
        for _ in range(n):
            counts[select_proposer(t, counts, 1.0, rng)] += 1
        for v in counts:
            assert abs(counts[v] / n - 0.25) < 0.02

    def test_mixture_closed_form(self):
        # The lottery's closed form, delta / n + (1 - delta) * w / total,
        # is election_prob.
        roster, weights = ["a", "b"], [0.9, 0.1]
        assert math.isclose(election_prob(roster, weights, "a", 0.1), 0.86, abs_tol=1e-12)
        assert math.isclose(election_prob(roster, weights, "b", 0.1), 0.14, abs_tol=1e-12)
        assert election_prob(roster, weights, "a", 0.0) == 0.9  # the stake lottery
        assert election_prob(roster, weights, "c", 0.1) == 0.0

    def test_deterministic_given_stream_state(self):
        t = WeightTable({f"v{i}": 0.1 for i in range(10)})
        runs = []
        for _ in range(2):
            rng = random.Random(99)
            runs.append([select_proposer(t, t.ids(), 0.3, rng) for _ in range(50)])
        assert runs[0] == runs[1]

    def test_delta_range_enforced(self):
        with pytest.raises(ValueError):
            select_proposer(WeightTable({"a": 1.0}), ["a"], 1.5, random.Random(0))
