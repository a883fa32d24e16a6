import itertools
import math
import random
from fractions import Fraction

import pytest

from pobsim.config import PenaltySettings
from pobsim.scoring import ActionKind, BehaviorColumns, BehaviorRecord, MotivationProfile
from pobsim.watchdog import (
    Penalty,
    committee_vote,
    compute_penalty,
    decide,
    process_epoch_suspicions,
    slash,
)

MOT = MotivationProfile((0.0,), (1.0,))


def behavior(actor="x", u_b=-1.0, kind=ActionKind.FRAUD, epoch=0):
    return BehaviorRecord(
        actor=actor, epoch=epoch, kind=kind, base_utility=u_b,
        context_factor=1.0, initiative=1.0, motivation=MOT,
    )


def seated(roster, subject, size, rng):
    """The ids of the committee one session on `subject` convenes, in voting order."""
    members = []

    def vote_fn(member, behavior):
        members.append(roster[member])
        return True

    at = roster.index(subject)
    cols = BehaviorColumns(0)
    cols.add(at, ActionKind.FRAUD, -1.0, 1.0, 1.0, MOT)
    process_epoch_suspicions([(at, 0, 1)], roster, [1.0] * len(roster), cols, PenaltySettings(),
                             Fraction(2, 3), size, rng, {}, vote_fn=vote_fn)
    return members


class TestFormCommittee:
    def test_full_complement(self):
        assert seated(["a", "b", "c", "d"], "a", 3, random.Random(0)) == ["b", "c", "d"]

    def test_size_zero(self):
        assert seated(["a", "b"], "a", 0, random.Random(0)) == []

    def test_size_too_large(self):
        with pytest.raises(ValueError):
            seated(["a", "b", "c"], "a", 3, random.Random(0))

    def test_subject_never_member(self):
        validators = [f"v{i:02d}" for i in range(20)]
        rng = random.Random(5)
        for _ in range(500):
            assert "v07" not in seated(validators, "v07", 8, rng)

    def test_members_distinct(self):
        rng = random.Random(2)
        members = seated([f"v{i:02d}" for i in range(50)], "v00", 30, rng)
        assert len(set(members)) == len(members) == 30

    def test_same_members_as_a_sample_of_the_sorted_other_ids(self):
        # random.sample's draws depend only on the pool's length and k, so
        # sampling positions seats whom sampling the sorted ids would.
        ids = [f"v{i:02d}" for i in range(30)]
        rng = random.Random(9)
        twin = random.Random()
        for subject in ("v00", "v13", "v29", "v13"):
            twin.setstate(rng.getstate())
            expected = sorted(twin.sample(sorted(v for v in ids if v != subject), 7))
            assert seated(ids, subject, 7, rng) == expected


class TestCommitteeVote:
    def test_perfect_detector_on_harmful(self):
        assert committee_vote("m", behavior(u_b=-5.0), 1.0, random.Random(0)) is True

    def test_perfect_detector_on_beneficial(self):
        assert committee_vote("m", behavior(u_b=5.0, kind=ActionKind.PROPOSE), 1.0,
                              random.Random(0)) is False

    def test_bernoulli_frequency(self):
        rng = random.Random(11)
        n = 100_000
        hits = sum(committee_vote("m", behavior(u_b=-1.0), 0.9, rng) for _ in range(n))
        assert abs(hits / n - 0.9) < 0.01

    def test_accuracy_range(self):
        with pytest.raises(ValueError):
            committee_vote("m", behavior(), 1.0001, random.Random(0))


class TestDecide:
    def test_two_thirds_vs_sixty_seven_hundredths(self):
        votes = [True, True, False]
        guilty_at_067, phi = decide(votes, Fraction(67, 100))
        assert phi == Fraction(2, 3)
        assert guilty_at_067 is False  # 2/3 < 67/100 exactly
        guilty_at_two_thirds, _ = decide(votes, Fraction(2, 3))
        assert guilty_at_two_thirds is True  # 2/3 >= 2/3 exactly

    def test_unanimous(self):
        guilty, phi = decide([True, True, True], Fraction(67, 100))
        assert guilty and phi == 1

    def test_no_votes_for_guilt(self):
        guilty, phi = decide([False, False, False], Fraction(1, 100))
        assert not guilty and phi == 0

    def test_empty_votes_rejected(self):
        with pytest.raises(ValueError):
            decide([], Fraction(1, 2))

    def test_theta_range(self):
        with pytest.raises(ValueError):
            decide([True], Fraction(0))


class TestComputePenalty:
    def test_base_case(self):
        p = PenaltySettings(base_coefficient=1.0)
        out = compute_penalty(p, behavior(u_b=-0.1), 0)
        assert out.kind == "additive"
        assert math.isclose(out.value, 0.1, abs_tol=1e-12)

    def test_raised_coefficient(self):
        p = PenaltySettings(base_coefficient=1.5)
        out = compute_penalty(p, behavior(u_b=-0.1), 0)
        assert math.isclose(out.value, 0.15, abs_tol=1e-12)

    def test_double_sign_full_slash(self):
        p = PenaltySettings()
        out = compute_penalty(p, behavior(kind=ActionKind.DOUBLE_SIGN), 0)
        assert out.kind == "full"

    def test_magnitude_not_sign(self):
        # harmful behaviors carry negative base utility; the slash must
        # still remove weight
        p = PenaltySettings(base_coefficient=2.0)
        out = compute_penalty(p, behavior(u_b=-3.0), 0)
        assert out.value == pytest.approx(6.0)

    def test_escalation_monotone(self):
        p = PenaltySettings(base_coefficient=1.0, escalation=(1.0, 2.0, 4.0))
        values = [compute_penalty(p, behavior(u_b=-1.0), f).value for f in range(5)]
        assert values == [1.0, 2.0, 4.0, 4.0, 4.0]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_multiplicative_escalation_shrinks_retention(self):
        p = PenaltySettings(mode="multiplicative", rho_p=0.2, escalation=(1.0, 2.0))
        first = compute_penalty(p, behavior(), 0)
        second = compute_penalty(p, behavior(), 1)
        assert first.value == pytest.approx(0.2)
        assert second.value == pytest.approx(0.04)


class TestApplyPenalty:
    def test_additive_composition(self):
        assert slash(0.4, Penalty("additive", 0.1)) == pytest.approx(0.3)

    def test_full_wipes_weight(self):
        assert slash(0.4, Penalty("full", 0.0)) == 0.0


ROSTER = ["a", "b", "c", "x"]


def columns(*rows):
    """Epoch-0 behavior columns over ROSTER, one row per (actor id, base utility, kind)."""
    cols = BehaviorColumns(0)
    for actor, u_b, kind in rows:
        cols.add(ROSTER.index(actor), kind, u_b, 1.0, 1.0, MOT)
    return cols


class TestProcessEpochSuspicions:
    def setup_method(self):
        self.weights = [0.2, 0.2, 0.2, 0.4]  # x holds 0.4
        self.policy = PenaltySettings(base_coefficient=1.0)

    def review(self, sessions, cols, weights=None, policy=None, rng=None, counts=None):
        return process_epoch_suspicions(
            sessions, ROSTER, self.weights if weights is None else weights, cols,
            policy or self.policy, Fraction(2, 3), 3, rng or random.Random(0),
            {} if counts is None else counts, detection_accuracy=1.0)

    def test_no_reports(self):
        weights, verdicts = self.review([], columns())
        assert weights == self.weights
        assert verdicts == []

    def test_guilty_composition(self):
        # decide + compute_penalty + slash:
        # unanimous committee, penalty 1.0 * |-0.1| = 0.1 on weight 0.4
        counts = {}
        weights, verdicts = self.review([(3, 0, 1)], columns(("x", -0.1, ActionKind.FRAUD)),
                                        counts=counts)
        assert weights[3] == pytest.approx(0.3)
        assert self.weights[3] == 0.4  # the input list is left as it was
        assert len(verdicts) == 1
        v = verdicts[0]
        assert v.guilty and v.malicious_fraction == 1.0
        assert (v.subject, v.epoch, v.behavior_index, v.committee_size) == ("x", 0, 0, 3)
        assert v.penalty_applied == pytest.approx(0.1)
        assert counts == {"x": 1}

    def test_not_guilty_leaves_table(self):
        weights, verdicts = self.review([(3, 0, 1)], columns(("x", 0.5, ActionKind.PROPOSE)))
        assert weights == self.weights
        assert verdicts[0].guilty is False
        assert verdicts[0].penalty_applied == 0.0

    def test_duplicate_reports_one_session(self):
        # three reporters of one behavior: one session records them all
        weights, verdicts = self.review([(3, 0, 3)], columns(("x", -0.1, ActionKind.FRAUD)))
        assert len(verdicts) == 1
        assert verdicts[0].reporter_count == 3
        # one slash, not three
        assert weights[3] == pytest.approx(0.3)

    def test_deterministic_session_order(self):
        cols = columns(("x", -0.1, ActionKind.FRAUD), ("a", -0.2, ActionKind.FRAUD))
        _, verdicts = self.review([(3, 0, 1), (0, 1, 1)], cols)
        assert [(v.subject, v.behavior_index) for v in verdicts] == [("a", 1), ("x", 0)]

    def test_offense_count_escalates_across_calls(self):
        policy = PenaltySettings(base_coefficient=1.0, escalation=(1.0, 3.0))
        counts = {}
        cols = columns(("x", -0.1, ActionKind.FRAUD))
        weights, v1 = self.review([(3, 0, 1)], cols, [1.0] * 4, policy, random.Random(0), counts)
        _, v2 = self.review([(3, 0, 1)], cols, weights, policy, random.Random(1), counts)
        assert v1[0].penalty_applied == pytest.approx(0.1)
        assert v2[0].penalty_applied == pytest.approx(0.3)
        assert counts == {"x": 2}


class TestFramingResistance:
    def test_exhaustive_up_to_size_nine(self):
        """An honest-majority committee can never convict a beneficial behavior.

        With accuracy 1 honest members vote not-malicious on a beneficial
        behavior; a framing coalition votes malicious. For every committee
        size up to 9 and every split where the honest fraction exceeds
        1 - theta, the verdict must stay not guilty.
        """
        theta = Fraction(2, 3)
        for size in range(1, 10):
            for adversarial in range(size + 1):
                honest = size - adversarial
                if Fraction(honest, size) <= 1 - theta:
                    continue  # framing assumption violated; no guarantee
                votes = [True] * adversarial + [False] * honest
                for perm in set(itertools.permutations(votes)):
                    guilty, phi = decide(list(perm), theta)
                    assert not guilty, (size, adversarial, phi)

    def test_break_condition_documented(self):
        # with honest fraction exactly 1 - theta the coalition reaches theta
        guilty, _ = decide([True, True, False], Fraction(2, 3))
        assert guilty  # 2 adversaries of 3 == theta: framing succeeds
