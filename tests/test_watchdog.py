import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from pobsim.adversaries import StrategySpec
from pobsim.config import PenaltySettings, RosterEntry, with_overrides
from pobsim.ledger import ledger_to_json
from pobsim.netsim import run_trial
from pobsim.presets import builtin_presets
from pobsim.scoring import ActionKind, BehaviorColumns, MotivationProfile
from pobsim.watchdog import (
    Penalty,
    compute_penalty,
    decide,
    process_epoch_suspicions,
    slash,
)

MOT = MotivationProfile((0.0,), (1.0,))
FRAUD = ActionKind.FRAUD


def seated(roster, subject, size, rng):
    """The ids of the committee one session on `subject` convenes, in voting order."""
    members = []

    def vote(member, subject):
        members.append(roster[member])
        return True

    at = roster.index(subject)
    cols = BehaviorColumns(0)
    cols.add(at, FRAUD, -1.0, 1.0, 1.0, MOT)
    voters = {m: lambda subject, m=m: vote(m, subject) for m in range(len(roster))}
    process_epoch_suspicions([(at, 0, 1, True)], roster, [1.0] * len(roster), cols,
                             PenaltySettings(), Fraction(2, 3), size, rng, {}, 1.0, voters)
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


def malicious_fraction(harmful, accuracy, size, rng, voters=None):
    """The malicious-vote fraction of one session's `size` members on roster position 0."""
    roster = [f"v{i:06d}" for i in range(size + 1)]
    cols = BehaviorColumns(0)
    cols.add(0, FRAUD if harmful else ActionKind.PROPOSE, -1.0 if harmful else 1.0,
             1.0, 1.0, MOT)
    _, (verdict,) = process_epoch_suspicions(
        [(0, 0, 1, harmful)], roster, [1.0] * len(roster), cols, PenaltySettings(),
        Fraction(2, 3), size, rng, {}, accuracy, voters or {})
    return verdict.malicious_fraction


class TestCommitteeVote:
    """A member without a coalition vote spots harm with the detection accuracy."""

    def test_perfect_detector_on_harmful(self):
        assert malicious_fraction(True, 1.0, 9, random.Random(0)) == 1.0

    def test_perfect_detector_on_beneficial(self):
        assert malicious_fraction(False, 1.0, 9, random.Random(0)) == 0.0

    def test_bernoulli_frequency(self):
        n = 100_000
        assert abs(malicious_fraction(True, 0.9, n, random.Random(11)) - 0.9) < 0.01
        assert abs(malicious_fraction(False, 0.9, n, random.Random(11)) - 0.1) < 0.01

    def test_one_draw_per_honest_member(self):
        # coalition votes draw nothing: the honest members draw, in position order
        rng, twin = random.Random(3), random.Random(3)
        voters = {pos: lambda subject: False for pos in range(1, 11, 2)}
        twin.sample(range(10), 10)
        expected = sum(twin.random() < 0.7 for _ in range(5))
        assert malicious_fraction(True, 0.7, 10, rng, voters) == expected / 10
        assert rng.getstate() == twin.getstate()

    def test_accuracy_range(self):
        for accuracy in (-0.0001, 1.0001):
            with pytest.raises(ValueError, match="detection_accuracy"):
                malicious_fraction(True, accuracy, 3, random.Random(0))


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
        out = compute_penalty(p, FRAUD, -0.1, 0)
        assert out.kind == "additive"
        assert math.isclose(out.value, 0.1, abs_tol=1e-12)

    def test_raised_coefficient(self):
        p = PenaltySettings(base_coefficient=1.5)
        out = compute_penalty(p, FRAUD, -0.1, 0)
        assert math.isclose(out.value, 0.15, abs_tol=1e-12)

    def test_double_sign_full_slash(self):
        p = PenaltySettings()
        out = compute_penalty(p, ActionKind.DOUBLE_SIGN, -1.0, 0)
        assert out.kind == "full"

    def test_magnitude_not_sign(self):
        # harmful behaviors carry negative base utility; the slash must
        # still remove weight
        p = PenaltySettings(base_coefficient=2.0)
        out = compute_penalty(p, FRAUD, -3.0, 0)
        assert out.value == pytest.approx(6.0)

    def test_escalation_monotone(self):
        p = PenaltySettings(base_coefficient=1.0, escalation=(1.0, 2.0, 4.0))
        values = [compute_penalty(p, FRAUD, -1.0, f).value for f in range(5)]
        assert values == [1.0, 2.0, 4.0, 4.0, 4.0]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_multiplicative_escalation_shrinks_retention(self):
        p = PenaltySettings(mode="multiplicative", rho_p=0.2, escalation=(1.0, 2.0))
        first = compute_penalty(p, FRAUD, -1.0, 0)
        second = compute_penalty(p, FRAUD, -1.0, 1)
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
            {} if counts is None else counts, 1.0, {})

    def test_no_reports(self):
        weights, verdicts = self.review([], columns())
        assert weights == self.weights
        assert verdicts == []

    def test_guilty_composition(self):
        # decide + compute_penalty + slash:
        # unanimous committee, penalty 1.0 * |-0.1| = 0.1 on weight 0.4
        counts = {}
        weights, verdicts = self.review([(3, 0, 1, True)], columns(("x", -0.1, ActionKind.FRAUD)),
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
        weights, verdicts = self.review([(3, 0, 1, False)], columns(("x", 0.5, ActionKind.PROPOSE)))
        assert weights == self.weights
        assert verdicts[0].guilty is False
        assert verdicts[0].penalty_applied == 0.0

    def test_duplicate_reports_one_session(self):
        # three reporters of one behavior: one session records them all
        weights, verdicts = self.review([(3, 0, 3, True)], columns(("x", -0.1, ActionKind.FRAUD)))
        assert len(verdicts) == 1
        assert verdicts[0].reporter_count == 3
        # one slash, not three
        assert weights[3] == pytest.approx(0.3)

    def test_deterministic_session_order(self):
        cols = columns(("x", -0.1, ActionKind.FRAUD), ("a", -0.2, ActionKind.FRAUD))
        _, verdicts = self.review([(3, 0, 1, True), (0, 1, 1, True)], cols)
        assert [(v.subject, v.behavior_index) for v in verdicts] == [("a", 1), ("x", 0)]

    def test_offense_count_escalates_across_calls(self):
        policy = PenaltySettings(base_coefficient=1.0, escalation=(1.0, 3.0))
        counts = {}
        cols = columns(("x", -0.1, ActionKind.FRAUD))
        weights, v1 = self.review([(3, 0, 1, True)], cols, [1.0] * 4, policy, random.Random(0), counts)
        _, v2 = self.review([(3, 0, 1, True)], cols, weights, policy, random.Random(1), counts)
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


def review_config():
    """`case-a-stealth` at 20 validators, where every row can convene a committee.

    One record each is an action ratio of 1, above the frequency threshold
    0.5, and an honest row's initiative (at most 0.3) and diversity (1/3)
    sit below the quality bar 0.5, so every honest row looks scripted and
    is reviewed though it is not harmful. Sybils bursting at epochs 3, 7
    and 11 cast coalition votes, and a stealth fraudster is convicted.
    """
    return with_overrides(
        builtin_presets()["case-a-stealth"].build(), n_validators=20, epochs=12, trials=1,
        honest_initiative_lo=0.1, honest_initiative_hi=0.3, anomaly_freq_threshold=0.5,
        anomaly_quality_threshold=0.5, committee_size=7, roster=(
            RosterEntry(15, 20, StrategySpec("sybil-burst", {"burst_epoch": 3,
                                                             "burst_every": 4})),
            RosterEntry(2, 3, StrategySpec("stealth", {"fraud_rate": 0.5}))))


def test_review_of_scripted_looking_rows_is_pinned():
    """The pob ledgers' bytes: the sha256 of every `ledger_to_json` line, in epoch order."""
    config = review_config()
    ledgers = run_trial(config, config.seed, protocol="pob")
    verdicts = [(l.behaviors[v.behavior_index], v) for l in ledgers for v in l.verdicts]
    assert (len(verdicts), sum(v.guilty for _, v in verdicts)) == (240, 22)
    assert any(b.base_utility >= 0.0 for b, _ in verdicts)
    assert any(b.is_fraud_ground_truth and b.actor >= "v0015" for b, _ in verdicts)
    digest = hashlib.sha256()
    for ledger in ledgers:
        digest.update((ledger_to_json(ledger) + "\n").encode())
    assert digest.hexdigest() == "785adf9a1a315eccc7091d7212b9ee759f040c271e300d403684a16dda128f33"
