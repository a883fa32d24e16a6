import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from pobsim.scoring import (
    SINGLE_KIND_DIVERSITY,
    ActionKind,
    ActivenessInputs,
    BehaviorRecord,
    MotivationProfile,
    activeness,
    diversity_index,
    epoch_score,
    looks_scripted,
    motivation_utility,
    outcome_utility,
    total_utility,
)

MOT_NEUTRAL = MotivationProfile((0.0,), (1.0,))


def record(actor="a", epoch=0, u_b=1.0, phi=1.0, alpha=1.0, motivation=MOT_NEUTRAL,
           kind=ActionKind.PROPOSE, fraud=False):
    return BehaviorRecord(
        actor=actor, epoch=epoch, kind=kind, base_utility=u_b,
        context_factor=phi, initiative=alpha, motivation=motivation,
        is_fraud_ground_truth=fraud,
    )


class TestMotivationUtility:
    def test_single_hot_component(self):
        assert motivation_utility(MotivationProfile((1.0, 0.0), (0.7, 0.3))) == 0.7

    def test_all_zero_intensities(self):
        assert motivation_utility(MotivationProfile((0.0, 0.0, 0.0), (0.2, 0.3, 0.5))) == 0.0

    def test_three_component_dot_product(self):
        # oracle: 0.4*0.5 + 0.9*0.25 + 0.1*0.25 = 0.2 + 0.225 + 0.025 = 0.45
        m = MotivationProfile((0.4, 0.9, 0.1), (0.5, 0.25, 0.25))
        assert math.isclose(motivation_utility(m), 0.45, abs_tol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MotivationProfile((1.0, 2.0), (1.0,))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MotivationProfile((1.0, 1.0), (0.6, 0.6))

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            MotivationProfile((), ())

    @given(st.lists(st.tuples(st.floats(0, 10), st.floats(0.01, 1)), min_size=1, max_size=6))
    def test_permutation_invariance(self, pairs):
        intensities = tuple(p[0] for p in pairs)
        raw = [p[1] for p in pairs]
        weights = tuple(w / sum(raw) for w in raw)
        m = MotivationProfile(intensities, weights)
        rng = random.Random(0)
        order = list(range(len(pairs)))
        rng.shuffle(order)
        shuffled = MotivationProfile(
            tuple(intensities[i] for i in order), tuple(weights[i] for i in order)
        )
        assert math.isclose(motivation_utility(m), motivation_utility(shuffled), abs_tol=1e-9)


class TestOutcomeUtility:
    def test_plain_product(self):
        assert outcome_utility(record(u_b=10.0, phi=0.5, alpha=0.8)) == 4.0

    def test_identity_factors_keep_negative_base(self):
        assert outcome_utility(record(u_b=-100.0, phi=1.0, alpha=1.0)) == -100.0

    def test_zero_context_annihilates(self):
        assert outcome_utility(record(u_b=3.0, phi=0.0, alpha=0.9)) == 0.0

    def test_context_factor_range_enforced(self):
        with pytest.raises(ValueError):
            record(phi=1.5)
        with pytest.raises(ValueError):
            record(alpha=-0.1)

    @given(st.floats(-100, 100), st.floats(0, 1), st.floats(0, 1))
    def test_sign_matches_base(self, u_b, phi, alpha):
        value = outcome_utility(record(u_b=u_b, phi=phi, alpha=alpha))
        if u_b == 0 or phi == 0 or alpha == 0:
            assert value == 0.0
        else:
            # sign of the base, modulo underflow to zero
            assert value == 0.0 or (value > 0) == (u_b > 0)

    @given(st.floats(-50, 50), st.floats(0.01, 1), st.floats(0.01, 1), st.floats(0.1, 10))
    def test_linear_in_base_utility(self, u_b, phi, alpha, c):
        base = outcome_utility(record(u_b=u_b, phi=phi, alpha=alpha))
        scaled = outcome_utility(record(u_b=c * u_b, phi=phi, alpha=alpha))
        assert math.isclose(scaled, c * base, rel_tol=1e-9, abs_tol=1e-9)


class TestTotalUtility:
    def test_sum_of_components(self):
        m = MotivationProfile((1.0, 0.0), (0.7, 0.3))
        r = record(u_b=10.0, phi=0.5, alpha=0.8, motivation=m)
        assert math.isclose(total_utility(r), 4.7, abs_tol=1e-12)

    def test_all_zero_record(self):
        assert total_utility(record(u_b=0.0, phi=0.0, alpha=0.0)) == 0.0

    def test_fraud_record_oracle(self):
        # components: motivation 0.2, outcome -100 -> total -99.8
        m = MotivationProfile((0.4, 0.0), (0.5, 0.5))
        r = record(u_b=-100.0, phi=1.0, alpha=1.0, motivation=m, kind=ActionKind.FRAUD)
        assert math.isclose(total_utility(r), -99.8, abs_tol=1e-12)


class TestEpochScore:
    def test_no_matching_records(self):
        assert epoch_score([], "a", 0) == 0.0
        assert epoch_score([record(actor="b")], "a", 0) == 0.0
        assert epoch_score([record(epoch=3)], "a", 0) == 0.0

    def test_two_record_sum(self):
        m1 = MotivationProfile((1.0, 0.0), (0.7, 0.3))
        m2 = MotivationProfile((0.4, 0.0), (0.5, 0.5))
        records = [
            record(u_b=10.0, phi=0.5, alpha=0.8, motivation=m1),
            record(u_b=-100.0, phi=1.0, alpha=1.0, motivation=m2, kind=ActionKind.FRAUD),
        ]
        # per-record oracle: 4.7 and -99.8
        assert math.isclose(epoch_score(records, "a", 0), -95.1, abs_tol=1e-9)

    def test_singleton(self):
        assert epoch_score([record(u_b=1.0)], "a", 0) == total_utility(record(u_b=1.0))

    @given(st.lists(st.floats(-10, 10), max_size=8), st.lists(st.floats(-10, 10), max_size=8))
    def test_additive_over_concatenation(self, part_a, part_b):
        ra = [record(u_b=u) for u in part_a]
        rb = [record(u_b=u) for u in part_b]
        combined = epoch_score(ra + rb, "a", 0)
        assert math.isclose(
            combined, epoch_score(ra, "a", 0) + epoch_score(rb, "a", 0),
            rel_tol=1e-9, abs_tol=1e-9,
        )


class TestActiveness:
    def test_all_components_at_one(self):
        a = ActivenessInputs(10, 10.0, 1.0, 1.0, (0.2, 0.5, 0.3))
        assert math.isclose(activeness(a), 1.0, abs_tol=1e-12)

    def test_single_component(self):
        a = ActivenessInputs(5, 10.0, 0.0, 0.0, (1.0, 0.0, 0.0))
        assert activeness(a) == 0.5

    def test_weighted_blend_oracle(self):
        # oracle: 0.4*2 + 0.3*0.2 + 0.3*0.1 = 0.8 + 0.06 + 0.03 = 0.89
        a = ActivenessInputs(20, 10.0, 0.2, 0.1, (0.4, 0.3, 0.3))
        assert math.isclose(activeness(a), 0.89, abs_tol=1e-12)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            activeness(ActivenessInputs(1, 0.0, 0.5, 0.5))

    def test_betas_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ActivenessInputs(1, 1.0, 0.5, 0.5, (0.5, 0.5, 0.5))

    @given(
        st.integers(0, 40), st.integers(0, 40),
        st.floats(0, 1), st.floats(0, 1),
        st.floats(0, 1), st.floats(0, 1),
    )
    def test_monotone_in_each_input(self, s1, s2, a1, a2, d1, d2):
        lo = ActivenessInputs(min(s1, s2), 10.0, min(a1, a2), min(d1, d2))
        hi = ActivenessInputs(max(s1, s2), 10.0, max(a1, a2), max(d1, d2))
        assert activeness(hi) >= activeness(lo) - 1e-12


class TestAnomalyFlag:
    # looks_scripted(action count / network mean, mean initiative,
    # diversity, frequency threshold, quality threshold)
    def test_hyperactive_low_quality_flagged(self):
        assert looks_scripted(50 / 10.0, 0.05, 0.05, 3.0, 0.2) is True

    def test_normal_frequency_never_flagged(self):
        assert looks_scripted(10 / 10.0, 0.0, 0.0, 3.0, 0.2) is False

    def test_high_quality_not_flagged(self):
        assert looks_scripted(50 / 10.0, 0.9, 0.9, 3.0, 0.2) is False

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            looks_scripted(1 / 1.0, 0.5, 0.5, 0.0, 0.2)


class TestLabelIsolation:
    def test_protocol_modules_never_read_ground_truth(self):
        """The fraud label exists for measurement only.

        Protocol logic (scoring math, weights, committees, rewards, the
        rules of both protocols) must not mention it at all; the type
        declaration in scoring.py is the single allowed occurrence.
        """
        import inspect

        from pobsim import netsim, rewards, scoring, watchdog, weights

        for part in (weights, watchdog, rewards, netsim._PosRules, netsim._PobRules):
            source = inspect.getsource(part)
            assert "is_fraud_ground_truth" not in source, part.__name__

        # scoring declares the field (with its warning docstring) but no
        # scoring operation may consume it
        source = inspect.getsource(scoring)
        for name in ("motivation_utility", "outcome_utility", "total_utility",
                     "epoch_score", "activeness", "activeness_column",
                     "looks_scripted"):
            fn_source = inspect.getsource(getattr(scoring, name))
            assert "is_fraud_ground_truth" not in fn_source, name


class TestDiversity:
    def test_constructive_kinds_only(self):
        kinds = [ActionKind.PROPOSE, ActionKind.FRAUD, ActionKind.IDLE]
        assert diversity_index(kinds) == pytest.approx(1 / 3)

    def test_full_coverage(self):
        kinds = [ActionKind.PROPOSE, ActionKind.VALIDATE, ActionKind.ORACLE]
        assert diversity_index(kinds) == 1.0

    def test_empty(self):
        assert diversity_index([]) == 0.0


def _reference_record_class():
    """BehaviorRecord as a plain frozen dataclass with the generated __init__."""

    def __post_init__(self):
        if not 0.0 <= self.context_factor <= 1.0:
            raise ValueError(f"context_factor {self.context_factor} outside [0, 1]")
        if not 0.0 <= self.initiative <= 1.0:
            raise ValueError(f"initiative {self.initiative} outside [0, 1]")
        if self.epoch < 0:
            raise ValueError("epoch must be >= 0")

    return dataclasses.make_dataclass(
        "BehaviorRecord",
        [("actor", str), ("epoch", int), ("kind", ActionKind), ("base_utility", float),
         ("context_factor", float), ("initiative", float), ("motivation", MotivationProfile),
         ("is_fraud_ground_truth", bool, dataclasses.field(default=False))],
        namespace={"__post_init__": __post_init__},
        frozen=True, slots=True,
    )


ReferenceRecord = _reference_record_class()
RECORD_FIELDS = ["actor", "epoch", "kind", "base_utility", "context_factor", "initiative",
                 "motivation", "is_fraud_ground_truth"]
# Every field distinct, so a value written to the wrong slot shows.
RECORD_ARGS = ("v0007", 3, ActionKind.ORACLE, 1.25, 0.5, 0.75,
               MotivationProfile((0.2, 0.9), (0.4, 0.6)), True)


class TestBehaviorRecordSemantics:
    """The hand-written __init__ keeps every dataclass behavior of the record."""

    def test_fields_and_order(self):
        assert [f.name for f in dataclasses.fields(BehaviorRecord)] == RECORD_FIELDS
        assert [f.name for f in dataclasses.fields(ReferenceRecord)] == RECORD_FIELDS
        assert BehaviorRecord.__slots__ == tuple(RECORD_FIELDS)
        assert dataclasses.fields(BehaviorRecord)[-1].default is False

    def test_frozen(self):
        rec = BehaviorRecord(*RECORD_ARGS)
        assert not hasattr(rec, "__dict__")
        for name in RECORD_FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, name, getattr(rec, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(rec, name)
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
            rec.extra = 1

    @pytest.mark.parametrize("fraud", [False, True])
    def test_matches_generated_init(self, fraud):
        args = RECORD_ARGS[:-1] + (fraud,)
        ref = ReferenceRecord(*args)
        for rec in (BehaviorRecord(*args),
                    BehaviorRecord(**dict(zip(RECORD_FIELDS, args)))):
            assert repr(rec) == repr(ref)
            assert hash(rec) == hash(ref)
            assert dataclasses.asdict(rec) == dataclasses.asdict(ref)
            assert dataclasses.astuple(rec) == dataclasses.astuple(ref)
            assert tuple(getattr(rec, name) for name in RECORD_FIELDS) == args
            assert rec == BehaviorRecord(*args)
        assert BehaviorRecord(*RECORD_ARGS[:-1]) == BehaviorRecord(*RECORD_ARGS[:-1], False)

    def test_equality_sees_every_field(self):
        rec = BehaviorRecord(*RECORD_ARGS)
        changed = {"actor": "v0008", "epoch": 4, "kind": ActionKind.PROPOSE,
                   "base_utility": 1.5, "context_factor": 0.25, "initiative": 0.5,
                   "motivation": MOT_NEUTRAL, "is_fraud_ground_truth": False}
        for name, value in changed.items():
            other = dataclasses.replace(rec, **{name: value})
            assert getattr(other, name) == value
            assert other != rec
            assert repr(other) == repr(dataclasses.replace(ReferenceRecord(*RECORD_ARGS),
                                                           **{name: value}))

    def test_asdict_and_pickle(self):
        rec = BehaviorRecord(*RECORD_ARGS)
        as_dict = dataclasses.asdict(rec)
        assert list(as_dict) == RECORD_FIELDS
        assert as_dict["motivation"] == {"intensities": (0.2, 0.9), "weights": (0.4, 0.6)}
        copy = pickle.loads(pickle.dumps(rec))
        assert copy == rec and hash(copy) == hash(rec) and repr(copy) == repr(rec)

    def test_replace_checks_ranges(self):
        rec = BehaviorRecord(*RECORD_ARGS)
        with pytest.raises(ValueError, match=r"^initiative 1\.5 outside \[0, 1\]$"):
            dataclasses.replace(rec, initiative=1.5)
        with pytest.raises(ValueError, match=r"^epoch must be >= 0$"):
            dataclasses.replace(rec, epoch=-1)

    @pytest.mark.parametrize("name, value", [
        ("context_factor", 1.5), ("context_factor", -0.25), ("context_factor", math.nan),
        ("initiative", 2.0), ("initiative", -1e-9), ("initiative", math.nan),
        ("epoch", -1),
    ])
    def test_constructor_error_messages(self, name, value):
        kwargs = dict(zip(RECORD_FIELDS, RECORD_ARGS), **{name: value})
        with pytest.raises(ValueError) as expected:
            ReferenceRecord(**kwargs)
        with pytest.raises(ValueError) as got:
            BehaviorRecord(**kwargs)
        assert str(got.value) == str(expected.value)

    def test_checks_run_in_field_order(self):
        # Several bad fields: the first check's message wins, as before.
        kwargs = dict(zip(RECORD_FIELDS, RECORD_ARGS), context_factor=2.0, initiative=3.0,
                      epoch=-1)
        with pytest.raises(ValueError, match="^context_factor"):
            BehaviorRecord(**kwargs)
        del kwargs["context_factor"]
        with pytest.raises(ValueError, match="^initiative"):
            BehaviorRecord(context_factor=0.5, **kwargs)


class TestSingleKindDiversity:
    def test_table_is_diversity_index_of_one_kind(self):
        assert set(SINGLE_KIND_DIVERSITY) == set(ActionKind)
        for kind in ActionKind:
            assert SINGLE_KIND_DIVERSITY[kind] == diversity_index([kind])
