import random
import re

import pytest

from pobsim.adversaries import (
    PARAMS,
    AdaptiveSybilController,
    AdaptiveSybilStrategy,
    EpochContext,
    GriefingStrategy,
    HonestShape,
    HonestStrategy,
    StealthStrategy,
    StrategySpec,
    SybilBurstStrategy,
    SybilCoalition,
)
from pobsim.config import (DEFAULT_MOTIVATION_INTENSITIES, DEFAULT_MOTIVATION_WEIGHTS,
                           config_from_mapping)
from pobsim.errors import ConfigError
from pobsim.scoring import (ActionKind, BehaviorColumns, BehaviorRecord, MotivationProfile,
                            outcome_utility)


def shape():
    motivations = {
        kind: MotivationProfile(
            DEFAULT_MOTIVATION_INTENSITIES[kind.value], DEFAULT_MOTIVATION_WEIGHTS
        )
        for kind in ActionKind
    }
    return HonestShape(motivations=motivations)


def ctx(epoch=0, is_proposer=False, seed=0):
    return EpochContext(
        epoch=epoch,
        is_proposer=is_proposer,
        rng_behavior=random.Random(seed),
        rng_adversary=random.Random(seed + 1),
        shape=shape(),
    )


def behaviors(strategy, c, vid="v0"):
    """One epoch of `strategy` as records: what it emits as `vid`, built into records."""
    cols = BehaviorColumns(c.epoch)
    strategy.emit(c, cols, 0)
    return list(cols.records((vid,)))


def parsed(kind, given=None):
    """The StrategySpec that a roster entry of `kind` giving `given` stores."""
    return config_from_mapping({"protocol": "pob", "n_validators": 2, "roster": [
        {"range": [0, 1], "kind": kind, "params": given}]}).roster[0].spec


def params(kind, **given):
    """Every param of `kind` by name, as a roster entry giving `given` runs it."""
    spec = parsed(kind, given)
    return {name: spec.param(name) for name in PARAMS[kind]}


class TestStrategySpec:
    """A roster entry's kind and params are checked by config's parsers,
    each error at its path, and stored parsed."""

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="not one of") as err:
            parsed("mining")
        assert err.value.field == "roster[0].kind"

    def test_unknown_param(self):
        with pytest.raises(ConfigError, match="unknown key") as err:
            parsed("stealth", {"cleverness": 3})
        assert err.value.field == "roster[0].params.cleverness"

    def test_param_range(self):
        with pytest.raises(ConfigError, match=re.escape("2.0 outside (0, 1]")) as err:
            parsed("stealth", {"fraud_rate": 2.0})
        assert err.value.field == "roster[0].params.fraud_rate"

    def test_valid(self):
        given = {"fraud_rate": 0.05, "fraud_value": 10.0}
        assert parsed("stealth", given) == StrategySpec("stealth", given)

    def test_param_resolves_given_then_default(self):
        spec = parsed("sybil-burst", {"burst_epoch": 7, "fraud_value": 3})
        assert spec.param("burst_epoch") == 7 and isinstance(spec.param("burst_epoch"), int)
        assert spec.param("fraud_value") == 3.0 and isinstance(spec.param("fraud_value"), float)
        assert spec.param("burst_every") is None  # no default: the coalition bursts once
        assert spec.params == {"burst_epoch": 7, "fraud_value": 3.0}  # stored parsed
        assert parsed("long-range-fork").param("fork_depth") == 100
        with pytest.raises(ConfigError, match="found float") as err:
            parsed("sybil-burst", {"burst_epoch": 7.0})  # a count is an int, as epochs is
        assert err.value.field == "roster[0].params.burst_epoch"

    def test_counts_are_the_params_with_int_bounds(self):
        counts = {(kind, name) for kind, table in PARAMS.items()
                  for name, (_, lo, hi) in table.items() if isinstance(lo, int)}
        assert counts == {("sybil-burst", "sybil_count"), ("sybil-burst", "burst_epoch"),
                          ("sybil-burst", "burst_every"), ("adaptive-sybil", "max_population"),
                          ("long-range-fork", "fork_depth"), ("griefing", "empty_block_run")}
        for kind, table in PARAMS.items():
            assert all(hi is None or isinstance(hi, int) is isinstance(lo, int)
                       for _, lo, hi in table.values()), kind
            defaults = {name: d for name, (d, _, _) in table.items() if d is not None}
            stored = parsed(kind, defaults).params  # every default is in range
            assert stored == defaults
            assert all(type(value) is (int if isinstance(table[name][1], int) else float)
                       for name, value in stored.items())


class TestHonestStrategy:
    def test_one_positive_behavior_per_epoch(self):
        s = HonestStrategy()
        records = behaviors(s, ctx())
        assert len(records) == 1
        assert records[0].base_utility > 0
        assert records[0].kind == ActionKind.VALIDATE

    def test_never_emits_fraud(self):
        s = HonestStrategy()
        c = ctx()
        for epoch in range(10_000):
            c.epoch = epoch
            for r in behaviors(s, c):
                assert r.kind in (ActionKind.PROPOSE, ActionKind.VALIDATE, ActionKind.ORACLE)
                assert not r.is_fraud_ground_truth

    def test_honest_vote_delegates_to_model(self):
        # only a coalition strategy votes itself; the watchdog's honest model votes for the rest
        assert not hasattr(HonestStrategy(), "committee_vote")
        assert not hasattr(StealthStrategy(0.5, 1.0), "committee_vote")


class TestStealthStrategy:
    def test_rate_one_always_fraud(self):
        s = StealthStrategy(fraud_rate=1.0, fraud_value=10.0)
        records = behaviors(s, ctx())
        assert len(records) == 1
        assert records[0].kind == ActionKind.FRAUD
        assert records[0].base_utility == -10.0
        assert records[0].is_fraud_ground_truth

    def test_fraud_frequency(self):
        s = StealthStrategy(fraud_rate=0.05, fraud_value=10.0)
        c = ctx(seed=21)
        frauds = 0
        n = 10_000
        for epoch in range(n):
            c.epoch = epoch
            frauds += sum(r.is_fraud_ground_truth for r in behaviors(s, c))
        assert abs(frauds / n - 0.05) < 0.005

    def test_camouflage_is_honest_shaped(self):
        s = StealthStrategy(fraud_rate=0.0001, fraud_value=10.0)
        records = behaviors(s, ctx(seed=4))
        assert records[0].base_utility > 0
        assert not records[0].is_fraud_ground_truth


class TestSybilBurst:
    def make(self, n=10, burst_epoch=5, value=1.0):
        members = [f"s{i}" for i in range(n)]
        coalition = SybilCoalition(members, burst_epoch, value, None)
        return members, coalition

    def test_burst_splits_value(self):
        members, coalition = self.make(n=10, value=1.0)
        strategies = {m: SybilBurstStrategy(coalition) for m in members}
        records = []
        for m in members:
            records.extend(behaviors(strategies[m], ctx(epoch=5), m))
        assert len(records) == 10
        assert all(r.base_utility == pytest.approx(-0.1) for r in records)
        assert all(r.is_fraud_ground_truth for r in records)

    def test_camouflage_before_burst(self):
        _, coalition = self.make(burst_epoch=5)
        s = SybilBurstStrategy(coalition)
        records = behaviors(s, ctx(epoch=4), "s0")
        assert all(not r.is_fraud_ground_truth for r in records)

    def test_single_burst_by_default(self):
        _, coalition = self.make(burst_epoch=5)
        assert coalition.bursting(5)
        assert not coalition.bursting(6)
        assert not coalition.bursting(10)

    def test_repeating_burst(self):
        coalition = SybilCoalition(["s0"], 5, 1.0, burst_every=10)
        assert [e for e in range(40) if coalition.bursting(e)] == [5, 15, 25, 35]

    def test_committee_collusion(self):
        members, coalition = self.make()
        s = SybilBurstStrategy(coalition)
        assert s.committee_vote("s3") is False  # acquit coalition
        assert s.committee_vote("honest9") is True  # convict others


class TestGriefing:
    def test_empty_block_when_elected(self):
        s = GriefingStrategy(**params("griefing", empty_block_run=10, utility_epsilon=0.01))
        records = behaviors(s, ctx(is_proposer=True))
        assert len(records) == 1
        assert records[0].kind == ActionKind.PROPOSE
        assert records[0].base_utility == pytest.approx(0.01)
        assert records[0].initiative == pytest.approx(0.1)

    def test_never_negative_utility(self):
        s = GriefingStrategy(**params("griefing"))
        for epoch in range(200):
            for r in behaviors(s, ctx(epoch=epoch, is_proposer=epoch % 2 == 0, seed=epoch)):
                assert outcome_utility(r) >= 0.0
                assert not r.is_fraud_ground_truth

    def test_run_length_capped(self):
        s = GriefingStrategy(**params("griefing", empty_block_run=3))
        empties = 0
        for epoch in range(10):
            records = behaviors(s, ctx(epoch=epoch, is_proposer=True, seed=epoch))
            empties += sum(1 for r in records if r.base_utility <= 0.011)
        assert empties == 3

    def test_zero_run_is_honest(self):
        s = GriefingStrategy(**params("griefing", empty_block_run=0))
        records = behaviors(s, ctx(is_proposer=True))
        assert records[0].base_utility > 0.4


class TestAdaptiveSybil:
    def test_always_misbehaves(self):
        s = AdaptiveSybilStrategy({"s0"}, fraud_value=2.0)
        records = behaviors(s, ctx(), "s0")
        assert records[0].base_utility == -2.0
        assert records[0].is_fraud_ground_truth

    def test_controller_budget(self):
        c = AdaptiveSybilController(**params("adaptive-sybil", max_population=1000))
        c.register(["s0", "s1"])
        fresh, events = c.replacements(epoch=3, population=100, convicted_sybils=["s0", "s1"])
        assert len(fresh) == 2
        assert events == []
        assert set(fresh) <= c.coalition_members

    def test_controller_makes_every_member_strategy(self):
        c = AdaptiveSybilController(**params("adaptive-sybil", fraud_value=3.0,
                                             max_population=1000))
        c.register(["s0"])
        s = c.strategy()
        fresh, _ = c.replacements(epoch=0, population=100, convicted_sybils=["s0"])
        assert isinstance(s, AdaptiveSybilStrategy) and s.fraud_value == 3.0
        # a registered member's strategy acquits the identities spawned after it
        assert s.committee_vote(fresh[0]) is False
        assert c.strategy().coalition_members is s.coalition_members

    def test_controller_budget_caps_spawns(self):
        c = AdaptiveSybilController(**params("adaptive-sybil", max_population=1000))
        convicted = [f"s{i}" for i in range(30)]
        fresh, _ = c.replacements(epoch=0, population=100, convicted_sybils=convicted)
        assert len(fresh) == 10  # 10% of population

    def test_population_cap_stops_spawning(self):
        c = AdaptiveSybilController(**params("adaptive-sybil", spawn_rate=0.5,
                                             max_population=102))
        fresh, events = c.replacements(epoch=0, population=100, convicted_sybils=["a"] * 10)
        assert len(fresh) <= 2
        assert any(e["kind"] == "population-cap" for e in events)

    def test_fresh_names_unique(self):
        c = AdaptiveSybilController(**params("adaptive-sybil", max_population=1000))
        seen = set()
        for epoch in range(5):
            fresh, _ = c.replacements(epoch, 100, ["x"] * 3)
            for name in fresh:
                assert name not in seen
                seen.add(name)


def reference_honest_epoch(c, vid):
    """The honest records as built with rng.uniform and keyword arguments. A
    proposer's first record is a validate record too: the trial, not the
    strategy, makes it the propose record."""
    rng, s = c.rng_behavior, c.shape
    kind = ActionKind.VALIDATE
    records = [BehaviorRecord(
        actor=vid, epoch=c.epoch, kind=kind,
        base_utility=rng.uniform(s.base_utility_lo, s.base_utility_hi), context_factor=1.0,
        initiative=rng.uniform(s.initiative_lo, s.initiative_hi), motivation=s.motivations[kind],
    )]
    if s.oracle_rate > 0.0 and rng.random() < s.oracle_rate:
        records.append(BehaviorRecord(
            actor=vid, epoch=c.epoch, kind=ActionKind.ORACLE,
            base_utility=rng.uniform(0.1, 0.5), context_factor=1.0,
            initiative=rng.uniform(s.initiative_lo, s.initiative_hi),
            motivation=s.motivations[ActionKind.ORACLE],
        ))
    return records


class TestHonestStreamPinning:
    """Honest draws stay those of rng.uniform, value for value and in order."""

    @pytest.mark.parametrize("oracle_rate", [0.0, 0.5])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_records_equal_uniform_on_twin_streams(self, oracle_rate, seed):
        got, want = ctx(seed=seed), ctx(seed=seed)
        for c in (got, want):
            c.shape.oracle_rate = oracle_rate
            c.shape.base_utility_lo, c.shape.base_utility_hi = 0.3, 1.7
            c.shape.initiative_lo, c.shape.initiative_hi = 0.55, 0.95
        oracles = 0
        for epoch in range(50):
            for c in (got, want):
                c.epoch, c.is_proposer = epoch, epoch % 7 == 0
            records = behaviors(HonestStrategy(), got, "v0042")
            expected = reference_honest_epoch(want, "v0042")
            assert records == expected
            assert [repr(r) for r in records] == [repr(r) for r in expected]
            oracles += len(records) - 1
            assert got.rng_behavior.getstate() == want.rng_behavior.getstate()
        assert (oracles > 0) == (oracle_rate > 0.0)
        assert got.rng_adversary.getstate() == want.rng_adversary.getstate()
