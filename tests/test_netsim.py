import heapq
import json
import math
import random
from fractions import Fraction

import pytest

from pobsim.config import ScenarioConfig, RosterEntry
from pobsim.adversaries import StrategySpec
from pobsim.errors import ConfigError, TraceError
from pobsim import netsim
from pobsim.netsim import (
    LatencyModel,
    TraceBlock,
    ledger_to_json,
    make_synthetic_trace,
    parse_trace,
    replay_epoch,
    replay_trace,
    run_trial,
    simulate_confirmation,
    write_trace,
)
from pobsim.scoring import ActivenessInputs, activeness, diversity_index, total_utility


class ScriptedDelays:
    """Stands in for the random stream of an exponential LatencyModel:
    returns the listed delays in turn."""

    def __init__(self, delays):
        self._delays = iter(delays)

    def expovariate(self, _rate):
        return next(self._delays)


def confirm_with_delays(weight_of, quorum, prop_delays, vote_delays, processing_ms=5.0):
    return simulate_confirmation(
        list(weight_of), weight_of, quorum, LatencyModel("exponential", 50.0),
        ScriptedDelays(prop_delays), ScriptedDelays(vote_delays), processing_ms)


def heap_confirmation(alive, weight_of, quorum, latency, rng_proposal, rng_vote, processing_ms):
    """Reference: push every vote arrival on an event queue keyed by
    (time, insertion order), pop until the exact yes-weight reaches quorum."""
    queue, samples = [], []
    total = sum(weight_of[v] for v in alive)
    for seq, vid in enumerate(alive):
        d_prop = latency.sample(rng_proposal)
        d_vote = latency.sample(rng_vote)
        samples += [d_prop, d_vote]
        heapq.heappush(queue, (processing_ms + d_prop + processing_ms + d_vote, seq, vid))
    acc = 0.0
    while queue:
        at, _, vid = heapq.heappop(queue)
        acc += weight_of[vid]
        if Fraction(acc) >= quorum * Fraction(total):
            return True, at, samples
    return False, None, samples


def assert_matches_heap(alive, weight_of, quorum, latency, seed, processing_ms=5.0):
    args = (alive, weight_of, quorum, latency)
    got = simulate_confirmation(*args, random.Random(seed), random.Random(seed + 1), processing_ms)
    want = heap_confirmation(*args, random.Random(seed), random.Random(seed + 1), processing_ms)
    assert got == want
    return got


class TestSimClock:
    """Votes are counted on the simulated clock: in arrival order, ties in
    the order of the validator list."""

    def test_time_ordering(self):
        # the heaviest voter is listed first but arrives last
        weights = {"a": 0.6, "b": 0.2, "c": 0.2}
        confirmed, t, _ = confirm_with_delays(weights, Fraction(1, 2), [30.0, 1.0, 2.0],
                                              [0.0, 0.0, 0.0])
        assert confirmed and t == 5.0 + 30.0 + 5.0

    def test_ties_break_by_insertion(self):
        rng = random.Random(3)
        alive = [f"v{i:02d}" for i in range(12)]
        for quorum in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
            weight_of = {v: rng.choice([0.0, 0.1, 0.25, 1 / 3]) for v in alive}
            # every vote arrives at 2 * (processing + delay)
            assert assert_matches_heap(
                alive, weight_of, quorum, LatencyModel("fixed", 10.0), seed=1)[:2] == (True, 30.0)
        # The running sum is a float: with the tiny weights counted first it
        # reaches the total exactly; counted last, they are rounded away.
        tiny = 2.0 ** -53
        assert assert_matches_heap(
            ["a", "b", "c"], {"a": tiny, "b": tiny, "c": 1.0}, Fraction(1),
            LatencyModel("fixed", 10.0), seed=1)[:2] == (True, 30.0)

    def test_dequeue_times_non_decreasing(self):
        # equals the event-queue reference on random weights and delays
        rng = random.Random(0)
        for trial in range(200):
            n = rng.randint(1, 40)
            alive = [f"v{i:03d}" for i in range(n)]
            weight_of = {v: rng.choice([0.0, rng.random(), 1.0 / n]) for v in alive}
            quorum = rng.choice([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)])
            dist = rng.choice(["exponential", "uniform"])
            assert_matches_heap(alive, weight_of, quorum, LatencyModel(dist, 50.0), seed=trial)


class TestLatencyModel:
    @pytest.mark.parametrize("dist", ["exponential", "fixed", "uniform"])
    def test_mean_within_five_percent(self, dist):
        model = LatencyModel(dist, mean_ms=50.0)
        rng = random.Random(123)
        n = 10_000
        samples = [model.sample(rng) for _ in range(n)]
        assert all(s >= 0 for s in samples)
        assert abs(sum(samples) / n - 50.0) / 50.0 < 0.05

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            LatencyModel("gamma", 50.0)

    def test_positive_mean_required(self):
        with pytest.raises(ValueError):
            LatencyModel("fixed", 0.0)


class TestConfirmBlock:
    def test_all_yes_confirms(self):
        weights = {"a": 0.5, "b": 0.5}
        confirmed, t, samples = simulate_confirmation(
            ["a", "b"], weights, Fraction(2, 3), LatencyModel("fixed", 10.0),
            random.Random(0), random.Random(1), 5.0)
        assert confirmed and t == 30.0
        assert samples == [10.0] * 4

    def test_half_weight_below_two_thirds(self):
        # the first arrival carries half the weight: the block waits for the second
        weights = {"a": 0.5, "b": 0.5}
        confirmed, t, _ = confirm_with_delays(weights, Fraction(2, 3), [1.0, 4.0], [1.0, 4.0])
        assert confirmed and t == 5.0 + 4.0 + 5.0 + 4.0

    def test_exact_quorum_boundary_confirms(self):
        # yes-weight exactly equals quorum * total: 2 of 3 at quorum 2/3
        weights = {"a": 2.0, "b": 1.0}
        confirmed, t, _ = confirm_with_delays(weights, Fraction(2, 3), [1.0, 4.0], [1.0, 4.0])
        assert confirmed and t == 5.0 + 1.0 + 5.0 + 1.0
        # just below the boundary the first arrival is not enough
        weights = {"a": 2.0, "b": 1.0 + 1e-9}
        confirmed, t, _ = confirm_with_delays(weights, Fraction(2, 3), [1.0, 4.0], [1.0, 4.0])
        assert confirmed and t == 5.0 + 4.0 + 5.0 + 4.0
        for b in (1.0, 1.0 + 1e-15, 1.0 - 1e-15, 1.0 + 1e-9):
            assert_matches_heap(["a", "b"], {"a": 2.0, "b": b}, Fraction(2, 3),
                                LatencyModel("uniform", 50.0), seed=5)

    def test_quorum_range(self):
        for quorum in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ValueError):
                simulate_confirmation(["a"], {"a": 1.0}, quorum, LatencyModel("fixed", 10.0),
                                      random.Random(0), random.Random(1), 5.0)


class TestSimulateConfirmation:
    def test_deterministic(self):
        table = {f"v{i}": 0.1 for i in range(10)}
        model = LatencyModel("exponential", 50.0)
        results = []
        for _ in range(2):
            r1, r2 = random.Random(1), random.Random(2)
            results.append(simulate_confirmation(
                sorted(table), table, Fraction(2, 3), model, r1, r2, 5.0))
        assert results[0] == results[1]
        confirmed, t, samples = results[0]
        assert confirmed and t > 0 and len(samples) == 20

    def test_fixed_latency_quorum_time(self):
        # all votes arrive at 2*(proc + delay); confirmation at that instant
        table = {"a": 0.5, "b": 0.5}
        model = LatencyModel("fixed", 10.0)
        confirmed, t, _ = simulate_confirmation(
            ["a", "b"], table, Fraction(1, 2), model,
            random.Random(0), random.Random(0), 5.0)
        assert confirmed
        assert t == pytest.approx(30.0)


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        blocks = make_synthetic_trace(50, 10, exploit_at=25, exploit_value=9.0, seed=3)
        path = tmp_path / "trace.txt"
        write_trace(path, blocks, header="test trace")
        parsed = parse_trace(path)
        assert parsed == blocks

    def test_exploit_rows_become_fraud_with_negative_utility(self):
        blocks = parse_trace(["0,v0001,propose-block,7.5,1.0,0.9,1"])
        assert blocks[0].is_exploit
        assert blocks[0].kind.value == "fraud-attempt"
        assert blocks[0].base_utility == -7.5

    def test_field_count_error_carries_line_number(self):
        lines = ["# comment", "0,v0001,propose-block,1.0,1.0,0.9,0", "1,v0002,propose-block,1.0"]
        with pytest.raises(TraceError) as err:
            parse_trace(lines)
        assert err.value.line_no == 3

    def test_extra_field_rejected(self):
        with pytest.raises(TraceError):
            parse_trace(["0,v0001,propose-block,1.0,1.0,0.9,0,surprise"])

    def test_bad_kind(self):
        with pytest.raises(TraceError):
            parse_trace(["0,v0001,mine-block,1.0,1.0,0.9,0"])

    def test_bad_numeric(self):
        with pytest.raises(TraceError):
            parse_trace(["0,v0001,propose-block,abc,1.0,0.9,0"])

    def test_phi_range(self):
        with pytest.raises(TraceError):
            parse_trace(["0,v0001,propose-block,1.0,1.5,0.9,0"])

    def test_height_must_be_sequential(self):
        with pytest.raises(TraceError):
            parse_trace([
                "0,v0001,propose-block,1.0,1.0,0.9,0",
                "2,v0002,propose-block,1.0,1.0,0.9,0",
            ])

    def test_exploit_flag_must_be_binary(self):
        with pytest.raises(TraceError):
            parse_trace(["0,v0001,propose-block,1.0,1.0,0.9,2"])


def small_config(**kw):
    defaults = dict(protocol="pob", n_validators=10, epochs=30, trials=1, seed=7)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def with_overrides_observe(cfg, prob):
    import dataclasses
    return dataclasses.replace(cfg, observe_prob=prob)


class TestRunTrial:
    def test_zero_epochs(self):
        assert run_trial(small_config(epochs=0), 1) == []

    def test_paired_protocol_must_be_resolved(self):
        with pytest.raises(ValueError):
            run_trial(small_config(protocol="paired"), 1)

    def test_determinism_bit_identical(self):
        cfg = small_config(
            roster=(RosterEntry(9, 10, StrategySpec("stealth", {"fraud_rate": 0.2})),)
        )
        a = [ledger_to_json(l) for l in run_trial(cfg, 5)]
        b = [ledger_to_json(l) for l in run_trial(cfg, 5)]
        assert a == b

    def test_all_honest_no_verdicts(self):
        ledgers = run_trial(small_config(epochs=50), 3)
        assert all(len(l.verdicts) == 0 for l in ledgers)
        assert all(l.confirmed for l in ledgers)

    def test_weights_stay_normalized(self):
        ledgers = run_trial(small_config(epochs=40), 2)
        for l in ledgers:
            assert math.isclose(sum(l.weights_after.values()), 1.0, abs_tol=1e-9)

    def test_reward_conservation_each_epoch(self):
        cfg = small_config(epochs=40)
        for l in run_trial(cfg, 2):
            total = sum(p.total for p in l.payouts)
            if l.payouts:
                assert math.isclose(total, cfg.r_total, abs_tol=1e-9)

    def test_ledger_replay_reproduces_after_state(self):
        cfg = small_config(
            epochs=60,
            roster=(RosterEntry(9, 10, StrategySpec("stealth", {"fraud_rate": 0.2})),),
        )
        ledgers = run_trial(cfg, 11)
        assert any(l.verdicts for l in ledgers)  # make sure slashes happened
        for l in ledgers:
            weights, payouts = replay_epoch(l, cfg)
            assert weights == l.weights_after
            assert payouts == l.payouts

    def test_ledger_json_parses_canonically(self):
        ledgers = run_trial(small_config(epochs=3), 1)
        for l in ledgers:
            payload = json.loads(ledger_to_json(l))
            assert payload["epoch"] == l.epoch
            # canonical form: sorted keys
            assert list(payload) == sorted(payload)

    def test_committee_size_validated_at_runtime(self):
        with pytest.raises(ConfigError):
            run_trial(small_config(committee_size=50), 1)

    def test_zero_weight_sybil_joiners_never_propose(self):
        # with no baseline chance, a weight-0 joiner has no lottery mass
        cfg = small_config(
            delta=0.0, epochs=40,
            roster=(RosterEntry(8, 10, StrategySpec(
                "adaptive-sybil", {"join_weight": 0.0, "spawn_rate": 0.2})),),
        )
        ledgers = run_trial(cfg, 3)
        spawned = {e["id"] for l in ledgers for e in l.events if e.get("kind") == "join"}
        assert spawned  # replacements actually happened
        assert all(l.proposer not in spawned for l in ledgers)

    def test_partial_observation_probability(self):
        # with observe_prob 0 nobody files reports, so nothing is convicted
        cfg = small_config(
            epochs=40, observe_prob=0.0,
            roster=(RosterEntry(9, 10, StrategySpec("stealth", {"fraud_rate": 0.5})),),
        )
        ledgers = run_trial(cfg, 3)
        assert all(not l.verdicts for l in ledgers)
        # with observe_prob 1 the same frauds all reach committees
        cfg_full = with_overrides_observe(cfg, 1.0)
        ledgers_full = run_trial(cfg_full, 3)
        assert any(v.guilty for l in ledgers_full for v in l.verdicts)

    def test_betas_and_delta_checked_before_first_epoch(self):
        trace = make_synthetic_trace(5, 10, exploit_at=None, exploit_value=0.0, seed=1)
        for bad in (dict(betas=(0.5, 0.5, 0.5)), dict(betas=(1.5, -0.5, 0.0)), dict(delta=1.5)):
            for protocol in ("pob", "pos"):
                with pytest.raises(ValueError):
                    run_trial(small_config(**bad), 1, protocol=protocol)
                with pytest.raises(ValueError):
                    run_trial(small_config(**bad), 1, protocol=protocol, trace=trace)

    def test_latency_overhead_only_from_extra_stages(self):
        cfg = small_config(epochs=40, latency_distribution="fixed")
        pob = run_trial(cfg, 4, protocol="pob")
        pos = run_trial(cfg, 4, protocol="pos")
        # all honest: no watchdog rounds, so the gap is exactly one
        # processing stage per block
        for lp, lq in zip(pob, pos):
            assert lp.confirm_ms == pytest.approx(lq.confirm_ms + cfg.processing_ms)


class TestSinglePassFacts:
    """The epoch's shared facts equal a naive per-actor recomputation."""

    def test_scores_activeness_and_chain_utility_match_naive(self, monkeypatch):
        blocks = []
        extend = netsim.extend_chain

        def recording_extend_chain(*args, **kwargs):
            blocks.append(extend(*args, **kwargs))
            return blocks[-1]

        monkeypatch.setattr(netsim, "extend_chain", recording_extend_chain)
        cfg = small_config(
            epochs=80, oracle_rate=0.3, epsilon=0.5, betas=(0.5, 0.3, 0.2),
            roster=(RosterEntry(7, 10, StrategySpec("stealth", {"fraud_rate": 0.2})),),
        )
        for protocol in ("pob", "pos"):
            blocks.clear()
            ledgers = run_trial(cfg, 11, protocol=protocol)
            assert any(v.guilty for l in ledgers for v in l.verdicts) == (protocol == "pob")
            for l in ledgers:
                alive = sorted(l.weights_before)
                mean_actions = len(l.behaviors) / len(alive)
                for v in alive:
                    mine = [b for b in l.behaviors if b.actor == v]
                    assert l.scores[v] == sum(total_utility(b) for b in mine)
                    mean_initiative = sum(b.initiative for b in mine) / len(mine) if mine else 0.0
                    inputs = ActivenessInputs(len(mine), mean_actions, mean_initiative,
                                              diversity_index(b.kind for b in mine), cfg.betas)
                    assert l.activeness[v] == activeness(inputs)
            confirmed = [l for l in ledgers if l.confirmed]
            assert len(blocks) == len(confirmed) > 0
            cumulative = 0.0
            for l, block in zip(confirmed, blocks):
                cumulative += sum(total_utility(b) for b in l.behaviors)
                assert block.cumulative_utility == cumulative
                assert block.behaviors == l.behaviors


class TestReplay:
    def test_empty_trace(self):
        assert replay_trace([], small_config()) == []

    def test_unknown_proposer(self):
        trace = [TraceBlock(0, "vXXXX", *_rest())]
        with pytest.raises(TraceError):
            replay_trace(trace, small_config())

    def test_honest_trace_zero_guilty(self):
        trace = make_synthetic_trace(40, 10, exploit_at=None, exploit_value=0.0, seed=1)
        ledgers = replay_trace(trace, small_config())
        assert all(not l.verdicts for l in ledgers)

    def test_exploit_convicted_and_slashed(self):
        trace = make_synthetic_trace(40, 10, exploit_at=20, exploit_value=50.0, seed=1)
        ledgers = replay_trace(trace, small_config())
        culprit = trace[20].proposer
        guilty = [(v.subject, v.epoch) for l in ledgers for v in l.verdicts if v.guilty]
        assert guilty == [(culprit, 20)]
        w_before = ledgers[20].weights_before[culprit]
        w_after = ledgers[21].weights_before[culprit]
        assert w_after <= 0.2 * w_before


def _rest():
    from pobsim.scoring import ActionKind
    return (ActionKind.PROPOSE, 1.0, 1.0, 0.9, False)
