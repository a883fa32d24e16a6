import heapq
import json
import math
import random
import weakref
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from pobsim.config import PenaltySettings, ScenarioConfig, RosterEntry, with_overrides
from pobsim.adversaries import PARAMS, StrategySpec
from pobsim.errors import ConfigError, RewardPoolError, TraceError
from pobsim.metrics import TrialTally
from pobsim import chain, netsim
from pobsim.presets import builtin_presets, bundled_trace_path
from pobsim.rewards import RewardSchedule, split_pool
from pobsim.rng import RngHub
from pobsim.netsim import (
    LatencyModel,
    TraceBlock,
    ledger_to_json,
    parse_trace,
    replay_epoch,
    replay_trace,
    quorum_time,
    run_trial,
    simulate_confirmation,
)
from pobsim.scoring import ActivenessInputs, activeness, diversity_index, total_utility
from pobsim.weights import WeightTable

from traces import make_synthetic_trace, write_trace


def stdlib_draw(model, rng):
    """Reference: one delay drawn with the stdlib call for the model's distribution."""
    if model.distribution == "fixed":
        return model.mean_ms
    if model.distribution == "uniform":
        return rng.uniform(0.0, 2.0 * model.mean_ms)
    return rng.expovariate(1.0 / model.mean_ms)


def heap_quorum_time(arrivals, weights, quorum):
    """Reference: push every vote arrival on an event queue keyed by
    (time, insertion order), pop until the exact yes-weight reaches quorum."""
    queue = [(at, seq) for seq, at in enumerate(arrivals)]
    heapq.heapify(queue)
    total, acc = reduce(add, weights, 0), 0.0  # summed left to right, as quorum_time does
    while queue:
        at, seq = heapq.heappop(queue)
        acc += weights[seq]
        if Fraction(acc) >= quorum * Fraction(total):
            return at
    return None


def assert_matches_heap(weights, quorum, latency, seed, processing_ms=5.0):
    """simulate_confirmation equals stdlib draws on twin streams, fed to the reference."""
    n = len(weights)
    got = simulate_confirmation([f"v{i:03d}" for i in range(n)], weights, quorum, latency,
                                random.Random(seed), random.Random(seed + 1), processing_ms)
    rng_proposal, rng_vote = random.Random(seed), random.Random(seed + 1)
    proposals = [stdlib_draw(latency, rng_proposal) for _ in range(n)]
    votes = [stdlib_draw(latency, rng_vote) for _ in range(n)]
    arrivals = [processing_ms + p + processing_ms + v for p, v in zip(proposals, votes)]
    assert got == (heap_quorum_time(arrivals, weights, quorum), proposals, votes)
    return got


class TestSimClock:
    """Votes are counted on the simulated clock: in arrival order, ties in
    list order."""

    def test_time_ordering(self):
        # the heaviest voter is listed first but arrives last
        assert quorum_time([40.0, 11.0, 12.0], [0.6, 0.2, 0.2], Fraction(1, 2)) == 40.0

    def test_ties_break_by_insertion(self):
        rng = random.Random(3)
        for quorum in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
            weights = [rng.choice([0.0, 0.1, 0.25, 1 / 3]) for _ in range(12)]
            arrivals = [30.0] * 12
            assert quorum_time(arrivals, weights, quorum) == 30.0
            assert heap_quorum_time(arrivals, weights, quorum) == 30.0
        # The running sum is a float: with the tiny weights counted first it
        # reaches the total exactly; counted last, they are rounded away.
        tiny = 2.0 ** -53
        assert quorum_time([30.0] * 3, [tiny, tiny, 1.0], Fraction(1)) == 30.0
        assert quorum_time([30.0, 30.0, 10.0], [tiny, tiny, 1.0], Fraction(1)) is None

    def test_equals_event_queue_reference(self):
        rng = random.Random(0)
        for _ in range(300):
            n = rng.randint(1, 40)
            arrivals = [rng.choice([10.0, 20.0, rng.uniform(0.0, 50.0)]) for _ in range(n)]
            weights = [rng.choice([0.0, rng.random(), 1.0 / n]) for _ in range(n)]
            quorum = rng.choice([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)])
            assert (quorum_time(arrivals, weights, quorum)
                    == heap_quorum_time(arrivals, weights, quorum))

    def test_dequeue_times_non_decreasing(self):
        # the draws and the scan together equal the event-queue reference
        rng = random.Random(0)
        for trial in range(200):
            n = rng.randint(1, 40)
            weights = [rng.choice([0.0, rng.random(), 1.0 / n]) for _ in range(n)]
            quorum = rng.choice([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)])
            dist = rng.choice(["exponential", "uniform"])
            assert_matches_heap(weights, quorum, LatencyModel(dist, 50.0), seed=trial)


class TestLatencyModel:
    @pytest.mark.parametrize("dist", ["exponential", "fixed", "uniform"])
    def test_mean_within_five_percent(self, dist):
        model = LatencyModel(dist, mean_ms=50.0)
        rng = random.Random(123)
        n = 10_000
        samples = [model.draws(rng, 1)[0] for _ in range(n)]
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
        t, proposals, votes = simulate_confirmation(
            ["a", "b"], [0.5, 0.5], Fraction(2, 3), LatencyModel("fixed", 10.0),
            random.Random(0), random.Random(1), 5.0)
        assert t == 30.0
        assert proposals == votes == [10.0] * 2

    def test_half_weight_below_two_thirds(self):
        # the first arrival carries half the weight: the block waits for the second
        assert quorum_time([12.0, 18.0], [0.5, 0.5], Fraction(2, 3)) == 18.0

    def test_exact_quorum_boundary_confirms(self):
        # yes-weight exactly equals quorum * total: 2 of 3 at quorum 2/3
        assert quorum_time([12.0, 18.0], [2.0, 1.0], Fraction(2, 3)) == 12.0
        # just below the boundary the first arrival is not enough
        assert quorum_time([12.0, 18.0], [2.0, 1.0 + 1e-9], Fraction(2, 3)) == 18.0
        for b in (1.0, 1.0 + 1e-15, 1.0 - 1e-15, 1.0 + 1e-9):
            assert_matches_heap([2.0, b], Fraction(2, 3), LatencyModel("uniform", 50.0), seed=5)

    def test_quorum_range(self):
        for quorum in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ValueError):
                quorum_time([10.0], [1.0], quorum)
            with pytest.raises(ValueError):
                simulate_confirmation(["a"], [1.0], quorum, LatencyModel("fixed", 10.0),
                                      random.Random(0), random.Random(1), 5.0)


class TestSimulateConfirmation:
    def test_deterministic(self):
        alive = [f"v{i}" for i in range(10)]
        model = LatencyModel("exponential", 50.0)
        results = []
        for _ in range(2):
            r1, r2 = random.Random(1), random.Random(2)
            results.append(simulate_confirmation(
                alive, [0.1] * 10, Fraction(2, 3), model, r1, r2, 5.0))
        assert results[0] == results[1]
        t, proposals, votes = results[0]
        assert t > 0 and len(proposals) == len(votes) == 10

    def test_fixed_latency_quorum_time(self):
        # all votes arrive at 2*(proc + delay); confirmation at that instant
        model = LatencyModel("fixed", 10.0)
        t, _, _ = simulate_confirmation(
            ["a", "b"], [0.5, 0.5], Fraction(1, 2), model,
            random.Random(0), random.Random(0), 5.0)
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


class TestTraceLines:
    """A trace error names the block's line in its file."""

    def test_bundled_trace_line_is_height_plus_two(self):
        trace = parse_trace(bundled_trace_path())
        assert all(tb.line == tb.height + 2 for tb in trace)  # one comment line first
        config = small_config()
        first = next(tb for tb in trace if tb.proposer not in config.validator_ids())
        with pytest.raises(TraceError) as err:
            netsim.check_trace(config, trace)
        assert err.value.line_no == first.height + 2
        assert f"proposer {first.proposer!r} (block height {first.height})" in str(err.value)

    def test_second_block_of_a_trace_from_height_one_is_line_two(self):
        trace = parse_trace(["1,v0001,propose-block,1.0,1.0,0.9,0",
                             "2,vXXXX,propose-block,1.0,1.0,0.9,0"])
        assert [tb.line for tb in trace] == [1, 2]
        with pytest.raises(TraceError) as err:
            netsim.check_trace(small_config(), trace)
        assert err.value.line_no == 2


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

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_ledger_replay_reproduces_after_state(self, mode):
        cfg = small_config(
            epochs=60,
            roster=(RosterEntry(9, 10, StrategySpec("stealth", {"fraud_rate": 0.2})),),
            penalty=PenaltySettings(mode=mode),
        )
        ledgers = run_trial(cfg, 11)
        # make sure slashes of this mode happened
        assert any(v.penalty_kind == mode for l in ledgers for v in l.verdicts)
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

    def test_retired_sybils_leave_no_streams(self, monkeypatch):
        hubs = []

        class RecordingHub(RngHub):
            def __init__(self, root_seed):
                super().__init__(root_seed)
                hubs.append(self)

        monkeypatch.setattr(netsim, "RngHub", RecordingHub)
        cfg = with_overrides(builtin_presets()["case-d-adaptive-sybil"].build(), epochs=100,
                             trials=1)
        ledgers = run_trial(cfg, cfg.seed, protocol="pob")
        retired = {e["id"] for l in ledgers for e in l.events if e["kind"] == "retire"}
        (hub,) = hubs
        owners = {name.split("/", 1)[1] for name in hub._streams
                  if name.startswith(("behavior/", "adversary/"))}
        assert retired
        assert not owners & retired
        assert owners <= set(ledgers[-1].roster)

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
                with pytest.raises(ConfigError):
                    run_trial(small_config(**bad), 1, protocol=protocol)
                with pytest.raises(ConfigError):
                    run_trial(small_config(**bad), 1, protocol=protocol, trace=trace)

    def test_latency_overhead_only_from_extra_stages(self):
        cfg = small_config(epochs=40, latency_distribution="fixed")
        pob = run_trial(cfg, 4, protocol="pob")
        pos = run_trial(cfg, 4, protocol="pos")
        # all honest: no watchdog rounds, so the gap is exactly one
        # processing stage per block
        for lp, lq in zip(pob, pos):
            assert lp.confirm_ms == pytest.approx(lq.confirm_ms + cfg.processing_ms)


class TestTrialSetup:
    """Each roster entry builds the actors of its own members."""

    def test_each_sybil_burst_entry_is_its_own_coalition(self):
        cfg = small_config(protocol="paired", n_validators=20, epochs=8, roster=(
            RosterEntry(10, 13, StrategySpec("sybil-burst",
                                             {"burst_epoch": 3, "fraud_value": 30.0})),
            RosterEntry(15, 20, StrategySpec("sybil-burst",
                                             {"burst_epoch": 5, "fraud_value": 10.0})),
        ))
        ids = cfg.validator_ids()
        first, second = ids[10:13], ids[15:20]
        for protocol in ("pob", "pos"):
            frauds = {(l.epoch, b.actor, b.base_utility)
                      for l in run_trial(cfg, 3, protocol=protocol)
                      for b in l.behaviors if b.is_fraud_ground_truth}
            # each entry bursts at its own epoch, splitting its own value among its members
            assert frauds == ({(3, v, -30.0 / 3) for v in first}
                              | {(5, v, -10.0 / 5) for v in second})
        state = netsim._setup_trial(cfg, RngHub(3), ids)
        subjects = first + second + ["v0000"]
        assert sorted(state.voters) == [state.pos_of[v] for v in first + second]
        for coalition in (first, second):
            for voter in coalition:
                vote = state.voters[state.pos_of[voter]]
                assert [vote(s) for s in subjects] == [s not in coalition for s in subjects]

    def test_long_range_fork_entries_pool_their_keys(self):
        cfg = small_config(n_validators=20, roster=(
            RosterEntry(15, 17, StrategySpec("long-range-fork", {"fork_depth": 5})),
            RosterEntry(2, 4, StrategySpec("long-range-fork",
                                           {"fork_depth": 5, "fraud_rate": 0.5})),
        ))
        state = netsim._setup_trial(cfg, RngHub(1), cfg.validator_ids())
        assert state.compromised == ["v0002", "v0003", "v0015", "v0016"]
        assert state.fork_depth == 5
        ledgers = run_trial(cfg, 1)
        (outcome,) = [e for e in ledgers[-1].events if e["kind"] == "fork-outcome"]
        assert outcome["checkpoint_height"] == sum(l.confirmed for l in ledgers) - 5

    @pytest.mark.parametrize("kind", [kind for kind in PARAMS if kind != "honest"])
    def test_unnamed_params_run_as_the_table_defaults(self, kind):
        named = {name: default for name, (default, _, _) in PARAMS[kind].items()
                 if default is not None}
        if kind == "adaptive-sybil":
            named["max_population"] = 20  # 2 x n_validators, the one config-dependent default
        bare, full = (small_config(epochs=60, roster=(RosterEntry(6, 10, StrategySpec(kind, p)),))
                      for p in ({}, named))
        for protocol in ("pob", "pos"):
            assert ([ledger_to_json(l) for l in run_trial(bare, 5, protocol=protocol)]
                    == [ledger_to_json(l) for l in run_trial(full, 5, protocol=protocol)])

    @pytest.mark.parametrize("ranges, kind, message", [
        ([(10, 13), (15, 18)], "adaptive-sybil", "already 'adaptive-sybil'"),
        ([(0, 10), (5, 12)], "stealth", "index 5 assigned twice"),
        ([(5, 3)], "stealth", r"\[5, 3\) is empty"),
    ], ids=["two-adaptive-sybil", "overlapping", "empty"])
    def test_run_trial_refuses_a_roster_the_loader_refuses(self, ranges, kind, message):
        cfg = small_config(n_validators=20, roster=tuple(
            RosterEntry(lo, hi, StrategySpec(kind, {})) for lo, hi in ranges))
        for protocol in ("pob", "pos"):
            with pytest.raises(ConfigError, match=message):
                run_trial(cfg, 1, protocol=protocol)


class TestSinglePassFacts:
    """The epoch's shared facts equal a naive per-actor recomputation."""

    def test_scores_activeness_and_chain_utility_match_naive(self, monkeypatch):
        blocks = []
        extend = netsim.extend_chain
        sorting_weight = chain.signer_weight
        sorted_sums = []

        def recording_extend_chain(*args):
            blocks.append(extend(*args))
            return blocks[-1]

        def counting_signer_weight(*args):
            sorted_sums.append(args)
            return sorting_weight(*args)

        monkeypatch.setattr(netsim, "extend_chain", recording_extend_chain)
        monkeypatch.setattr(chain, "signer_weight", counting_signer_weight)
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
                    assert l.scores[v] == reduce(add, (total_utility(b) for b in mine), 0)
                    mean_initiative = (reduce(add, (b.initiative for b in mine), 0) / len(mine)
                                       if mine else 0.0)
                    inputs = ActivenessInputs(len(mine), mean_actions, mean_initiative,
                                              diversity_index(b.kind for b in mine), cfg.betas)
                    assert l.activeness[v] == activeness(inputs)
            confirmed = [l for l in ledgers if l.confirmed]
            assert len(blocks) == len(confirmed) > 0
            assert sorted_sums == []  # extending the chain sorts no signer set
            cumulative = 0.0
            for l, block in zip(confirmed, blocks):
                cumulative += reduce(add, (total_utility(b) for b in l.behaviors), 0)
                assert block.cumulative_utility == cumulative
                # the roster sum is bit-identical to sorting the signer set
                assert block.signers == frozenset(l.weights_after)
                assert block.signer_weight == sorting_weight(block.signers,
                                                             WeightTable(l.weights_after))


class TestOneLoop:
    """A paired trial runs both protocols in one loop over one trial state."""

    @staticmethod
    def _config():
        return small_config(
            protocol="paired", epochs=20, oracle_rate=0.5, epsilon=0.5, newcomer_epoch=5,
            roster=(RosterEntry(8, 10, StrategySpec("stealth", {"fraud_rate": 0.3})),))

    @pytest.mark.parametrize("replay", [False, True], ids=["live", "griefer-under-trace"])
    def test_each_protocol_writes_the_ledgers_of_its_run_alone(self, replay):
        cfg, trace = self._config(), None
        if replay:  # the trace's proposer never draws as the proposer, a griefer neither
            cfg = with_overrides(cfg, roster=(RosterEntry(0, 2, StrategySpec("griefing")),))
            trace = make_synthetic_trace(20, 10, exploit_at=12, exploit_value=5.0, seed=2)
        paired = list(netsim.trial_epochs(cfg, 3, ("pob", "pos"), trace))
        assert [tuple(l.protocol for l in ledgers) for ledgers in paired] == [("pob", "pos")] * 20
        for k, protocol in enumerate(("pob", "pos")):
            alone = run_trial(cfg, 3, protocol=protocol, trace=trace)
            assert [ledger_to_json(ledgers[k]) for ledgers in paired] == list(
                map(ledger_to_json, alone))
        if not replay:
            assert any(pob.proposer != pos.proposer for pob, pos in paired)

    def test_paired_epoch_shares_its_draws_and_activeness(self, monkeypatch):
        calls = TestLazyLedger._counting(monkeypatch)
        for pob, pos in netsim.trial_epochs(self._config(), 3, ("pob", "pos")):
            assert pob.proposal_delays is pos.proposal_delays
            assert pob.vote_delays is pos.vote_delays
            for column in ("actor", "base_utility", "context_factor", "initiative", "fraud"):
                assert getattr(pob.behavior_rows, column) is getattr(pos.behavior_rows, column)
            assert pob.roster_activeness is pos.roster_activeness
            ledger_to_json(pob)
            ledger_to_json(pos)
        assert calls["activeness_column"] == 20  # once per epoch, for both ledgers

    @pytest.mark.parametrize("protocols", [(), ("pob", "pob"), ("paired",), ("pob", "pow")])
    def test_protocols_must_be_distinct_and_concrete(self, protocols):
        with pytest.raises(ValueError, match="distinct concrete protocols"):
            next(netsim.trial_epochs(small_config(), 1, protocols))

    @pytest.mark.parametrize("kind", ["griefing", "adaptive-sybil"])
    def test_protocol_dependent_rosters_run_alone(self, kind):
        cfg = small_config(roster=(RosterEntry(8, 10, StrategySpec(kind)),))
        trace = make_synthetic_trace(5, 8, exploit_at=None, exploit_value=0.0, seed=1)
        assert not netsim.shares_one_state(cfg, None)
        # under a trace no griefer draws as the proposer, but pob still retires Sybils
        assert netsim.shares_one_state(cfg, trace) == (kind == "griefing")
        with pytest.raises(ValueError, match="run each protocol alone"):
            next(netsim.trial_epochs(cfg, 1, ("pob", "pos")))
        assert len(list(netsim.trial_epochs(cfg, 1, ("pos",)))) == cfg.epochs


class TestLazyLedger:
    """A ledger computes its activeness and pool split when first read, so a
    trial whose sink reads neither pays for neither."""

    @staticmethod
    def _counting(monkeypatch):
        calls = {"split_pool": 0, "activeness_column": 0}
        for name in calls:
            real = getattr(netsim, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(netsim, name, counted)
        return calls

    def test_tally_only_trial_never_splits_the_pool(self, monkeypatch):
        calls = self._counting(monkeypatch)
        cfg = small_config(epochs=20, oracle_rate=0.5, epsilon=0.5)
        for protocol in ("pob", "pos"):
            run_trial(cfg, 3, protocol=protocol, sink=TrialTally(cfg, protocol).add)
        assert calls == {"split_pool": 0, "activeness_column": 0}
        ledgers = run_trial(cfg, 3)
        assert calls == {"split_pool": 0, "activeness_column": 0}
        for ledger in ledgers:
            ledger_to_json(ledger)
            ledger_to_json(ledger)
        assert calls == {"split_pool": 20, "activeness_column": 20}

    def test_lazy_columns_equal_an_eager_computation(self):
        cfg = with_overrides(builtin_presets()["case-d-adaptive-sybil"].build(), epochs=40,
                             trials=1)
        ledgers = run_trial(cfg, cfg.seed, protocol="pob")
        assert any(e["kind"] == "retire" for l in ledgers for e in l.events)
        schedule = RewardSchedule(cfg.r_total, cfg.resolved_r_base(), cfg.activity_threshold,
                                  cfg.epsilon)
        for l in ledgers:
            rows = l.behavior_rows
            mean_actions = len(rows.actor) / len(l.roster)
            eager = []
            for pos in range(len(l.roster)):
                mine = [i for i, actor in enumerate(rows.actor) if actor == pos]
                eager.append(activeness(ActivenessInputs(
                    len(mine), mean_actions, sum(rows.initiative[i] for i in mine) / len(mine),
                    diversity_index(rows.kind[i] for i in mine), cfg.betas)))
            assert l.roster_activeness == eager
            assert l.pool_split == split_pool(schedule, l.roster_weights_after,
                                              l.roster_scores, eager)
            assert l.latency_samples[0::2] == l.proposal_delays
            assert l.latency_samples[1::2] == l.vote_delays

    def test_oversubscribed_pool_fails_in_its_epoch_unread(self):
        # The newcomer's stipend oversubscribes the pool from its join epoch on,
        # by less than the loader's tolerance.
        cfg = small_config(epochs=12, newcomer_epoch=5, r_total=11.0, r_base=1.0 + 5e-11)
        for protocol in ("pob", "pos"):
            handed = []
            with pytest.raises(RewardPoolError, match="x 11 active"):
                run_trial(cfg, 2, protocol=protocol, sink=handed.append)
            assert [l.epoch for l in handed] == [0, 1, 2, 3, 4]

    def test_live_blocks_stay_within_the_fork_window(self, monkeypatch):
        live, peak = weakref.WeakSet(), []
        extend = netsim.extend_chain

        def tracked_extend(*args):
            block = extend(*args)
            live.add(block)
            return block

        monkeypatch.setattr(netsim, "extend_chain", tracked_extend)
        depth = 6
        cfg = small_config(n_validators=20, epochs=400, roster=(
            RosterEntry(16, 18, StrategySpec("long-range-fork", {"fork_depth": depth})),))
        for protocol in ("pob", "pos"):
            ledgers = run_trial(cfg, 4, protocol=protocol,
                                sink=lambda ledger: peak.append(len(live)))
            assert ledgers == [] and len(peak) == 400
            assert max(peak) <= depth + 2
            peak.clear()
        ledgers = run_trial(cfg, 4, protocol="pob")
        blocks = sum(l.confirmed for l in ledgers)
        (outcome,) = [e for e in ledgers[-1].events if e["kind"] == "fork-outcome"]
        assert blocks > 300 and outcome["checkpoint_height"] == blocks - depth


class TestReplay:
    def test_empty_trace(self):
        assert replay_trace([], small_config()) == []

    def test_unknown_proposer(self):
        trace = [TraceBlock(0, "vXXXX", *_rest())]
        with pytest.raises(TraceError):
            replay_trace(trace, small_config())

    def test_newcomer_proposes_only_once_joined(self):
        config = small_config(newcomer_epoch=2)
        trace = [TraceBlock(h, p, *_rest()) for h, p in enumerate(["v0001", "v0002", "newcomer"])]
        assert [l.proposer for l in replay_trace(trace, config)] == ["v0001", "v0002", "newcomer"]
        with pytest.raises(TraceError, match=r"'newcomer' \(block height 2\) .* at epoch 1$"):
            replay_trace(trace[1:], config)

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


class TestLatencyStreamPinning:
    """Confirmation draws stay the stdlib's, value for value and in order.

    No preset uses the fixed or uniform model, so the golden outputs
    cannot catch a drift there.
    """

    @pytest.mark.parametrize("dist", ["exponential", "fixed", "uniform"])
    def test_samples_equal_stdlib_on_twin_streams(self, dist):
        model = LatencyModel(dist, 37.5)
        alive = [f"v{i:03d}" for i in range(60)]
        streams = [random.Random(s) for s in (11, 12, 11, 12)]
        _, proposals, votes = simulate_confirmation(alive, [1.0 / 60] * 60, Fraction(2, 3),
                                                    model, streams[0], streams[1], 5.0)
        assert proposals == [stdlib_draw(model, streams[2]) for _ in alive]
        assert votes == [stdlib_draw(model, streams[3]) for _ in alive]
        samples = proposals + votes
        assert len(set(samples)) == (1 if dist == "fixed" else len(samples))
        for got, want in ((0, 2), (1, 3)):
            assert streams[got].getstate() == streams[want].getstate()

    @pytest.mark.parametrize("dist", ["exponential", "fixed", "uniform"])
    def test_sampler_draws_equal_stdlib(self, dist):
        model = LatencyModel(dist, 12.0)
        a, b = random.Random(5), random.Random(5)
        assert ([model.draws(a, 1)[0] for _ in range(100)]
                == [stdlib_draw(model, b) for _ in range(100)])
        assert a.getstate() == b.getstate()
