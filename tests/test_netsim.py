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
from pobsim.errors import ConfigError, TraceError
from pobsim.metrics import TrialTally
from pobsim import chain, netsim
from pobsim.presets import builtin_presets, bundled_trace_path
from pobsim.rewards import RewardSchedule, split_pool
from pobsim.rng import RngHub
from pobsim.ledger import ledger_to_json, replay_epoch
from pobsim.netsim import LatencyModel, run_trial
from pobsim.trace import TraceBlock, check_trace, parse_trace
from pobsim.scoring import (ActionKind, ActivenessInputs, activeness, diversity_index,
                            total_utility)
from pobsim.weights import WeightTable, quorum_time

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
    (time, insertion order), pop until the exact yes-weight reaches quorum.
    With no weight to vote, no quorum is reached."""
    queue = [(at, seq) for seq, at in enumerate(arrivals)]
    heapq.heapify(queue)
    total, acc = reduce(add, weights, 0), 0.0  # summed left to right, as quorum_time does
    while queue and total > 0:
        at, seq = heapq.heappop(queue)
        acc += weights[seq]
        if Fraction(acc) >= quorum * Fraction(total):
            return at
    return None


def scan(arrivals, weights, quorum):
    """`quorum_time` over the arrivals in their sorted order, as a trial passes it."""
    return quorum_time(arrivals, weights, quorum, sorted(range(len(arrivals)),
                                                         key=arrivals.__getitem__))


def confirm(weights, quorum, latency, rng_proposal, rng_vote, processing_ms=5.0):
    """A block's confirmation time and its proposal and vote delays, as a trial
    finds them: the arrivals drawn once, then the quorum scan in their order."""
    proposals, votes, arrivals, order = netsim._arrivals(len(weights), latency, rng_proposal,
                                                         rng_vote, processing_ms)
    return quorum_time(arrivals, weights, quorum, order), proposals, votes


def assert_matches_heap(weights, quorum, latency, seed, processing_ms=5.0):
    """The drawn confirmation equals stdlib draws on twin streams, fed to the reference."""
    n = len(weights)
    got = confirm(weights, quorum, latency, random.Random(seed), random.Random(seed + 1),
                  processing_ms)
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
        assert scan([40.0, 11.0, 12.0], [0.6, 0.2, 0.2], Fraction(1, 2)) == 40.0

    def test_ties_break_by_insertion(self):
        rng = random.Random(3)
        for quorum in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
            weights = [rng.choice([0.0, 0.1, 0.25, 1 / 3]) for _ in range(12)]
            arrivals = [30.0] * 12
            assert scan(arrivals, weights, quorum) == 30.0
            assert heap_quorum_time(arrivals, weights, quorum) == 30.0
        # The running sum is a float: with the tiny weights counted first it
        # reaches the total exactly; counted last, they are rounded away.
        tiny = 2.0 ** -53
        assert scan([30.0] * 3, [tiny, tiny, 1.0], Fraction(1)) == 30.0
        assert scan([30.0, 30.0, 10.0], [tiny, tiny, 1.0], Fraction(1)) is None

    def test_equals_event_queue_reference(self):
        rng = random.Random(0)
        for _ in range(300):
            n = rng.randint(1, 40)
            arrivals = [rng.choice([10.0, 20.0, rng.uniform(0.0, 50.0)]) for _ in range(n)]
            weights = [rng.choice([0.0, rng.random(), 1.0 / n]) for _ in range(n)]
            quorum = rng.choice([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)])
            assert (scan(arrivals, weights, quorum)
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
        # A LatencyModel is made only from a config, which refuses the value.
        with pytest.raises(ConfigError) as err:
            small_config(latency_distribution="gamma", latency_mean_ms=50.0)
        assert err.value.field == "latency_distribution"

    def test_positive_mean_required(self):
        with pytest.raises(ConfigError) as err:
            small_config(latency_distribution="fixed", latency_mean_ms=0.0)
        assert err.value.field == "latency_mean_ms"


class TestConfirmBlock:
    def test_all_yes_confirms(self):
        t, proposals, votes = confirm([0.5, 0.5], Fraction(2, 3), LatencyModel("fixed", 10.0),
                                      random.Random(0), random.Random(1))
        assert t == 30.0
        assert proposals == votes == [10.0] * 2

    def test_half_weight_below_two_thirds(self):
        # the first arrival carries half the weight: the block waits for the second
        assert scan([12.0, 18.0], [0.5, 0.5], Fraction(2, 3)) == 18.0

    def test_exact_quorum_boundary_confirms(self):
        # yes-weight exactly equals quorum * total: 2 of 3 at quorum 2/3
        assert scan([12.0, 18.0], [2.0, 1.0], Fraction(2, 3)) == 12.0
        # just below the boundary the first arrival is not enough
        assert scan([12.0, 18.0], [2.0, 1.0 + 1e-9], Fraction(2, 3)) == 18.0
        for b in (1.0, 1.0 + 1e-15, 1.0 - 1e-15, 1.0 + 1e-9):
            assert_matches_heap([2.0, b], Fraction(2, 3), LatencyModel("uniform", 50.0), seed=5)

    def test_no_weight_confirms_nothing(self):
        # With every weight at zero the target is zero; no vote may reach it.
        for n in (1, 3):
            assert scan([10.0 * (i + 1) for i in range(n)], [0.0] * n, Fraction(2, 3)) is None
        t, _, _ = confirm([0.0, 0.0], Fraction(2, 3), LatencyModel("fixed", 10.0),
                          random.Random(0), random.Random(1))
        assert t is None

    def test_quorum_range(self):
        for quorum in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ValueError):
                quorum_time([10.0], [1.0], quorum, [0])
            with pytest.raises(ValueError):
                confirm([1.0], quorum, LatencyModel("fixed", 10.0), random.Random(0),
                        random.Random(1))


class TestSimulateConfirmation:
    def test_deterministic(self):
        model = LatencyModel("exponential", 50.0)
        results = []
        for _ in range(2):
            r1, r2 = random.Random(1), random.Random(2)
            results.append(confirm([0.1] * 10, Fraction(2, 3), model, r1, r2))
        assert results[0] == results[1]
        t, proposals, votes = results[0]
        assert t > 0 and len(proposals) == len(votes) == 10

    def test_fixed_latency_quorum_time(self):
        # all votes arrive at 2*(proc + delay); confirmation at that instant
        model = LatencyModel("fixed", 10.0)
        t, _, _ = confirm([0.5, 0.5], Fraction(1, 2), model, random.Random(0), random.Random(0))
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

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("exploit", ["0", "1"])
    def test_non_finite_utility_rejected(self, value, exploit):
        lines = ["1,v0001,propose-block,1.0,1.0,1.0,0",
                 f"2,v0002,propose-block,{value},1.0,1.0,{exploit}"]
        with pytest.raises(TraceError, match=r"^trace line 2: base_utility -?(inf|nan) "
                                             r"is not finite$"):
            parse_trace(lines)

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
            check_trace(config, trace)
        assert err.value.line_no == first.height + 2
        assert f"proposer {first.proposer!r} (block height {first.height})" in str(err.value)

    def test_second_block_of_a_trace_from_height_one_is_line_two(self):
        trace = parse_trace(["1,v0001,propose-block,1.0,1.0,0.9,0",
                             "2,vXXXX,propose-block,1.0,1.0,0.9,0"])
        assert [tb.line for tb in trace] == [1, 2]
        with pytest.raises(TraceError) as err:
            check_trace(small_config(), trace)
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

    def test_pos_chain_with_every_stake_slashed_confirms_nothing(self):
        # Both validators are detected in epoch 0 and slashed in full at once:
        # from epoch 1 no stake is left, and no block confirms on zero weight.
        cfg = small_config(protocol="pos", n_validators=2, epochs=5, seed=0,
                           pos_slash_delay=0, pos_slash_fraction=1.0,
                           roster=(RosterEntry(0, 2, StrategySpec("adaptive-sybil", {})),))
        ledgers = run_trial(cfg, 0)
        assert ledgers[0].confirmed and ledgers[0].confirm_ms is not None
        for ledger in ledgers[1:]:
            assert list(ledger.weights_before.values()) == [0.0, 0.0]
            assert (ledger.confirmed, ledger.confirm_ms) == (False, None)

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

    @pytest.mark.parametrize("oracle_rate", [0.0, 0.5])
    def test_proposer_row_is_a_propose_record(self, oracle_rate):
        # Every validator draws a validate record; the trial makes the proposer's
        # first row its propose record, with the propose motivation and utility.
        cfg = small_config(epochs=20, oracle_rate=oracle_rate)
        propose_motivation = netsim._build_motivations(cfg)[ActionKind.PROPOSE]
        for ledger in run_trial(cfg, 3, protocol="pob"):
            rows, proposer = ledger.behavior_rows, ledger.proposer
            first = rows.actor.index(ledger.roster.index(proposer))
            assert [i for i, k in enumerate(rows.kind) if k is ActionKind.PROPOSE] == [first]
            assert rows.motivation[first] == propose_motivation
            record = ledger.behaviors[first]
            assert (record.actor, record.kind) == (proposer, ActionKind.PROPOSE)
            mine = [total_utility(b) for b in ledger.behaviors if b.actor == proposer]
            assert ledger.roster_scores[ledger.roster.index(proposer)] == reduce(add, mine, 0.0)

    def test_all_honest_no_verdicts(self):
        ledgers = run_trial(small_config(epochs=50), 3)
        assert all(len(l.verdicts) == 0 for l in ledgers)
        assert all(l.confirmed for l in ledgers)

    def test_weights_stay_normalized(self):
        ledgers = run_trial(small_config(epochs=40), 2)
        for l in ledgers:
            assert math.isclose(sum(l.roster_weights_after), 1.0, abs_tol=1e-9)

    def test_reward_conservation_each_epoch(self):
        cfg = small_config(epochs=40)
        for l in run_trial(cfg, 2):
            total = sum(l.pool_split.total)
            if l.pool_split.actives:
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
            weights, split = replay_epoch(l, cfg)
            assert weights == l.roster_weights_after
            assert split == l.pool_split

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
        """A retirement forgets the id: its member entry (strategy and streams),
        its coalition membership and its offense count."""
        started = []
        start_trial = netsim._start_trial

        def capturing_start(*args):
            started.append(start_trial(*args))
            return started[-1]

        monkeypatch.setattr(netsim, "_start_trial", capturing_start)
        cfg = with_overrides(builtin_presets()["case-d-adaptive-sybil"].build(), epochs=100,
                             trials=1)
        ledgers = run_trial(cfg, cfg.seed, protocol="pob")
        retired = {e["id"] for l in ledgers for e in l.events if e["kind"] == "retire"}
        ((state, (rules,)),) = started
        alive = set(state.alive)
        assert retired and not retired & alive
        assert set(state.members) == alive
        assert state.sybil_controller.coalition_members <= alive
        assert set(rules.offense_counts) <= alive

    @pytest.mark.parametrize("name", ["case-d-adaptive-sybil", "case-b-fairness-100"])
    def test_each_consumer_asks_for_a_stream_once(self, name, monkeypatch):
        """Each validator's streams are made once, when it joins, and each rules
        object asks for its own streams once: only the two rules over one paired
        state ask one hub for the same name, `election`."""
        asked = []  # per hub, each name asked of it

        class RecordingHub(RngHub):
            def __init__(self, root_seed):
                super().__init__(root_seed)
                asked.append([])

            def stream(self, name):
                asked[-1].append(name)
                return super().stream(name)

        monkeypatch.setattr(netsim, "RngHub", RecordingHub)
        cfg = builtin_presets()[name].build()
        protocols = ("pob", "pos") if cfg.protocol == "paired" else (cfg.protocol,)
        if cfg.newcomer_epoch is not None:
            cfg = with_overrides(cfg, epochs=cfg.newcomer_epoch + 2)
        events = [e for ledgers in netsim.trial_epochs(cfg, cfg.seed, protocols)
                  for ledger in ledgers for e in ledger.events]
        assert "join" in {e["kind"] for e in events}  # the roster changed
        (names,) = asked
        repeated = {n: names.count(n) for n in set(names) if names.count(n) > 1}
        assert repeated == ({"election": 2} if len(protocols) == 2 else {})

    def test_roster_is_rebuilt_at_most_once_per_epoch(self, monkeypatch):
        """The full-scale adaptive-Sybil trial retires and respawns after most
        epochs; each epoch's retirements and the next epoch's joins are one
        rebuild, and set-up is one more."""
        rebuilds = []
        set_roster = netsim._set_roster

        def counting_set_roster(state, alive):
            rebuilds.append(len(alive))
            set_roster(state, alive)

        monkeypatch.setattr(netsim, "_set_roster", counting_set_roster)
        cfg = builtin_presets()["case-d-adaptive-sybil"].build()
        ledgers = run_trial(cfg, cfg.seed, protocol="pob")
        changed = [l for l in ledgers if any(e["kind"] in ("retire", "join") for e in l.events)]
        assert len(ledgers) == cfg.epochs and len(changed) > cfg.epochs // 2
        assert len(rebuilds) <= cfg.epochs + 1

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

    def test_each_sybil_burst_entry_is_its_own_coalition(self, monkeypatch):
        cfg = small_config(protocol="paired", n_validators=20, epochs=8, roster=(
            RosterEntry(10, 13, StrategySpec("sybil-burst",
                                             {"burst_epoch": 3, "fraud_value": 30.0})),
            RosterEntry(15, 20, StrategySpec("sybil-burst",
                                             {"burst_epoch": 5, "fraud_value": 10.0})),
        ))
        ids = cfg.validator_ids()
        first, second = ids[10:13], ids[15:20]
        process, committees = netsim.process_epoch_suspicions, []

        def spy(*args):
            committees.append(args[-1])  # pob's review hands the coalition votes last
            return process(*args)

        monkeypatch.setattr(netsim, "process_epoch_suspicions", spy)
        for protocol in ("pob", "pos"):
            frauds = {(l.epoch, b.actor, b.base_utility)
                      for l in run_trial(cfg, 3, protocol=protocol)
                      for b in l.behaviors if b.is_fraud_ground_truth}
            # each entry bursts at its own epoch, splitting its own value among its members
            assert frauds == ({(3, v, -30.0 / 3) for v in first}
                              | {(5, v, -10.0 / 5) for v in second})
        assert committees  # both bursts convene pob committees
        subjects = first + second + ["v0000"]
        for voters in committees:  # the roster stays the sorted ids
            assert sorted(voters) == [ids.index(v) for v in first + second]
            for coalition in (first, second):
                for voter in coalition:
                    vote = voters[ids.index(voter)]
                    assert [vote(s) for s in subjects] == [s not in coalition for s in subjects]

    def test_long_range_fork_entries_pool_their_keys(self):
        cfg = small_config(n_validators=20, roster=(
            RosterEntry(15, 17, StrategySpec("long-range-fork", {"fork_depth": 5})),
            RosterEntry(2, 4, StrategySpec("long-range-fork",
                                           {"fork_depth": 5, "fraud_rate": 0.5})),
        ))
        _, (rules,) = netsim._start_trial(cfg, 1, ("pob",))
        assert rules.compromised == ["v0002", "v0003", "v0015", "v0016"]
        assert rules.fork_depth == 5
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
        for protocol in ("pob", "pos"):
            with pytest.raises(ConfigError, match=message):
                run_trial(small_config(n_validators=20, roster=tuple(
                    RosterEntry(lo, hi, StrategySpec(kind, {})) for lo, hi in ranges)),
                    1, protocol=protocol)


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
        # Stealth frauds from keys that fork at trial end: only pob keeps a chain.
        cfg = small_config(
            epochs=80, oracle_rate=0.3, epsilon=0.5, betas=(0.5, 0.3, 0.2),
            roster=(RosterEntry(7, 10, StrategySpec("long-range-fork", {"fraud_rate": 0.2})),),
        )
        for protocol in ("pob", "pos"):
            blocks.clear()
            sorted_sums.clear()
            ledgers = run_trial(cfg, 11, protocol=protocol)
            assert any(v.guilty for l in ledgers for v in l.verdicts) == (protocol == "pob")
            for l in ledgers:
                alive = sorted(l.weights_before)
                mean_actions = len(l.behaviors) / len(alive)
                for pos, v in enumerate(alive):
                    mine = [b for b in l.behaviors if b.actor == v]
                    assert l.roster_scores[pos] == reduce(add, (total_utility(b) for b in mine), 0)
                    mean_initiative = (reduce(add, (b.initiative for b in mine), 0) / len(mine)
                                       if mine else 0.0)
                    inputs = ActivenessInputs(len(mine), mean_actions, mean_initiative,
                                              diversity_index(b.kind for b in mine), cfg.betas)
                    assert l.roster_activeness[pos] == activeness(inputs)
            confirmed = [l for l in ledgers if l.confirmed]
            assert len(confirmed) > 0
            assert len(blocks) == (len(confirmed) if protocol == "pob" else 0)
            # extending the chain sorts no signer set; pob's fork choice at trial end
            # sorts each of its two tips' signers
            assert len(sorted_sums) == (2 if protocol == "pob" else 0)
            cumulative = 0.0
            for l, block in zip(confirmed, blocks):
                cumulative += reduce(add, (total_utility(b) for b in l.behaviors), 0)
                assert block.cumulative_utility == cumulative
                # the roster sum is bit-identical to sorting the signer set
                weights_after = dict(zip(l.roster, l.roster_weights_after))
                assert block.signers == frozenset(weights_after)
                assert block.signer_weight == sorting_weight(block.signers,
                                                             WeightTable(weights_after))


class TestRulesOwnWhatOnlyTheyRead:
    """Each protocol's rules own their streams, and only a fork keeps a chain."""

    def test_no_block_is_built_that_no_fork_reads(self, monkeypatch):
        calls = []
        extend = netsim.extend_chain

        def counting_extend_chain(*args):
            calls.append(args)
            return extend(*args)

        monkeypatch.setattr(netsim, "extend_chain", counting_extend_chain)
        presets = builtin_presets()
        stealth = with_overrides(presets["case-a-stealth"].build(), epochs=20, protocol="paired")
        assert len(list(netsim.trial_epochs(stealth, stealth.seed, ("pob", "pos")))) == 20
        replayed = presets["case-c-replay"].build()
        window = parse_trace(bundled_trace_path())[480:520]  # the benchmark's golden window
        assert len(list(netsim.trial_epochs(replayed, replayed.seed, ("pob", "pos"),
                                            window))) == 40
        assert calls == []
        long_range = with_overrides(presets["case-d-long-range"].build(), epochs=30)
        for protocol in ("pob", "pos"):
            ledgers = run_trial(long_range, long_range.seed, protocol=protocol)
            confirmed = sum(l.confirmed for l in ledgers)
            assert confirmed > 0
            assert len(calls) == (confirmed if protocol == "pob" else 0)
            forks = [e for l in ledgers for e in l.events if e["kind"] == "fork-outcome"]
            assert len(forks) == (protocol == "pob")
            calls.clear()

    @pytest.mark.parametrize("protocol, streams", [
        ("pob", {"election_rng": "election", "committee_rng": "committee",
                 "watchdog_rng": "latency/watchdog", "observe_rng": "observe"}),
        ("pos", {"election_rng": "election", "detect_rng": "pos-detection"}),
    ])
    def test_each_rules_object_draws_its_own_streams(self, protocol, streams):
        config = small_config(observe_prob=0.5)

        def draws(rules):
            return {attr: [getattr(rules, attr).random() for _ in range(5)] for attr in streams}

        # What the hub's stream of each name draws from its start.
        hub = RngHub(3)
        expected = {}
        for attr, name in streams.items():
            rng = hub.stream(name)
            expected[attr] = [rng.random() for _ in range(5)]
        _, (lone,) = netsim._start_trial(config, 3, (protocol,))
        assert draws(lone) == expected
        state, (first,) = netsim._start_trial(config, 3, (protocol,))
        second = type(first)(state, dict.fromkeys(state.alive, 1.0))
        for attr in streams:
            assert getattr(first, attr) is not getattr(second, attr)
        assert draws(first) == expected
        assert draws(second) == expected


class TestOneLoop:
    """A paired trial runs both protocols in one loop, over one trial state where
    the roster's draws do not depend on the protocol."""

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
            assert pob.facts is pos.facts
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
        """A roster whose draws depend on the protocol runs each protocol on a
        state of its own, in the same call: each writes its ledgers of its run alone."""
        cfg = small_config(roster=(RosterEntry(8, 10, StrategySpec(kind)),))
        trace = make_synthetic_trace(5, 8, exploit_at=None, exploit_value=0.0, seed=1)
        assert not netsim.shares_one_state(cfg, None)
        # under a trace no griefer draws as the proposer, but pob still retires Sybils
        assert netsim.shares_one_state(cfg, trace) == (kind == "griefing")
        paired = list(netsim.trial_epochs(cfg, 1, ("pob", "pos")))
        assert [tuple(l.protocol for l in ledgers) for ledgers in paired] == [("pob", "pos")] * cfg.epochs
        for k, protocol in enumerate(("pob", "pos")):
            assert [ledger_to_json(ledgers[k]) for ledgers in paired] == list(
                map(ledger_to_json, run_trial(cfg, 1, protocol=protocol)))


class TestLazyLedger:
    """A ledger computes its activeness and pool split when first read, so a
    trial whose reader reads neither pays for neither."""

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
            tally = TrialTally(cfg, protocol)
            for (ledger,) in netsim.trial_epochs(cfg, 3, (protocol,)):
                tally.add(ledger)
        assert calls == {"split_pool": 0, "activeness_column": 0}
        ledgers = run_trial(cfg, 3)
        assert calls == {"split_pool": 0, "activeness_column": 0}
        for ledger in ledgers:
            ledger_to_json(ledger)
            ledger_to_json(ledger)
        assert calls == {"split_pool": 20, "activeness_column": 20}

    def test_pos_only_trial_never_groups_rows(self, monkeypatch):
        # Oracle reports give some validators several rows, but only pob's review and a
        # ledger's activeness read the rows per position, and a tally reads neither.
        def grouped(kinds):
            raise AssertionError("a pos-only tally grouped an actor's rows")

        monkeypatch.setattr(netsim, "diversity_index", grouped)
        cfg = small_config(protocol="pos", epochs=10, oracle_rate=0.5)
        tally = TrialTally(cfg, "pos")
        for (ledger,) in netsim.trial_epochs(cfg, 3, ("pos",)):
            assert len(ledger.behavior_rows.actor) > len(ledger.roster)
            tally.add(ledger)
        assert tally.metrics().mean_latency_ms > 0.0

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
            samples = json.loads(ledger_to_json(l))["latency_samples"]
            assert samples[0::2] == l.proposal_delays
            assert samples[1::2] == l.vote_delays

    def test_oversubscribed_pool_fails_at_load(self):
        # The newcomer's stipend would oversubscribe the pool from its join epoch
        # on, by 5.5e-10: the config is refused when made, by the run's own pool check, so
        # no trial starts, and an unread pool split cannot fail in its epoch.
        for protocol in ("pob", "pos"):
            with pytest.raises(ConfigError, match="x 11 active validators exceeds pool 11.0"):
                next(netsim.trial_epochs(small_config(epochs=12, newcomer_epoch=5, r_total=11.0,
                                                      r_base=1.0 + 5e-11), 2, (protocol,)))

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
            for _ in netsim.trial_epochs(cfg, 4, (protocol,)):
                peak.append(len(live))
            assert len(peak) == 400
            assert max(peak) <= depth + 2
            peak.clear()
        ledgers = run_trial(cfg, 4, protocol="pob")
        blocks = sum(l.confirmed for l in ledgers)
        (outcome,) = [e for e in ledgers[-1].events if e["kind"] == "fork-outcome"]
        assert blocks > 300 and outcome["checkpoint_height"] == blocks - depth


def replay(trace, config):
    """A trial driven by `trace`, with the config's own seed."""
    return run_trial(config, config.seed, trace=trace)


class TestReplay:
    def test_empty_trace(self):
        assert replay([], small_config()) == []

    def test_unknown_proposer(self):
        trace = [TraceBlock(0, "vXXXX", *_rest())]
        with pytest.raises(TraceError):
            replay(trace, small_config())

    def test_newcomer_proposes_only_once_joined(self):
        config = small_config(newcomer_epoch=2)
        trace = [TraceBlock(h, p, *_rest()) for h, p in enumerate(["v0001", "v0002", "newcomer"])]
        assert [l.proposer for l in replay(trace, config)] == ["v0001", "v0002", "newcomer"]
        with pytest.raises(TraceError, match=r"'newcomer' \(block height 2\) .* at epoch 1$"):
            replay(trace[1:], config)

    def test_honest_trace_zero_guilty(self):
        trace = make_synthetic_trace(40, 10, exploit_at=None, exploit_value=0.0, seed=1)
        ledgers = replay(trace, small_config())
        assert all(not l.verdicts for l in ledgers)

    def test_exploit_convicted_and_slashed(self):
        trace = make_synthetic_trace(40, 10, exploit_at=20, exploit_value=50.0, seed=1)
        ledgers = replay(trace, small_config())
        culprit = trace[20].proposer
        guilty = [(v.subject, v.epoch) for l in ledgers for v in l.verdicts if v.guilty]
        assert guilty == [(culprit, 20)]
        w_before = ledgers[20].weights_before[culprit]
        w_after = ledgers[21].weights_before[culprit]
        assert w_after <= 0.2 * w_before


def _rest():
    return (ActionKind.PROPOSE, 1.0, 1.0, 0.9, False)


class TestLatencyStreamPinning:
    """Confirmation draws stay the stdlib's, value for value and in order.

    No preset uses the fixed or uniform model, so the golden outputs
    cannot catch a drift there.
    """

    @pytest.mark.parametrize("dist", ["exponential", "fixed", "uniform"])
    def test_samples_equal_stdlib_on_twin_streams(self, dist):
        model = LatencyModel(dist, 37.5)
        streams = [random.Random(s) for s in (11, 12, 11, 12)]
        _, proposals, votes = confirm([1.0 / 60] * 60, Fraction(2, 3), model, streams[0],
                                      streams[1])
        assert proposals == [stdlib_draw(model, streams[2]) for _ in range(60)]
        assert votes == [stdlib_draw(model, streams[3]) for _ in range(60)]
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
