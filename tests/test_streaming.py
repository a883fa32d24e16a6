"""Streamed trials: the metrics tally, the ledger writer and flat memory.

`run_trial` hands each finished ledger to a sink. These tests check that
the tally folded from that stream gives the same metrics as a pass over
the full ledger list, that the streamed ledger files are the canonical
JSON of that list (also when a paired task runs both protocols in one
loop through one writer state), that the ledger writer's bytes are those of a
plain `json.dumps` of the ledger as dicts, that a shared writer state
reuses a text only for columns that write the same bytes, that a task's
halves set up once and fail cleanly, that memory does not grow with the
epoch count, that a finished trial leaves no reference cycle behind, and
that the incrementally kept alive roster is the naive recomputation.
"""

import dataclasses
import gc
import json
import os
import tracemalloc
from functools import reduce
from operator import add

import pytest

from pobsim import experiments, netsim
from pobsim.adversaries import StrategySpec
from pobsim.config import RosterEntry, ScenarioConfig, with_overrides
from pobsim.errors import ConfigError
from pobsim.metrics import (
    TrialMetrics,
    TrialTally,
    adaptation_time,
    adversary_ids,
    election_prob,
    fraud_acceptance_rate,
    gini,
    paired_loss_averted,
    suppression_time,
)
from pobsim.netsim import EpochLedger, ledger_to_json, parse_trace, run_trial
from pobsim.presets import builtin_presets, bundled_trace_path
from pobsim.rewards import RewardSchedule
from pobsim.scoring import ActionKind, BehaviorColumns, MotivationProfile
from pobsim.watchdog import Verdict

EPOCHS = 20
TRACE_WINDOW = (490, 510)  # around the bundled trace's exploit at height 500


# ---------------------------------------------------------------------------
# List-based reference: the metrics as one pass over every ledger computes them
# ---------------------------------------------------------------------------

def _reference_outcomes(ledgers):
    guilty = {(v.epoch, v.subject, v.behavior_index)
              for l in ledgers for v in l.verdicts if v.guilty}
    outcomes = []
    for l in ledgers:
        for idx, b in enumerate(l.behaviors):
            if b.is_fraud_ground_truth:
                accepted = (l.confirmed and (l.epoch, b.actor, idx) not in guilty
                            and b.actor not in l.neutralized)
                outcomes.append((l.epoch, b.actor, abs(b.base_utility), accepted))
    return outcomes


def _reference_loss_averted(pob_ledgers, pos_ledgers):
    pob, pos = _reference_outcomes(pob_ledgers), _reference_outcomes(pos_ledgers)
    if [o[:2] for o in pob] != [o[:2] for o in pos]:
        raise ValueError("unpaired trials: fraud attempt streams differ")
    return (reduce(add, (o[2] for o in pos if o[3]), 0)
            - reduce(add, (o[2] for o in pob if o[3]), 0))


def _reference_metrics(ledgers, config, protocol):
    outcomes = _reference_outcomes(ledgers)
    accepted = [o for o in outcomes if o[3]]

    ids = set()
    for l in ledgers:
        ids.update(l.weights_before)
    counts = {v: 0 for v in ids}
    for l in ledgers:
        counts[l.proposer] = counts.get(l.proposer, 0) + 1

    latencies = [l.confirm_ms for l in ledgers if l.confirmed and l.confirm_ms is not None]

    delta = config.delta if protocol == "pob" else 0.0  # the stake lottery is delta = 0
    newcomer = None
    join = config.newcomer_epoch
    if join is not None and join < len(ledgers):
        traj = [election_prob(list(l.weights_before), list(l.weights_before.values()),
                              "newcomer", delta)
                for l in ledgers[join:]]
        target = config.adaptation_target_frac / len(ledgers[join].weights_before)
        newcomer = adaptation_time(traj, target, "rise")

    suppression = None
    adversaries = adversary_ids(config)
    if adversaries:
        traj = [election_prob(list(l.weights_before), list(l.weights_before.values()),
                              adversaries[0], delta)
                for l in ledgers]
        suppression = suppression_time(traj, config.suppression_drop_frac)

    bottom = None
    if ledgers:
        initial = ledgers[0].weights_before
        ranked = sorted(initial, key=lambda v: (initial[v], v))
        k = max(1, len(ranked) // 10)
        bottom = sum(counts.get(v, 0) for v in ranked[:k]) / sum(counts.values())

    false_positives = sum(
        1 for l in ledgers for v in l.verdicts
        if v.guilty and not l.behaviors[v.behavior_index].is_fraud_ground_truth
    )
    return TrialMetrics(
        far=fraud_acceptance_rate(len(outcomes), len(accepted)),
        proposer_gini=gini(list(counts.values())) if counts else None,
        mean_latency_ms=reduce(add, latencies, 0) / len(latencies) if latencies else 0.0,
        newcomer_adaptation_blocks=newcomer,
        suppression_blocks=suppression,
        loss_averted=None,
        bottom_decile_share=bottom,
        false_positives=false_positives,
        fraud_attempted=len(outcomes),
        fraud_accepted=len(accepted),
        fraud_accepted_value=reduce(add, (o[2] for o in accepted), 0),
    )


# ---------------------------------------------------------------------------
# Reference ledger encoder: the ledger as dicts and lists, through json.dumps
# ---------------------------------------------------------------------------

def _reference_ledger_json(ledger):
    def behavior(b):
        return {
            "actor": b.actor,
            "epoch": b.epoch,
            "kind": b.kind.value,
            "base_utility": b.base_utility,
            "context_factor": b.context_factor,
            "initiative": b.initiative,
            "motivation": {
                "intensities": list(b.motivation.intensities),
                "weights": list(b.motivation.weights),
            },
            "is_fraud_ground_truth": b.is_fraud_ground_truth,
        }

    return json.dumps({
        "epoch": ledger.epoch,
        "protocol": ledger.protocol,
        "proposer": ledger.proposer,
        "behaviors": [behavior(b) for b in ledger.behaviors],
        "verdicts": [dataclasses.asdict(v) for v in ledger.verdicts],
        "payouts": [dataclasses.asdict(p) for p in ledger.payouts],
        "scores": ledger.scores,
        "activeness": ledger.activeness,
        "weights_before": ledger.weights_before,
        "weights_after": ledger.weights_after,
        "confirmed": ledger.confirmed,
        "confirm_ms": ledger.confirm_ms,
        "latency_samples": list(ledger.latency_samples),
        "neutralized": list(ledger.neutralized),
        "events": list(ledger.events),
    }, sort_keys=True, separators=(",", ":"))


def _assert_writer_matches_reference(ledger):
    got, want = ledger_to_json(ledger), _reference_ledger_json(ledger)
    if got != want:  # show where, not a diff of two long lines
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"ledger JSON differs at byte {at}: "
                    f"{got[at - 30:at + 30]!r} != {want[at - 30:at + 30]!r}")


def _outcome(fn, *args):
    """fn(*args), or the type of the ValueError it raises."""
    try:
        return repr(fn(*args))
    except ValueError:
        return ValueError


def _preset(name):
    """The preset at EPOCHS epochs; a newcomer joins at epoch 10 so it is measured."""
    preset = builtin_presets()[name]
    config = preset.build()
    changes = {"epochs": EPOCHS, "trials": 1}
    if config.newcomer_epoch is not None:
        changes["newcomer_epoch"] = 10
    trace = None
    if preset.trace is not None:
        trace = parse_trace(bundled_trace_path())[slice(*TRACE_WINDOW)]
    return with_overrides(config, **changes), trace


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def _capped_sybils(config):
    """The adaptive-Sybil roster with a population cap its respawns reach."""
    (entry,) = config.roster
    params = {**entry.spec.params, "max_population": config.n_validators - 1}
    spec = StrategySpec(entry.spec.kind, params)
    return with_overrides(config, roster=(dataclasses.replace(entry, spec=spec),))


# Each preset, plus two variants whose ledgers carry the rarer events.
WRITER_CASES = {name: (name, None) for name in sorted(builtin_presets())}
WRITER_CASES["case-a-stealth-pos-slash"] = (
    "case-a-stealth", lambda c: with_overrides(c, pos_slash_delay=2))
WRITER_CASES["case-d-adaptive-sybil-capped"] = ("case-d-adaptive-sybil", _capped_sybils)
WRITER_COVERAGE = {  # what a case's ledgers must carry for the check to mean much
    "case-a-stealth": {"verdict"},
    "case-a-stealth-pos-slash": {"verdict", "pos-slash"},
    "case-b-fairness-100": {"join"},
    "case-c-replay": {"verdict"},
    "case-d-adaptive-sybil": {"verdict", "join", "retire"},
    "case-d-adaptive-sybil-capped": {"population-cap"},
    "case-d-long-range": {"fork-outcome"},
}


def _case(case):
    """A writer case's config and trace."""
    name, variant = WRITER_CASES[case]
    config, trace = _preset(name)
    return (config if variant is None else variant(config)), trace


def _assert_ledger_files(led_dir, ledgers):
    """`led_dir` holds exactly the canonical files of `ledgers`."""
    files = sorted(led_dir.iterdir())
    assert [f.name for f in files] == [f"epoch-{i:05d}.json" for i in range(len(ledgers))]
    for path, ledger in zip(files, ledgers):
        assert path.read_bytes() == (ledger_to_json(ledger) + "\n").encode("utf-8")


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_streamed_tally_and_ledgers_match_ledger_list(case, tmp_path):
    config, trace = _case(case)
    seed = config.seed
    lists, tallies, expected = {}, {}, {}
    for protocol in ("pob", "pos"):
        ledgers = lists[protocol] = run_trial(config, seed, protocol=protocol, trace=trace)
        assert len(ledgers) == (len(trace) if trace is not None else EPOCHS)
        expected[protocol] = repr(_reference_metrics(ledgers, config, protocol))

        tally = tallies[protocol] = TrialTally(config, protocol)
        assert run_trial(config, seed, protocol=protocol, trace=trace, sink=tally.add) == []
        assert repr(tally.metrics()) == expected[protocol]

        # the experiment path: tally plus ledger files written by the task
        single = with_overrides(config, protocol=protocol)
        (row,) = experiments._run_trial_task(single, 0, trace, tmp_path)["rows"]
        assert repr(row["metrics"]) == expected[protocol]
        _assert_ledger_files(tmp_path / f"trial-000-{protocol}", ledgers)

    averted = _outcome(paired_loss_averted, tallies["pob"], tallies["pos"])
    assert averted == _outcome(_reference_loss_averted, lists["pob"], lists["pos"])

    if averted is ValueError:
        # The halves' fraud attempts differ (pob respawns convicted adaptive
        # Sybils, pos does not), so the loader refuses the pair before any trial.
        with pytest.raises(ConfigError, match=r"config field 'roster\[0\]'.*cannot run paired"):
            with_overrides(config, protocol="paired")
        return
    # A paired task runs both protocols in one loop through one writer state,
    # and still writes each protocol exactly the files of its own run.
    paired = with_overrides(config, protocol="paired")
    rows = experiments._run_trial_task(paired, 0, trace, tmp_path / "paired")["rows"]
    assert [row["protocol"] for row in rows] == ["pob", "pos"]
    assert repr(rows[0]["metrics"].loss_averted) == averted
    rows[0]["metrics"].loss_averted = None
    assert [repr(row["metrics"]) for row in rows] == [expected["pob"], expected["pos"]]
    for protocol in ("pob", "pos"):
        _assert_ledger_files(tmp_path / "paired" / f"trial-000-{protocol}", lists[protocol])


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_ledger_writer_matches_reference_encoder(case):
    config, trace = _case(case)
    kinds = set()
    for protocol in ("pob", "pos"):
        for ledger in run_trial(config, config.seed, protocol=protocol, trace=trace):
            _assert_writer_matches_reference(ledger)
            kinds.update(e["kind"] for e in ledger.events)
            kinds.update("verdict" for _ in ledger.verdicts)
    assert WRITER_COVERAGE.get(case, set()) <= kinds, kinds


ODD_ID = 'q"b\\s\x01\u00e9'  # a quote, a backslash, a control character, a non-ASCII letter
NON_FINITE = (float("nan"), float("inf"), float("-inf"), -0.0)
MOTIVATION = MotivationProfile((0.5, 0.25), (0.5, 0.5))
ROWS = (("v01", ActionKind.PROPOSE, 1.5, 1.0, 0.25, MOTIVATION, False),
        ("v00", ActionKind.FRAUD, -2.0, 0.5, 0.75, MotivationProfile((1.0, 0.0), (0.5, 0.5)), True),
        ("v02", ActionKind.IDLE, 0.0, 0.0, 0.0, MOTIVATION, False))
ROSTER_LISTS = ("roster_scores", "roster_weights_before", "roster_weights_after")
FILLER_ROW = (ActionKind.VALIDATE, 1.0, 1.0, 0.5, MOTIVATION, False)
SCHEDULE = RewardSchedule(10.0, 1.25, activity_threshold=0.3, activeness_epsilon=0.5)


def _ledger(roster=("v00", "v01", "v02"), rows=ROWS, **changes):
    """A ledger on the sorted `roster`, built from its inputs.

    Each of `rows` is (actor, kind, base utility, context factor, initiative,
    motivation, fraud label), added through `BehaviorColumns.add`; a roster
    id with no row in `rows` gets a `FILLER_ROW`, since activeness is
    defined over an actor's records. A roster-aligned list not in `changes`
    is a distinct fraction per position. The activeness and payouts follow
    from these and from `schedule` and `betas`.
    """
    roster = list(roster)
    assert roster == sorted(roster)
    behaviors = BehaviorColumns(3)
    for actor, *row in rows:
        behaviors.add(roster.index(actor), *row)
    for vid in sorted(set(roster) - {row[0] for row in rows}):
        behaviors.add(roster.index(vid), *FILLER_ROW)
    fields = dict(
        epoch=3, protocol="pob", proposer="v01", roster=roster, behavior_rows=behaviors,
        schedule=SCHEDULE, betas=(0.5, 0.25, 0.25),
        verdicts=(Verdict("v00", 3, 1, 0.75, 5, True, 0.125, "proportional", 0.5, 3),),
        confirmed=True, confirm_ms=123.456, proposal_delays=[12.5, 7.0, 0.25],
        vote_delays=[0.1, 3.0, 41.5], neutralized=("v00",),
        events=({"kind": "join", "validator": "v03", "epoch": 4, "note": "\u00e9"},),
    )
    for k, name in enumerate(ROSTER_LISTS):
        fields[name] = [(pos + 1) / (len(roster) + k + 2) for pos in range(len(roster))]
    fields.update(changes)
    return EpochLedger(**fields)


@pytest.mark.parametrize("changes", [
    {},
    {"confirm_ms": None, "confirmed": False},
    {"roster": (), "rows": (), "verdicts": (), "proposal_delays": [], "vote_delays": [],
     "neutralized": (), "events": ()},
    {"roster": (ODD_ID, "v00", "z"), "proposer": ODD_ID, "neutralized": (ODD_ID,),
     "rows": ((ODD_ID, ActionKind.VALIDATE, 1.0, 1.0, 1.0, MotivationProfile((0.5,), (1.0,)),
               False),),
     "schedule": RewardSchedule(10.0, 1.0), "events": ({"kind": "join", "validator": ODD_ID},)},
    {"proposal_delays": [float("nan"), float("-inf"), 1.0],
     "vote_delays": [float("inf"), -0.0, 2.0], "confirm_ms": float("inf")},
    {"roster": ("v00", "v01", "v02", "v03"), "roster_scores": list(NON_FINITE)},
    # activeness -inf for v00 and v01 (initiative > 0) and nan for v02 (initiative 0)
    {"roster_weights_before": [0.5, float("nan"), 0.25], "roster_weights_after": [-0.0, 0.5, 0.5],
     "betas": (0.5, float("-inf"), 0.0)},
    {"rows": (("v01", ActionKind.PROPOSE, float("nan"), -0.0, 1.0,
               MotivationProfile((float("inf"), -0.0), (0.5, 0.5)), False),
              ("v02", ActionKind.PROPOSE, float("-inf"), 1.0, 0.0,
               MotivationProfile((float("nan"),), (1.0,)), False))},
    # v01: bonus -0.0, multiplier -inf, total -inf; v02: multiplier and total nan
    {"schedule": RewardSchedule(10.0, 1.25, 0.3, float("inf")), "betas": (0.5, float("-inf"), 0.0),
     "roster_weights_after": [0.5, -0.0, 0.5]},
    {"schedule": RewardSchedule(10.0, float("nan"), 0.3)},
    # an int and a bool where a float belongs
    {"confirm_ms": 7, "proposal_delays": [1, True], "vote_delays": [2.5, 0],
     "roster_scores": [1, False, 0.5], "roster_weights_after": [True, 0.5, 0.25],
     "schedule": RewardSchedule(10, True, 0.3)},
    {"rows": (("v01", ActionKind.PROPOSE, 2, True, 0, MOTIVATION, False),)},
], ids=["plain", "unconfirmed", "empty", "odd-ids", "non-finite-latency",
        "non-finite-scores", "non-finite-weights", "non-finite-behaviors",
        "non-finite-payouts", "nan-base", "int-and-bool", "int-and-bool-behavior"])
def test_ledger_writer_matches_reference_on_edge_cases(changes):
    _assert_writer_matches_reference(_ledger(**changes))


NAN_A, NAN_B = float("nan"), float("nan")


class Weight(float):
    """A float subclass, which marshal cannot write."""


def _rows(*changes):
    """ROWS with each (row, field, value) in `changes` set; fields index a row's tuple."""
    rows = [list(row) for row in ROWS]
    for row, at, value in changes:
        rows[row][at] = value
    return tuple(map(tuple, rows))


# Ledgers written in turn, pob then pos then pob ..., through one writer
# state. Each differs from the one before only in values that `==` takes for
# equal but that write different bytes, or in NaNs, which are never equal.
TWINS = {
    "signed-zero-score": ({"roster_scores": [0.0, 0.5, 0.25]},
                          {"roster_scores": [-0.0, 0.5, 0.25]},
                          {"roster_scores": [0.0, 0.5, 0.25]}),
    "int-float-bool-delay": ({"proposal_delays": [1, 7.0, 0.25]},
                             {"proposal_delays": [1.0, 7.0, 0.25]},
                             {"proposal_delays": [True, 7.0, 0.25]},
                             {"proposal_delays": [1, 7.0, 0.25]}),
    "int-bool-fraud": ({"rows": _rows((0, 6, False))}, {"rows": _rows((0, 6, 0))}),
    "signed-zero-behavior": ({"rows": _rows((2, 2, 0.0))}, {"rows": _rows((2, 2, -0.0))}),
    "separate-nans": ({"roster_weights_after": [NAN_A, 0.5, 0.5]},
                      {"roster_weights_after": [NAN_B, 0.5, 0.5]}),
    "zero-intensity": ({"rows": _rows((2, 5, MotivationProfile((0.0, 0.5), (0.5, 0.5))))},
                       {"rows": _rows((2, 5, MotivationProfile((-0.0, 0.5), (0.5, 0.5))))}),
    "float-subclass": ({"roster_scores": [Weight(0.5), 0.5, 0.25]},
                       {"roster_scores": [Weight(0.5), 0.5, 0.25]}),
}


def _mis_written_twins(case):
    """The indices of the case's ledgers whose shared-state JSON is not the reference's."""
    last = {}  # the shared writer state
    wrong = []
    for i, changes in enumerate(TWINS[case]):
        ledger = _ledger(protocol=("pob", "pos")[i % 2], **changes)
        if ledger_to_json(ledger, last) != _reference_ledger_json(ledger):
            wrong.append(i)
    return wrong


@pytest.mark.parametrize("case", sorted(TWINS))
def test_shared_writer_state_reuses_only_same_bytes(case):
    assert _mis_written_twins(case) == []


def test_equality_alone_is_not_a_reuse_guard(monkeypatch):
    monkeypatch.setattr(netsim, "_same", lambda a, b: a is b or a == b)
    wrong = {case for case in TWINS if _mis_written_twins(case)}
    # NaNs are never equal, motivations are compared as their texts, and equal
    # float subclasses write equal texts
    assert wrong == set(TWINS) - {"separate-nans", "zero-intensity", "float-subclass"}


def test_shared_writer_state_formats_shared_columns_once(monkeypatch):
    """Through one state, a paired replay's pos ledger formats none of the columns that
    equal its pob twin's, and a pob ledger does not format its weights before, the last
    ledger's weights after; every ledger is still the reference's bytes."""
    config, trace = _preset("case-c-replay")
    pob, pos = (run_trial(config, config.seed, protocol=p, trace=trace) for p in ("pob", "pos"))
    formatted = []
    texts_of = netsim._texts
    monkeypatch.setattr(netsim, "_texts", lambda values: formatted.append(id(values))
                        or texts_of(values))
    last = {}  # the shared writer state
    twin_columns = ("roster_scores", "roster_activeness", "proposal_delays", "vote_delays")
    fully_shared = 0
    for twins in zip(pob, pos):
        for ledger in twins:
            formatted.clear()
            assert ledger_to_json(ledger, last) == _reference_ledger_json(ledger)
            shared = [ledger.roster_weights_before] if ledger.epoch else []
            if ledger.protocol == "pos":
                equal = [getattr(ledger, c) for c in twin_columns
                         if getattr(ledger, c) == getattr(twins[0], c)]
                fully_shared += len(equal) == len(twin_columns)
                shared += equal
            assert not {id(column) for column in shared} & set(formatted)
    assert fully_shared >= len(pob) - 1


def _record_halves(monkeypatch):
    """A log of each trial set-up (with its protocols) and each ledger a task's
    tallies take, in order."""
    log = []
    start = netsim._start_trial

    def recording_start(config, seed, protocols):
        log.append(("set-up", tuple(protocols)))
        return start(config, seed, protocols)

    class RecordingTally(TrialTally):
        def add(self, ledger):
            log.append((ledger.protocol, ledger.epoch))
            super().add(ledger)

    monkeypatch.setattr(netsim, "_start_trial", recording_start)
    monkeypatch.setattr(experiments, "TrialTally", RecordingTally)
    return log


@pytest.mark.parametrize("ledgers", [False, True], ids=["tally-only", "ledgers"])
def test_halves_set_up_once_and_alternate_each_epoch(ledgers, monkeypatch, tmp_path):
    """A paired task sets its trial up once and takes both ledgers of each epoch,
    pob then pos, whether or not it writes them. A roster whose draws depend on
    the protocol (a griefer outside a trace) runs each protocol alone."""
    log = _record_halves(monkeypatch)
    config, _ = _preset("case-a-stealth")
    assert config.protocol == "paired"
    experiments._run_trial_task(config, 0, None, tmp_path / "stealth" if ledgers else None)
    assert log == [("set-up", ("pob", "pos"))] + [
        (protocol, epoch) for epoch in range(EPOCHS) for protocol in ("pob", "pos")]

    log.clear()
    griefing = with_overrides(_preset("case-d-griefing")[0], protocol="paired")
    experiments._run_trial_task(griefing, 0, None, tmp_path / "griefing" if ledgers else None)
    assert log == [("set-up", ("pob",)), *(("pob", epoch) for epoch in range(EPOCHS)),
                   ("set-up", ("pos",)), *(("pos", epoch) for epoch in range(EPOCHS))]


class MidTrialError(Exception):
    pass


@pytest.mark.parametrize("ledgers", [False, True], ids=["tally-only", "ledgers"])
@pytest.mark.parametrize("failing", ["pob", "pos"])
def test_mid_trial_error_reaches_run_scenario_and_closes_halves(failing, ledgers, monkeypatch,
                                                                 tmp_path):
    """An error in either protocol's half reaches the caller as itself, after the
    one loop that runs both halves is closed."""
    config, _ = _preset("case-a-stealth")
    config = with_overrides(config, emit_ledgers=ledgers)
    loops = []
    epochs_of, elect = netsim.trial_epochs, netsim._elect
    taken = []

    def recording_epochs(*args, **kwargs):
        loops.append(epochs_of(*args, **kwargs))
        return loops[-1]

    def failing_elect(state, rules, epoch, *args):
        taken.append((rules.protocol, epoch))
        if rules.protocol == failing and epoch == 7:
            raise MidTrialError(f"{failing} fails at epoch 7")
        return elect(state, rules, epoch, *args)

    monkeypatch.setattr(experiments, "trial_epochs", recording_epochs)
    monkeypatch.setattr(netsim, "_elect", failing_elect)
    with pytest.raises(MidTrialError) as caught:
        experiments.run_scenario(config, tmp_path / "out")
    assert caught.type is MidTrialError
    assert str(caught.value) == f"{failing} fails at epoch 7"
    assert len(loops) == 1 and loops[0].gi_frame is None  # one loop, closed
    elections = [(protocol, epoch) for epoch in range(8) for protocol in ("pob", "pos")]
    assert taken == elections[:elections.index((failing, 7)) + 1]


def test_fork_outcome_reaches_last_streamed_ledger():
    config, _ = _preset("case-d-long-range")
    streamed = []
    run_trial(config, config.seed, protocol="pob", sink=streamed.append)
    assert [e["kind"] for e in streamed[-1].events] == ["fork-outcome"]
    assert streamed == run_trial(config, config.seed, protocol="pob")


def _traced_peak(config, out):
    tracemalloc.start()
    try:
        experiments.run_scenario(config, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("protocol", ["pob", "pos"])
@pytest.mark.parametrize("name", sorted(builtin_presets()))
def test_trial_leaves_no_cyclic_garbage(name, protocol):
    """A finished trial is freed by reference counting alone.

    A reference cycle through the trial state would keep a whole trial
    alive until the cyclic collector ran, so the next trial's peak memory
    would include it.
    """
    preset = builtin_presets()[name]
    config = preset.build()
    config = with_overrides(config, epochs=min(EPOCHS, config.epochs), trials=1)
    trace = None
    if preset.trace is not None:
        trace = parse_trace(bundled_trace_path())[480:520]
    gc.collect()
    gc.disable()
    try:
        run_trial(config, config.seed, protocol=protocol, trace=trace, sink=lambda l: None)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_peak_memory_flat_in_epochs(tmp_path):
    config = ScenarioConfig(
        protocol="paired", n_validators=30, trials=1, seed=3, emit_ledgers=True,
        roster=(RosterEntry(27, 30, StrategySpec("stealth", {"fraud_rate": 0.1})),),
    )
    _traced_peak(with_overrides(config, epochs=5), tmp_path / "warm-up")
    short = _traced_peak(with_overrides(config, epochs=40), tmp_path / "short")
    long = _traced_peak(with_overrides(config, epochs=160), tmp_path / "long")
    assert long <= 1.5 * short, (short, long)


def test_paired_trial_peaks_near_one_protocol():
    """Both protocols share one trial state, so a paired trial's peak is close
    to one protocol's, not to two trials'."""
    config = with_overrides(builtin_presets()["case-b-fairness-1000"].build(), epochs=20)

    def single():
        run_trial(config, config.seed, protocol="pob", sink=lambda ledger: None)

    def paired():
        for _ in netsim.trial_epochs(config, config.seed, ("pob", "pos")):
            pass

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    single()  # warm-up
    one, both = peak(single), peak(paired)
    assert both <= 1.15 * one, (one, both)


def _event_rosters(config, ledgers):
    """Each epoch's alive ids, recomputed from the configured ids and the
    ledgers' events: a join takes effect in its epoch, a retirement (logged
    in the next epoch's ledger) from the epoch after its own."""
    events = [e for ledger in ledgers for e in ledger.events]
    alive, rosters = set(config.validator_ids()), []
    for epoch in range(len(ledgers)):
        alive |= {e["id"] for e in events if e["kind"] == "join" and e["epoch"] == epoch}
        alive -= {e["id"] for e in events if e["kind"] == "retire" and e["epoch"] == epoch - 1}
        rosters.append(sorted(alive))
    return rosters


@pytest.mark.parametrize("name", ["case-d-adaptive-sybil", "case-b-fairness-100"])
def test_alive_roster_matches_naive_recomputation(name, monkeypatch):
    config, _ = _preset(name)
    config = with_overrides(config, epochs=60)
    if config.newcomer_epoch is None:
        # A newcomer that joins the epoch after the first conviction, so the
        # respawn budget sees a join that is already scheduled.
        ledgers = run_trial(config, config.seed, protocol="pob")
        first = min(e["epoch"] for l in ledgers for e in l.events if e["kind"] == "retire")
        config = with_overrides(config, newcomer_epoch=first + 1)
    checked = []
    respawns = []  # (epoch, population, spawned count) of each respawn call
    setup, behave = netsim._setup_trial, netsim._behave

    def capturing_setup(*args, **kwargs):
        state = setup(*args, **kwargs)
        controller = state.sybil_controller
        if controller is not None:
            replacements = controller.replacements

            def recorded_replacements(epoch, population, convicted):
                fresh, events = replacements(epoch, population, convicted)
                respawns.append((epoch, population, len(fresh)))
                return fresh, events

            controller.replacements = recorded_replacements
        return state

    def checking_behave(state, *args):
        assert state.signers == frozenset(state.alive)
        assert state.positions == list(range(len(state.alive)))
        checked.append(tuple(state.alive))
        return behave(state, *args)

    monkeypatch.setattr(netsim, "_setup_trial", capturing_setup)
    monkeypatch.setattr(netsim, "_behave", checking_behave)
    for protocol in ("pob", "pos"):
        checked.clear()
        respawns.clear()
        ledgers = run_trial(config, config.seed, protocol=protocol)
        assert len(checked) == len(ledgers) == 60
        rosters = _event_rosters(config, ledgers)
        assert checked == [tuple(r) for r in rosters]
        assert [l.roster for l in ledgers] == rosters
        # the population a respawn budget sees is everyone alive next epoch
        # but the identities that respawn spawns
        assert all(population + spawned == len(rosters[epoch + 1])
                   for epoch, population, spawned in respawns if epoch + 1 < len(ledgers))
        kinds = {e["kind"] for l in ledgers for e in l.events}
        assert "join" in kinds
        if name == "case-d-adaptive-sybil" and protocol == "pob":
            # only the behavior-weighted run convicts and respawns
            assert "retire" in kinds
            assert sum(e["kind"] == "join" for l in ledgers for e in l.events) > 1
            assert len(respawns) > 1
        assert len(set(checked)) > 1  # the roster did change
