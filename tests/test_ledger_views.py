"""The views of a ledger's columns, and the checks the columns keep.

A ledger keeps its epoch's sorted roster and columns and builds
`behaviors` and the `weights_before` map when they are first read, as it
does the activeness and pool split. These tests check that the views show
exactly the columns, in roster order, that each is built once, and that
honest draws written in bulk still fail the record's range check with the
record's own message.
"""

import random

import pytest

from pobsim.adversaries import EpochContext, HonestShape, HonestStrategy, StrategySpec, draw_honest
from pobsim.config import (
    DEFAULT_MOTIVATION_INTENSITIES,
    DEFAULT_MOTIVATION_WEIGHTS,
    RosterEntry,
    ScenarioConfig,
)
from pobsim.ledger import ledger_to_json
from pobsim.netsim import run_trial
from pobsim.scoring import ActionKind, BehaviorColumns, BehaviorRecord, MotivationProfile

COLUMNS = ("roster_scores", "roster_activeness", "roster_weights_before",
           "roster_weights_after")


@pytest.fixture(scope="module")
def trials():
    config = ScenarioConfig(
        protocol="paired", n_validators=100, epochs=25, trials=1, seed=5, oracle_rate=0.5,
        epsilon=0.5,
        roster=(RosterEntry(90, 100, StrategySpec("stealth", {"fraud_rate": 0.2})),),
    )
    return {protocol: run_trial(config, config.seed, protocol=protocol)
            for protocol in ("pob", "pos")}


@pytest.mark.parametrize("protocol", ["pob", "pos"])
def test_views_show_the_columns(trials, protocol):
    ledgers = trials[protocol]
    assert any(len(l.behavior_rows.actor) > len(l.roster) for l in ledgers)
    assert any(True in l.behavior_rows.fraud for l in ledgers)
    for ledger in ledgers:
        written = ledger_to_json(ledger)  # before any view is built
        roster, rows = ledger.roster, ledger.behavior_rows
        assert list(ledger.weights_before.values()) == ledger.roster_weights_before
        assert ledger.behaviors == tuple(
            BehaviorRecord(roster[rows.actor[i]], rows.epoch, rows.kind[i], rows.base_utility[i],
                           rows.context_factor[i], rows.initiative[i], rows.motivation[i],
                           rows.fraud[i]) for i in range(len(rows.actor)))
        assert ledger_to_json(ledger) == written  # reading the views changes no byte


@pytest.mark.parametrize("protocol", ["pob", "pos"])
def test_maps_keep_roster_order(trials, protocol):
    for ledger in trials[protocol]:
        roster = ledger.roster
        assert roster == sorted(roster)
        assert list(ledger.weights_before) == roster
        assert all(len(getattr(ledger, column)) == len(roster) for column in COLUMNS)
        assert [b.actor for b in ledger.behaviors] == sorted(b.actor for b in ledger.behaviors)
        actives = ledger.pool_split.actives
        assert actives == sorted(set(actives)) and set(actives) <= set(range(len(roster)))


def test_views_are_built_once(trials):
    ledger = trials["pob"][3]
    for view in ("behaviors", "weights_before", "roster_activeness", "pool_split"):
        assert getattr(ledger, view) is getattr(ledger, view)


def _shape(**bounds):
    motivations = {
        kind: MotivationProfile(DEFAULT_MOTIVATION_INTENSITIES[kind.value],
                                DEFAULT_MOTIVATION_WEIGHTS)
        for kind in ActionKind
    }
    return HonestShape(motivations=motivations, **bounds)


def _ctx(seed, shape):
    return EpochContext(0, False, random.Random(seed), random.Random(100 + seed), shape)


# The messages BehaviorRecord raised for these streams when each honest
# record was built as an object.
@pytest.mark.parametrize("oracle_rate", [0.0, 0.5])
def test_out_of_range_initiative_keeps_the_record_message(oracle_rate):
    shape = _shape(initiative_hi=1.5, oracle_rate=oracle_rate)
    with pytest.raises(ValueError, match=r"^initiative 1\.2821589626462724 outside \[0, 1\]$"):
        HonestStrategy().emit(_ctx(0, shape), BehaviorColumns(0), 0)
    # In bulk the check runs once over the cohort and names its first offending row.
    cols = BehaviorColumns(0)
    draws = [_ctx(seed, shape).rng_behavior.random for seed in (4, 3, 2)]
    with pytest.raises(ValueError, match=r"^initiative 1\.0898063027663567 outside \[0, 1\]$"):
        draw_honest(cols, shape, 0, draws)
