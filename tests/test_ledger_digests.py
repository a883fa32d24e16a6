"""Pinned ledger bytes of eleven short runs that no golden preset covers.

Each digest is the sha256 of every ledger's `ledger_to_json` line, in
(protocol, epoch) order, of a 30-epoch run. Every digest must hold both
ways a trial runs: one protocol at a time through `run_trial`, and both
protocols in one `trial_epochs` call, as `experiments` runs them (on one
trial state, or on a state each where the roster's draws depend on the
protocol). A change to the epoch pipeline must leave them as they are:

- `case-b-fairness-100` with `oracle_rate: 0.5` and `epsilon: 0.5`:
  actors with several records and activeness multipliers other than 1;
- `case-d-adaptive-sybil`: joins, retirements and roster rebuilds, and
  the last epoch's retirements in its own ledger;
- `case-a-stealth`: fraud records and verdicts;
- `case-a-sybil` with bursts at epochs 10, 18 and 26: coalition frauds,
  coalition votes and their verdicts, which the preset's epoch-50 burst
  never reaches within 30 epochs;
- `case-d-long-range`: stealth frauds of the compromised keys and the
  trial-end fork outcome;
- `case-d-griefing`: the proposer override seating the griefer, and the
  same run paired, which runs each protocol on a state of its own;
- `case-b-fairness-100` with `newcomer_epoch: 10` and the newcomer as the
  proposer override for epochs 12 to 17: a join, and both protocols of
  a paired epoch seating the same proposer;
- `case-a-stealth` with ten stealth validators at `fraud_rate: 0.2`,
  `pos_slash_delay: 3` and `pos_slash_fraction: 0.5`: pos slashes that
  land within 30 epochs (ten of them, two each at epochs 7 and 11), and
  the elections that read the halved stakes. The default delay of 100
  epochs lands none in any other pin or golden digest;
- `case-d-adaptive-sybil` with adaptive Sybils on [90, 95) at
  `join_weight: 0.01` and `max_population: 100`, long-range-fork keys on
  [95, 100) at `fork_depth: 20`, and `newcomer_epoch: 12`: the newcomer
  joining with the respawns, the population cap in epoch 11's roster
  change, joins above weight 0, and a trial-end fork that reads the roster
  after epoch 29's retirements, which epoch 29's ledger lists before the
  fork outcome; and the same run as `protocol: pos`, where
  the newcomer is the one join.
"""

import dataclasses
import hashlib

import pytest

from pobsim.adversaries import StrategySpec
from pobsim.config import ProposerOverride, RosterEntry, with_overrides
from pobsim.ledger import ledger_to_json
from pobsim.netsim import run_trial, shares_one_state, trial_epochs
from pobsim.presets import builtin_presets

EPOCHS = 30
# Adaptive Sybils that join above weight 0 up to a cap, and keys that fork at trial end.
CAP_AND_FORK = (
    RosterEntry(90, 95, StrategySpec("adaptive-sybil", {"join_weight": 0.01,
                                                         "max_population": 100})),
    RosterEntry(95, 100, StrategySpec("long-range-fork", {"fork_depth": 20})),
)


def _early_bursts() -> tuple:
    """`case-a-sybil`'s roster, bursting at epoch 10 and every 8 epochs after."""
    (entry,) = builtin_presets()["case-a-sybil"].build().roster
    params = {**entry.spec.params, "burst_epoch": 10, "burst_every": 8}
    return (dataclasses.replace(entry, spec=StrategySpec(entry.spec.kind, params)),)


PINNED = {
    "case-b-fairness-100": (
        {"oracle_rate": 0.5, "epsilon": 0.5},
        "98bd86bbc625cc0e179b557042e61cccd6b4d89e3e4ab7cf3bd8264fc6cdb800",
    ),
    "case-d-adaptive-sybil": (
        {}, "c85f1983c21da646ebfd467689e43c2ddc33b383de897f2d091de3b24d0aaaab",
    ),
    "case-a-stealth": (
        {}, "f328cd5094406c5097e4f85cda15f41be253bc4e16751ef00e1255e338474aa5",
    ),
    "case-a-sybil": (
        {"roster": _early_bursts()},
        "d37af83a9ca0e0728f63e7ba908e4a7ef507e4520d22ace699c82d436ff886c6",
    ),
    "case-d-long-range": (
        {}, "653f58f548ebdbca83e8c1c1453f612e2e162688e559fe00ced2fceb4cfb5b6d",
    ),
    "case-d-griefing": (
        {}, "53e30602fc53199bd4b7bce9f3d88bc83d0bb9e2f2e4de45e48bf63f548aa3ec",
    ),
    # A case name past the "/" names a variant of the preset before it.
    "case-d-griefing/paired": (
        {"protocol": "paired"},
        "24696b5633ec6288fdd7c99662cc69fcf094d56606c315e8664cfb72d8949338",
    ),
    "case-b-fairness-100/newcomer-override": (
        {"newcomer_epoch": 10, "proposer_override": ProposerOverride("newcomer", 12, 18)},
        "35bc8f983b9e8a21cc8144bae9047c1c010a1514c08eea6684b574ddd3a874e2",
    ),
    "case-a-stealth/pos-slash": (
        {"roster": (RosterEntry(90, 100, StrategySpec("stealth", {"fraud_rate": 0.2})),),
         "pos_slash_delay": 3, "pos_slash_fraction": 0.5},
        "bb5fef20086be7e59054f34d960279746067bee730dce99f1754569d47d5ca8b",
    ),
    "case-d-adaptive-sybil/cap-newcomer-fork": (
        {"newcomer_epoch": 12, "roster": CAP_AND_FORK},
        "c81567237706f4668d97b19271293c211f3cc97fdc1019dc09434f629ef926e6",
    ),
    "case-d-adaptive-sybil/pos-newcomer-fork": (
        {"protocol": "pos", "newcomer_epoch": 12, "roster": CAP_AND_FORK},
        "97afdf7476cf1d519ff46456ea51214d60c42039c0d2f99423002dc87a55a7ff",
    ),
}


def _config(name: str, overrides: dict):
    preset = builtin_presets()[name.split("/")[0]]
    return with_overrides(preset.build(), epochs=EPOCHS, trials=1, **overrides)


def _protocols(config) -> list[str]:
    return ["pob", "pos"] if config.protocol == "paired" else [config.protocol]


def ledger_digest(name: str, overrides: dict) -> str:
    """The digest of the case's runs, one protocol at a time."""
    config = _config(name, overrides)
    digest = hashlib.sha256()
    for protocol in _protocols(config):
        for ledger in run_trial(config, config.seed, protocol=protocol):
            digest.update((ledger_to_json(ledger) + "\n").encode())
    return digest.hexdigest()


def one_loop_digest(name: str, overrides: dict) -> str:
    """The digest of the case's protocols' ledgers from one `trial_epochs` call of
    both protocols."""
    config = _config(name, overrides)
    both = ("pob", "pos")
    lines: dict[str, list[str]] = {protocol: [] for protocol in both}
    for ledgers in trial_epochs(config, config.seed, both):
        assert [ledger.protocol for ledger in ledgers] == list(both)
        for ledger in ledgers:
            lines[ledger.protocol].append(ledger_to_json(ledger) + "\n")
    digest = hashlib.sha256()
    for protocol in _protocols(config):
        digest.update("".join(lines[protocol]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_ledger_bytes_are_pinned(name):
    overrides, expected = PINNED[name]
    assert ledger_digest(name, overrides) == expected
    assert one_loop_digest(name, overrides) == expected


def test_only_protocol_dependent_rosters_run_alone():
    alone = {name for name, (overrides, _) in PINNED.items()
             if not shares_one_state(_config(name, overrides), None)}
    assert alone == {"case-d-adaptive-sybil", "case-d-adaptive-sybil/cap-newcomer-fork",
                     "case-d-adaptive-sybil/pos-newcomer-fork", "case-d-griefing",
                     "case-d-griefing/paired"}
