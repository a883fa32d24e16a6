"""Pinned ledger bytes of eight short runs that no golden preset covers.

Each digest is the sha256 of every ledger's `ledger_to_json` line, in
(protocol, epoch) order, of a 30-epoch run. Every digest must hold both
ways a trial runs: one protocol at a time through `run_trial`, and both
protocols in one `trial_epochs` loop (each alone where the roster's draws
depend on the protocol, as `experiments` runs them). A change to the
epoch pipeline must leave them as they are:

- `case-b-fairness-100` with `oracle_rate: 0.5` and `epsilon: 0.5`:
  actors with several records and activeness multipliers other than 1;
- `case-d-adaptive-sybil`: joins, retirements and roster rebuilds;
- `case-a-stealth`: fraud records and verdicts;
- `case-a-sybil` with bursts at epochs 10, 18 and 26: coalition frauds,
  coalition votes and their verdicts, which the preset's epoch-50 burst
  never reaches within 30 epochs;
- `case-d-long-range`: stealth frauds of the compromised keys and the
  trial-end fork outcome;
- `case-d-griefing`: the proposer override seating the griefer, and the
  same run paired, which runs each protocol alone;
- `case-b-fairness-100` with `newcomer_epoch: 10` and the newcomer as the
  proposer override for epochs 12 to 17: a join, and both protocols of
  a paired epoch seating the same proposer.
"""

import dataclasses
import hashlib

import pytest

from pobsim.adversaries import StrategySpec
from pobsim.config import with_overrides
from pobsim.netsim import ledger_to_json, run_trial, shares_one_state, trial_epochs
from pobsim.presets import builtin_presets

EPOCHS = 30


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
        {}, "54d330f7a372961949273edc201441b7272fe9d71fbf8806f4254aaf64495462",
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
        {"newcomer_epoch": 10, "proposer_override": ("newcomer", 12, 18)},
        "35bc8f983b9e8a21cc8144bae9047c1c010a1514c08eea6684b574ddd3a874e2",
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
        run_trial(config, config.seed, protocol=protocol,
                  sink=lambda ledger: digest.update((ledger_to_json(ledger) + "\n").encode()))
    return digest.hexdigest()


def one_loop_digest(name: str, overrides: dict) -> str:
    """The digest of the case's protocols' ledgers from one `trial_epochs` loop of
    both protocols, or of each protocol alone where the roster cannot share one."""
    config = _config(name, overrides)
    both = ("pob", "pos")
    groups = [both] if shares_one_state(config, None) else [(p,) for p in _protocols(config)]
    lines: dict[str, list[str]] = {protocol: [] for protocol in both}
    for group in groups:
        for ledgers in trial_epochs(config, config.seed, group):
            assert [ledger.protocol for ledger in ledgers] == list(group)
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
    assert alone == {"case-d-adaptive-sybil", "case-d-griefing", "case-d-griefing/paired"}
