"""The epoch ledger as a file: the canonical writer and the bit-exact replay.

`ledger_to_json` writes one `netsim.EpochLedger` as canonical JSON, and
`replay_epoch` recomputes a pob ledger's after-state from its recorded
inputs, the audit-trail invariant.
"""

from __future__ import annotations

import dataclasses
import json
import marshal
from bisect import bisect_left
from typing import Callable, Optional, Sequence

from .config import ScenarioConfig
from .netsim import EpochLedger, _EpochFacts
from .rewards import PoolSplit, split_pool
from .scoring import ActionKind, MotivationProfile
from .watchdog import Penalty, Verdict, slash
from .weights import ema_step, normalize

# One canonical ledger writer. It writes what
# json.dumps(..., sort_keys=True, separators=(",", ":")) writes for the
# ledger's views as plain dicts and lists, byte for byte, from its columns:
# keys are fixed fragments in sorted order (the roster is sorted, so column
# order is key order), a finite float is its repr, and anything else (None,
# bools, ints, NaN/Infinity, verdicts and free-form events) goes through
# one encoder with json.dumps's settings.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_encode = _ENCODER.encode
_string = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_VERDICT_FIELDS = tuple(f.name for f in dataclasses.fields(Verdict))
_KIND_JSON = {kind: _string(kind.value) for kind in ActionKind}


def _value(x) -> str:
    """A JSON scalar: repr for a finite float, the shared encoder otherwise."""
    cls = x.__class__
    if cls is float:
        s = _float_repr(x)
        if "n" not in s:  # "nan", "inf" and "-inf" are not JSON
            return s
    elif cls is int:
        return int.__repr__(x)
    elif cls is bool:
        return "true" if x else "false"
    return _encode(x)


def _texts(values: Sequence) -> list[str]:
    """Each value as a JSON scalar."""
    try:
        texts = list(map(_float_repr, values))
    except TypeError:  # an int or a bool among the floats
        return list(map(_value, values))
    if "n" in "".join(texts):
        return list(map(_value, values))
    return texts


def _names(roster: list[str]) -> list[str]:
    return list(map(_string, roster))


def _rows(n: int, *pieces) -> str:
    """`n` rows joined, each the row's text of every piece in turn: a piece is a
    list of `n` texts, or one text that every row repeats."""
    width = len(pieces)
    parts = [""] * (width * n)
    for k, piece in enumerate(pieces):
        parts[k::width] = [piece] * n if piece.__class__ is str else piece
    return "".join(parts)


def _map(values: Sequence[float], names: list[str]) -> str:
    """A roster-aligned list as a JSON object keyed by the roster's `names`."""
    return "{" + _rows(len(names), names, ":", _texts(values), ",")[:-1] + "}"


def _motivations(profiles: Sequence[MotivationProfile]) -> list[str]:
    """Each profile's JSON, encoded once per distinct profile."""
    distinct = {id(m): m for m in profiles}
    texts = {key: '{"intensities":[' + ",".join(_texts(m.intensities)) + '],"weights":['
                  + ",".join(_texts(m.weights)) + "]}" for key, m in distinct.items()}
    return list(map(texts.__getitem__, map(id, profiles)))


def _behaviors(base_utility: list[float], context_factor: list[float], initiative: list[float],
               actor: list[int], fraud: list[bool], kind: list[ActionKind],
               motivation: list[MotivationProfile], epoch: int, names: list[str]) -> str:
    rows = _rows(len(actor), '{"actor":', list(map(names.__getitem__, actor)),
                 ',"base_utility":', _texts(base_utility),
                 ',"context_factor":', _texts(context_factor), ',"epoch":', _value(epoch),
                 ',"initiative":', _texts(initiative),
                 ',"is_fraud_ground_truth":', list(map(_value, fraud)),
                 ',"kind":', list(map(_KIND_JSON.__getitem__, kind)),
                 ',"motivation":', _motivations(motivation), "},")
    return "[" + rows[:-1] + "]"


def _payouts(total: list[float], bonus: list[float], multiplier: list[float], base: float,
             actives: list[int], names: list[str]) -> str:
    rows = _rows(len(actives), '{"activeness_multiplier":', _texts(multiplier),
                 ',"base":', _value(base), ',"bonus":', _texts(bonus), ',"total":', _texts(total),
                 ',"validator":', list(map(names.__getitem__, actives)), "},")
    return "[" + rows[:-1] + "]"


def _latency(proposals: list[float], votes: list[float]) -> str:
    """The latency samples: each validator's proposal delay, then its vote delay."""
    return "[" + _rows(len(proposals), _texts(proposals), ",", _texts(votes), ",")[:-1] + "]"


def _verdicts(verdicts: Sequence[Verdict]) -> str:
    return _encode([{f: getattr(v, f) for f in _VERDICT_FIELDS} for v in verdicts])


def _same(a, b) -> bool:
    """Whether `a` and `b` write the same JSON: one object, or equal values of the same
    types and bits. `==` alone is not enough: it takes -0.0 for 0.0 and True for 1
    and 1.0, which each write differently; marshal writes each value's type and bits."""
    if a is b:
        return True
    try:
        return a == b and marshal.dumps(a, 2) == marshal.dumps(b, 2)
    except ValueError:  # a value marshal cannot write: no reuse
        return False


def ledger_to_json(ledger: EpochLedger, last: Optional[dict] = None) -> str:
    """Canonical serialization: sorted keys, shortest round-trip floats.

    `last` is the writer state that a trial's ledgers share: for each
    protocol, the parts of the last ledger written, as (write, columns,
    text). A part (the roster's names, each roster map, the behaviors, the
    latency samples, the payouts) is one function of a few columns, and its
    text is copied from an earlier part of the same function whose columns
    are each `_same` as its own. A protocol hands out a new weight list on
    every change (see the protocol rules in `netsim`), so an unchanged list
    is the same object; a paired trial's halves draw the same behaviors and
    delays, so their twin columns are equal.
    """
    last = {} if last is None else last
    earlier = [known for parts in last.values() for known in parts]
    written = last[ledger.protocol] = []

    def part(write: Callable, *columns):
        # Callers list a part's most changeable columns first, where a mismatch shows soonest.
        for known in written + earlier:
            if known[0] is write and all(map(_same, known[1], columns)):
                text = known[2]
                break
        else:
            text = write(*columns)
        written.append((write, columns, text))
        return text

    names = part(_names, ledger.roster)
    c, split = ledger.behavior_rows, ledger.pool_split
    behaviors = part(_behaviors, c.base_utility, c.context_factor, c.initiative, c.actor,
                     c.fraud, c.kind, c.motivation, c.epoch, names)
    payouts = part(_payouts, split.total, split.bonus, split.multiplier, split.base,
                   split.actives, names)
    return (
        f'{{"activeness":{part(_map, ledger.roster_activeness, names)}'
        f',"behaviors":{behaviors}'
        f',"confirm_ms":{_value(ledger.confirm_ms)}'
        f',"confirmed":{_value(ledger.confirmed)}'
        f',"epoch":{_value(ledger.epoch)}'
        f',"events":{_encode(list(ledger.events))}'
        f',"latency_samples":{part(_latency, ledger.proposal_delays, ledger.vote_delays)}'
        f',"neutralized":{_encode(list(ledger.neutralized))}'
        f',"payouts":{payouts}'
        f',"proposer":{_string(ledger.proposer)}'
        f',"protocol":{_string(ledger.protocol)}'
        f',"scores":{part(_map, ledger.roster_scores, names)}'
        f',"verdicts":{_verdicts(ledger.verdicts)}'
        f',"weights_after":{part(_map, ledger.roster_weights_after, names)}'
        f',"weights_before":{part(_map, ledger.roster_weights_before, names)}}}'
    )


def replay_epoch(ledger: EpochLedger, config: ScenarioConfig) -> tuple[list[float], PoolSplit]:
    """Recompute an epoch's after-state from its recorded inputs.

    Applies the recorded verdicts and re-runs the trial's kernels: scores
    (`_EpochFacts`), slash, weight and reward. Returns the roster-aligned
    weights after the epoch and the pool split, which must equal the ledger's
    `roster_weights_after` and `pool_split` bit-exactly; anything else means
    the ledger or the pipeline drifted.
    """
    if ledger.protocol != "pob":
        raise ValueError("ledger replay is defined for the behavior-weighted protocol")
    roster = ledger.roster
    weights = list(ledger.roster_weights_before)
    scores = _EpochFacts(ledger.behavior_rows, list(range(len(roster))), config.betas).scores
    if ledger.verdicts:
        for v in ledger.verdicts:
            if v.guilty:
                at = bisect_left(roster, v.subject)
                weights[at] = slash(weights[at], Penalty(v.penalty_kind, v.penalty_value))
        weights = normalize(weights)
    weights = ema_step(weights, scores, config.rho)
    return weights, split_pool(config.reward_schedule(), weights, scores, ledger.roster_activeness)
