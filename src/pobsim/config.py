"""Scenario configuration: schema, defaults, loading and echo.

Configs are single YAML documents (key: value with nesting). Every field
of `ScenarioConfig` and of its blocks `PenaltySettings` and
`ProposerOverride` carries its parser, a function from the field's YAML
form to the stored value that raises ConfigError naming the field, and
says whether a sweep grid may vary it. The dataclasses are the one
schema, and a config is checked when it is made: `ScenarioConfig`'s
constructor parses every field from its YAML form and runs the
cross-field checks. That is the one parse path: the loader, a preset's
`build()`, `dataclasses.replace`, `with_overrides` and sweep points (set
on the config's YAML form) all refuse a bad value with the same
ConfigError. The echo writes each stored value back in the form the
loader reads.
Unknown keys are rejected anywhere in the tree. Supermajority thresholds
are stored as exact rationals ("2/3" stays two thirds, never
0.6666...7), because a float threshold silently flips edge-case
committee verdicts.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import re
import sys
from dataclasses import MISSING, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from .adversaries import StrategySpec
from .errors import ConfigError, RewardPoolError
from .rewards import RewardSchedule, stipends
from .scoring import ActionKind
from .weights import left_sum

PROTOCOLS = ("pob", "pos", "paired")

DEFAULT_MOTIVATION_WEIGHTS = (0.5, 0.3, 0.2)
DEFAULT_MOTIVATION_INTENSITIES = {
    "propose-block": (1.0, 0.6, 0.3),
    "validate-block": (0.8, 0.5, 0.2),
    "oracle-report": (0.7, 0.6, 0.4),
    "fraud-attempt": (0.2, 0.0, 0.0),
    "idle": (0.0, 0.0, 0.0),
    "double-sign": (0.2, 0.0, 0.0),
}
_KINDS = tuple(k.value for k in ActionKind)


def parse_rational(value: Any, field_name: str) -> Fraction:
    """Accept "2/3", decimal strings, ints and floats; store exactly."""
    try:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, str):
            return Fraction(value.strip())
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        if isinstance(value, float):
            # Decimal-exact reading: 0.67 means 67/100, not its float bits.
            return Fraction(repr(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(field_name, f"cannot parse rational from {value!r}: {exc}") from None
    raise ConfigError(field_name, f"cannot parse rational from {value!r}")


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


# ---------------------------------------------------------------------------
# Field parsers: (YAML form, path) -> stored value, or ConfigError at path
# ---------------------------------------------------------------------------

Parser = Callable[[Any, str], Any]


def _field(default, parse: Parser, sweep: bool = False):
    """A dataclass field whose metadata carries its parser, and whether a
    sweep grid may vary it."""
    metadata = {"parse": parse, "sweep": sweep}
    if isinstance(default, dict):
        return field(default_factory=lambda: dict(default), metadata=metadata)
    return field(default=default, metadata=metadata)


@functools.cache
def _parsers(cls) -> dict[str, Parser]:
    return {f.name: f.metadata["parse"] for f in dataclasses.fields(cls)}


def _require_type(value, types, path):
    if isinstance(value, bool) and bool not in (types if isinstance(types, tuple) else (types,)):
        raise ConfigError(path, f"expected {types}, found bool")
    if not isinstance(value, types):
        raise ConfigError(path, f"expected {types}, found {type(value).__name__}")
    return value


def _num(value, path, lo=None, hi=None, integer=False):
    if integer:
        _require_type(value, int, path)
    else:
        _require_type(value, (int, float), path)
        if not -sys.float_info.max <= value <= sys.float_info.max:  # also false for nan
            raise ConfigError(path, "not a finite number")
        value = float(value)
    if lo is not None and value < lo:
        raise ConfigError(path, f"value {value} below allowed minimum {lo}")
    if hi is not None and value > hi:
        raise ConfigError(path, f"value {value} above allowed maximum {hi}")
    return value


def _int(lo=None, hi=None) -> Parser:
    return lambda value, path: _num(value, path, lo, hi, integer=True)


def _float(lo=None, hi=None) -> Parser:
    return lambda value, path: _num(value, path, lo, hi)


def _choice(*options: str) -> Parser:
    def parse(value, path):
        if value not in options:
            raise ConfigError(path, f"{value!r} not one of {', '.join(options)}")
        return value
    return parse


def _optional(parse: Parser) -> Parser:
    return lambda value, path: None if value is None else parse(value, path)


def _floats(lo=None, hi=None, length=None, unit_sum=False) -> Parser:
    """A list of numbers, each in [lo, hi], stored as a tuple of floats."""
    def parse(value, path):
        vec = tuple(_num(v, f"{path}[{i}]", lo, hi)
                    for i, v in enumerate(_require_type(value, list, path)))
        if length is not None and len(vec) != length:
            raise ConfigError(path, f"expected exactly {length} components")
        if unit_sum and abs(left_sum(vec) - 1.0) > 1e-9:
            raise ConfigError(path, f"components sum to {left_sum(vec)}, expected 1")
        return vec
    return parse


def _typed(types) -> Parser:
    return lambda value, path: _require_type(value, types, path)


def _share(value, path) -> Fraction:
    """theta or quorum: a rational in (0, 1]."""
    share = parse_rational(value, path)
    if not 0 < share <= 1:
        raise ConfigError(path, f"{share} outside (0, 1]")
    return share


def _escalation(value, path) -> tuple[float, ...]:
    esc = _floats(lo=1.0)(value, path)
    if not esc or esc[0] != 1.0:
        raise ConfigError(path, "schedule must start at 1.0")
    if any(b < a for a, b in zip(esc, esc[1:])):
        raise ConfigError(path, "schedule must be non-decreasing")
    return esc


def _retained_fraction(value, path) -> float:
    rho_p = _num(value, path, lo=0.0)
    if rho_p >= 1.0:
        raise ConfigError(path, f"{rho_p} outside [0, 1)")
    return rho_p


def _action_kinds(value, path) -> tuple[str, ...]:
    return tuple(_choice(*_KINDS)(k, path) for k in _require_type(value, list, path))


def _check_unknown(mapping: Mapping, allowed: Sequence[str], path: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(
            f"{path}.{min(unknown, key=str)}" if path else min(unknown, key=str),
            f"unknown key (allowed: {', '.join(sorted(allowed))})",
        )


def _parse_fields(cls, raw, path: str) -> dict:
    """Each key of `raw` parsed by the `cls` field of that name."""
    parsers = _parsers(cls)
    prefix = f"{path}." if path else ""
    _require_type(raw, dict, path or "<root>")
    _check_unknown(raw, parsers, path)
    for f in dataclasses.fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in raw:
            raise ConfigError(prefix + f.name, "required key missing")
    return {key: parsers[key](value, prefix + key) for key, value in raw.items()}


def _block(cls) -> Parser:
    """A declared dataclass, parsed from its mapping field by field."""
    return lambda value, path: cls(**_parse_fields(cls, value, path))


@dataclass(frozen=True)
class PenaltySettings:
    """The slash rule the watchdog applies to a guilty subject.

    `escalation[f]` is the multiplier at offense count f (see
    `watchdog.escalation`): it starts at 1 and does not decrease.
    """

    mode: str = _field("additive", _choice("additive", "multiplicative"), sweep=True)
    base_coefficient: float = _field(1.0, _float(1e-12), sweep=True)
    escalation: tuple[float, ...] = _field((1.0,), _escalation)
    rho_p: float = _field(0.2, _retained_fraction, sweep=True)
    full_slash_kinds: tuple[str, ...] = _field(("double-sign",), _action_kinds)


@dataclass(frozen=True)
class ProposerOverride:
    """`validator` is named the proposer in the epochs [from_epoch, to_epoch).

    Who may be named, and that the window is not empty, are cross-field
    checks, made in `validate_runtime`.
    """

    validator: str = _field(MISSING, _typed(str))
    from_epoch: int = _field(MISSING, _int(0))
    to_epoch: int = _field(MISSING, _int(0))


@dataclass(frozen=True)
class RosterEntry:
    lo: int
    hi: int  # half-open
    spec: StrategySpec


def _intensities(value, path) -> dict:
    """Per-kind intensity vectors, over the defaults."""
    _check_unknown(_require_type(value, dict, path), _KINDS, path)
    vector = _floats(lo=0.0)
    return {**DEFAULT_MOTIVATION_INTENSITIES,
            **{kind: vector(vec, f"{path}.{kind}") for kind, vec in value.items()}}


def _roster(value, path) -> tuple[RosterEntry, ...]:
    """Disjoint index ranges [lo, hi), each with a strategy. At most one
    entry is adaptive-sybil, and every long-range-fork entry has the same
    fork depth.

    That `hi` is within `n_validators` is a cross-field check, made in
    `validate_runtime`.
    """
    entries: list[RosterEntry] = []
    for i, item in enumerate(_require_type(value, list, path)):
        at = f"{path}[{i}]"
        _check_unknown(_require_type(item, dict, at), ["range", "kind", "params"], at)
        if "range" not in item or "kind" not in item:
            raise ConfigError(at, "needs 'range' and 'kind'")
        bounds = _require_type(item["range"], list, f"{at}.range")
        if len(bounds) != 2:
            raise ConfigError(f"{at}.range", "expected [lo, hi)")
        lo, hi = (_num(b, f"{at}.range[{j}]", lo=0, integer=True) for j, b in enumerate(bounds))
        if not lo < hi:
            raise ConfigError(f"{at}.range", f"[{lo}, {hi}) is empty")
        clash = [max(lo, e.lo) for e in entries if e.lo < hi and lo < e.hi]
        if clash:
            raise ConfigError(f"{at}.range", f"index {min(clash)} assigned twice")
        params = _require_type(item.get("params") or {}, dict, f"{at}.params")
        try:
            spec = StrategySpec(item["kind"], dict(params))
        except ValueError as exc:
            raise ConfigError(at, str(exc)) from None
        same = [j for j, e in enumerate(entries) if e.spec.kind == spec.kind]
        if same and spec.kind == "adaptive-sybil":
            raise ConfigError(at, f"roster[{same[0]}] is already 'adaptive-sybil'; "
                                  "a trial has one respawn controller")
        if same and spec.kind == "long-range-fork":
            depth, first = (s.param("fork_depth") for s in (spec, entries[same[0]].spec))
            if depth != first:
                raise ConfigError(at, f"fork_depth {depth} differs from roster[{same[0]}]'s "
                                      f"{first}; all long-range-fork keys fork together")
        entries.append(RosterEntry(lo, hi, spec))
    return tuple(entries)


@functools.cache
def sweepable() -> tuple[str, ...]:
    """The parameters a sweep grid may vary, by dotted path: the fields
    declared with `sweep=True`, the penalty block's as `penalty.<name>`."""
    def tagged(cls):
        return [f.name for f in dataclasses.fields(cls) if f.metadata["sweep"]]
    return (*tagged(ScenarioConfig), *(f"penalty.{name}" for name in tagged(PenaltySettings)))


def _sweep(value, path) -> dict:
    """Value lists by sweepable parameter; `validate_runtime` applies each value."""
    for param, values in _require_type(value, dict, path).items():
        if param not in sweepable():
            raise ConfigError(f"{path}.{param}",
                              f"not a sweepable parameter (allowed: {', '.join(sweepable())})")
        if not _require_type(values, list, f"{path}.{param}"):
            raise ConfigError(f"{path}.{param}", "empty value list")
    return {param: list(values) for param, values in value.items()}


@functools.lru_cache(maxsize=1)  # a trace check asks once per block, for one config
def _validator_index(n: int) -> dict[str, int]:
    """Each configured validator's id -> its index, for `n` validators."""
    return {f"v{i:04d}": i for i in range(n)}


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of one experiment, valid from the moment it exists."""

    protocol: str = _field(MISSING, _choice(*PROTOCOLS))
    n_validators: int = _field(MISSING, _int(2))
    name: str = _field("scenario", _typed(str))
    epochs: int = _field(200, _int(0))
    trials: int = _field(30, _int(1))
    seed: int = _field(42, _int())
    workers: int = _field(1, _int(1))

    # protocol parameters
    rho: float = _field(0.9, _float(0.0, 1.0), sweep=True)
    delta: float = _field(0.05, _float(0.0, 1.0), sweep=True)
    theta: Fraction = _field(Fraction(2, 3), _share, sweep=True)
    quorum: Fraction = _field(Fraction(2, 3), _share, sweep=True)
    committee_size: Optional[int] = _field(  # None -> min(30, N - 1)
        None, _optional(_int(0)), sweep=True)
    detection_accuracy: float = _field(0.9, _float(0.0, 1.0), sweep=True)
    observe_prob: float = _field(1.0, _float(0.0, 1.0))
    detection_window: int = _field(1, _int(1))  # read by nothing; kept for the echo
    anomaly_freq_threshold: float = _field(3.0, _float(1e-12))
    anomaly_quality_threshold: float = _field(0.2, _float(1e-12))
    penalty: PenaltySettings = _field(PenaltySettings(), _block(PenaltySettings))

    # rewards
    r_total: float = _field(100.0, _float(0.0), sweep=True)
    r_base: Optional[float] = _field(None, _optional(_float(0.0)))  # None -> r_total / (2 N)
    activity_threshold: float = _field(0.0, _float(), sweep=True)
    epsilon: float = _field(0.0, _float(0.0), sweep=True)
    betas: tuple[float, float, float] = _field(
        (1 / 3, 1 / 3, 1 / 3), _floats(0.0, 1.0, length=3, unit_sum=True))

    # network
    latency_distribution: str = _field("exponential", _choice("exponential", "fixed", "uniform"))
    latency_mean_ms: float = _field(50.0, _float(1e-9))
    processing_ms: float = _field(5.0, _float(0.0))

    # PoS baseline
    pos_slash_delay: int = _field(100, _int(0), sweep=True)
    pos_slash_fraction: float = _field(1.0, _float(0.0, 1.0), sweep=True)
    stake_distribution: str = _field("pareto", _choice("pareto", "equal"))
    stake_alpha: float = _field(1.6, _float(1.0 + 1e-9))
    stake_xmin: float = _field(1.0, _float(1e-12))
    genesis_weights: str = _field("uniform", _choice("uniform", "stake"))

    # honest behavior shape
    honest_utility_lo: float = _field(0.5, _float())
    honest_utility_hi: float = _field(1.5, _float())
    honest_initiative_lo: float = _field(0.6, _float(0.0, 1.0))
    honest_initiative_hi: float = _field(1.0, _float(0.0, 1.0))
    oracle_rate: float = _field(0.0, _float(0.0, 1.0))
    motivation_weights: tuple[float, ...] = _field(
        DEFAULT_MOTIVATION_WEIGHTS, _floats(0.0, 1.0, unit_sum=True))
    motivation_intensities: dict = _field(DEFAULT_MOTIVATION_INTENSITIES, _intensities)

    # scenario devices
    roster: tuple[RosterEntry, ...] = _field((), _roster)
    newcomer_epoch: Optional[int] = _field(None, _optional(_int(1)))
    proposer_override: Optional[ProposerOverride] = _field(
        None, _optional(_block(ProposerOverride)))
    sweep: Optional[dict] = _field(None, _optional(_sweep))

    # reporting
    emit_ledgers: bool = _field(False, _typed(bool))
    dollars_per_unit: float = _field(1.0, _float(0.0))  # read by nothing; kept for the echo
    adaptation_target_frac: float = _field(0.8, _float(0.0, 1.0))
    suppression_drop_frac: float = _field(0.1, _float(0.0, 1.0))

    def __post_init__(self):
        """Parse every field from its YAML form, as the loader does, and store
        the parsed values; then the cross-field checks. A bad value is a
        ConfigError naming its field. Unpickling does not call this, so a
        pool worker's copy is not parsed again."""
        for name, value in _parse_fields(ScenarioConfig, _yaml_fields(self), "").items():
            object.__setattr__(self, name, value)
        self.validate_runtime()

    def resolved_committee_size(self) -> int:
        if self.committee_size is not None:
            return self.committee_size
        return min(30, self.n_validators - 1)

    def resolved_r_base(self) -> float:
        if self.r_base is not None:
            return self.r_base
        return self.r_total / (2 * self.n_validators)

    def reward_schedule(self) -> RewardSchedule:
        return RewardSchedule(self.r_total, self.resolved_r_base(), self.activity_threshold,
                              self.epsilon)

    def validator_ids(self) -> list[str]:
        """The configured validators' ids, in index order."""
        return list(_validator_index(self.n_validators))

    def proposer_refusal(self, vid: str, epoch: int) -> Optional[str]:
        """Why `vid` may not be named the proposer at `epoch` (by a trace block
        or `proposer_override`), or None when it may. It may be a configured
        validator, or the newcomer from `newcomer_epoch` on; not an
        adaptive-sybil member, since pob retires a convicted one and a named
        proposer must stay on the roster. The reason reads after the id."""
        if vid == "newcomer" and self.newcomer_epoch is not None:
            if epoch < self.newcomer_epoch:
                return f"is named before newcomer_epoch {self.newcomer_epoch}, at epoch {epoch}"
            return None
        index = _validator_index(self.n_validators).get(vid)
        if index is None:
            known = f"v0000 ... v{self.n_validators - 1:04d}"
            if self.newcomer_epoch is not None:
                known += " or newcomer"
            return f"is not a validator (known: {known})"
        if any(e.lo <= index < e.hi for e in self.roster if e.spec.kind == "adaptive-sybil"):
            return "is an adaptive-sybil member, which pob retires once convicted"
        return None

    def validate_runtime(self) -> None:
        """Cross-field checks that need the resolved values, and every sweep value."""
        for i, entry in enumerate(self.roster):
            if entry.hi > self.n_validators:
                raise ConfigError(f"roster[{i}].range", f"[{entry.lo}, {entry.hi}) invalid "
                                  f"for {self.n_validators} validators")
            if entry.spec.kind == "adaptive-sybil" and self.protocol == "paired":
                # pob retires and respawns convicted Sybils and pos does not, so their
                # fraud attempts differ and the pair has no loss averted.
                raise ConfigError(f"roster[{i}]", "an adaptive-sybil roster cannot run paired; "
                                  "run protocol pob and pos apart")
        n_types = len(self.motivation_weights)
        for kind, vec in sorted(self.motivation_intensities.items()):
            if len(vec) != n_types:
                raise ConfigError(
                    f"motivation_intensities.{kind}",
                    f"{len(vec)} intensities, expected {n_types} (one per motivation weight)",
                )
        override = self.proposer_override
        if override is not None:
            refusal = self.proposer_refusal(override.validator, override.from_epoch)
            if refusal is not None:
                raise ConfigError("proposer_override.validator",
                                  f"{override.validator!r} {refusal}")
            if override.from_epoch >= override.to_epoch:
                # The window is [from_epoch, to_epoch): equal bounds elect no one.
                raise ConfigError("proposer_override",
                                  f"empty window: from_epoch {override.from_epoch} is not "
                                  f"before to_epoch {override.to_epoch}")
        for lo, hi in (("honest_utility_lo", "honest_utility_hi"),
                       ("honest_initiative_lo", "honest_initiative_hi")):
            if getattr(self, lo) > getattr(self, hi):
                raise ConfigError(lo, f"{getattr(self, lo)} exceeds {hi} = {getattr(self, hi)}")
        if self.resolved_committee_size() > self.n_validators - 1:
            raise ConfigError(
                "committee_size",
                f"{self.resolved_committee_size()} exceeds n_validators - 1 "
                f"= {self.n_validators - 1}",
            )
        # The pool check of every epoch's split (rewards.stipends), for the most validators
        # that can be active at once: the configured ones and the newcomer. A respawned
        # Sybil only replaces a retired one, so no run can fail it once this passes.
        n_active_max = self.n_validators + (1 if self.newcomer_epoch is not None else 0)
        try:
            stipends(self.reward_schedule(), n_active_max)
        except RewardPoolError as exc:
            raise ConfigError("r_base", str(exc)) from None
        for param, values in (self.sweep or {}).items():
            points = [apply_sweep_point(self, {param: value}) for value in values]
            for i, point in enumerate(points):
                if (first := points.index(point)) < i:  # parses as an earlier value does
                    raise ConfigError(f"sweep.{param}", f"{values[i]!r} repeats "
                                      f"{values[first]!r}; a grid runs each value once")


# ---------------------------------------------------------------------------
# Loading and echo
# ---------------------------------------------------------------------------

def config_from_mapping(raw: Mapping) -> ScenarioConfig:
    """Parse a mapping field by field, fill in defaults and run the cross-field checks."""
    return ScenarioConfig(**_parse_fields(ScenarioConfig, raw, ""))


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and validate a YAML scenario file."""
    return loads_config(Path(path).read_text(encoding="utf-8"))


def loads_config(text: str) -> ScenarioConfig:
    import yaml  # only a loaded config needs PyYAML; a run does not
    try:
        raw = yaml.safe_load(io.StringIO(text))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError("<syntax>", f"YAML parse error{where}: {exc}") from None
    if raw is None:
        raise ConfigError("<root>", "empty config")
    return config_from_mapping(raw)


def _yaml_form(value):
    """A stored value in the form the loader reads."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (tuple, list)):
        return [_yaml_form(v) for v in value]
    if isinstance(value, dict):
        return {k: _yaml_form(v) for k, v in value.items()}
    if isinstance(value, RosterEntry):
        return {"range": [value.lo, value.hi], "kind": value.spec.kind,
                "params": _yaml_form(value.spec.params)}
    if isinstance(value, (PenaltySettings, ProposerOverride)):
        return _yaml_form(dataclasses.asdict(value))
    return value


def _yaml_fields(config: ScenarioConfig) -> dict:
    """Every stored field in the form the loader reads."""
    return {f.name: _yaml_form(getattr(config, f.name)) for f in dataclasses.fields(config)}


def config_to_mapping(config: ScenarioConfig) -> dict:
    """Every effective value, in the same shape load_config accepts."""
    out = _yaml_fields(config)
    out["committee_size"] = config.resolved_committee_size()
    out["r_base"] = config.resolved_r_base()
    for key in ("proposer_override", "sweep"):
        if out[key] is None:
            del out[key]
    return out


# Strings PyYAML writes plain: a letter, then [A-Za-z0-9_./-], but not a
# word its resolver reads as a bool or null; or an n/d rational.
_PLAIN = re.compile(r"[A-Za-z][A-Za-z0-9_./-]*|[0-9]+/[0-9]+")
_BOOL_OR_NULL = {form for word in ("yes", "no", "true", "false", "on", "off", "null")
                 for form in (word, word.capitalize(), word.upper())}


class _NotCovered(Exception):
    """A value `_echo_lines` does not write; PyYAML writes the echo instead."""


def _echo_scalar(value) -> str:
    """`value` as PyYAML's safe dumper writes it in block style."""
    if value is None or type(value) in (bool, int):
        return "null" if value is None else str(value).lower()  # True -> true
    if type(value) is float:
        text = repr(value).lower()
        if "." not in text and "e" in text:
            text = text.replace("e", ".0e", 1)  # 1e-05 -> 1.0e-05, a YAML float
        return {"inf": ".inf", "-inf": "-.inf", "nan": ".nan"}.get(text, text)
    if type(value) is str and _PLAIN.fullmatch(value) and value not in _BOOL_OR_NULL:
        return value
    if type(value) in (list, dict) and not value:
        return "[]" if type(value) is list else "{}"
    raise _NotCovered  # a nested sequence is one of these


def _echo_lines(value, indent: str) -> list[str]:
    """A mapping or sequence in PyYAML's block style, keys sorted: a
    mapping nests two spaces, a sequence's items sit at its key's indent."""
    lines = []
    if type(value) is dict:
        for key in sorted(value):  # every key is a schema name, short and plain
            item = value[key]
            if type(item) in (dict, list) and item:
                lines.append(f"{indent}{_echo_scalar(key)}:")
                lines += _echo_lines(item, indent + "  " if type(item) is dict else indent)
            else:
                lines.append(f"{indent}{_echo_scalar(key)}: {_echo_scalar(item)}")
        return lines
    for item in value:  # a mapping item's first key follows its "- "
        nested = type(item) is dict and item
        first, *rest = _echo_lines(item, indent + "  ") if nested else [_echo_scalar(item)]
        lines += [f"{indent}- {first.lstrip()}", *rest]
    return lines


def echo_config(config: ScenarioConfig) -> str:
    """`config_to_mapping(config)` byte for byte as `yaml.safe_dump(..., sort_keys=True,
    default_flow_style=False)` writes it, without loading PyYAML unless a value
    is one `_echo_lines` does not cover (a string PyYAML quotes, say)."""
    mapping = config_to_mapping(config)
    try:
        return "".join(line + "\n" for line in _echo_lines(mapping, ""))
    except _NotCovered:
        import yaml
        return yaml.safe_dump(mapping, sort_keys=True, default_flow_style=False)


def with_overrides(config: ScenarioConfig, **changes) -> ScenarioConfig:
    """A copy of `config` with `changes`, parsed and checked as the loader does."""
    return dataclasses.replace(config, **changes)


def apply_sweep_point(config: ScenarioConfig, point: Mapping[str, Any]) -> ScenarioConfig:
    """A copy of `config` with no grid and the point's values, set on its
    YAML form (`penalty.<name>` in the penalty block) and built through the
    constructor. A value that the constructor refuses, by the field's parser
    or by a cross-field check, is a ConfigError naming `sweep.<param>` with
    the constructor's message, raised before any trial.
    """
    raw = {**_yaml_fields(config), "sweep": None}
    for param, value in point.items():
        if param not in sweepable():
            raise ConfigError(f"sweep.{param}", "not a sweepable parameter")
        *block, key = param.split(".")
        (raw[block[0]] if block else raw)[key] = value
    try:
        return ScenarioConfig(**raw)
    except ConfigError as exc:
        # A cross-field check names the field it blames (r_base for stipends
        # over an r_total), which may not be the point's.
        param = exc.field if exc.field in point else next(iter(point))
        raise ConfigError(f"sweep.{param}", exc.message) from None
