"""Scenario configuration: schema, defaults, loading and echo.

Configs are single YAML documents (key: value with nesting). Loading
fills in every default and validates ranges; unknown keys are rejected
anywhere in the tree. Supermajority thresholds are stored as exact
rationals ("2/3" stays two thirds, never 0.6666...7), because a float
threshold silently flips edge-case committee verdicts.
"""

from __future__ import annotations

import dataclasses
import io
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import yaml

from .adversaries import StrategySpec
from .errors import ConfigError
from .scoring import ActionKind
from .watchdog import PenaltyPolicy

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

# Parameters a sweep grid may vary, addressed by dotted path.
SWEEPABLE = (
    "rho",
    "delta",
    "theta",
    "quorum",
    "detection_accuracy",
    "committee_size",
    "epsilon",
    "r_total",
    "activity_threshold",
    "penalty.base_coefficient",
    "penalty.mode",
    "penalty.rho_p",
    "pos_slash_delay",
    "pos_slash_fraction",
)


def parse_rational(value: Any, field_name: str) -> Fraction:
    """Accept "2/3", decimal strings, ints and floats; store exactly."""
    try:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, str):
            return Fraction(value.strip())
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            # Decimal-exact reading: 0.67 means 67/100, not its float bits.
            return Fraction(repr(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(field_name, f"cannot parse rational from {value!r}: {exc}") from None
    raise ConfigError(field_name, f"cannot parse rational from {value!r}")


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


@dataclass(frozen=True)
class PenaltySettings:
    mode: str = "additive"
    base_coefficient: float = 1.0
    escalation: tuple[float, ...] = (1.0,)
    rho_p: float = 0.2
    full_slash_kinds: tuple[str, ...] = ("double-sign",)


@dataclass(frozen=True)
class RosterEntry:
    lo: int
    hi: int  # half-open
    spec: StrategySpec


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of one experiment."""

    protocol: str
    n_validators: int
    name: str = "scenario"
    epochs: int = 200
    trials: int = 30
    seed: int = 42
    workers: int = 1

    # protocol parameters
    rho: float = 0.9
    delta: float = 0.05
    theta: Fraction = Fraction(2, 3)
    quorum: Fraction = Fraction(2, 3)
    committee_size: Optional[int] = None  # None -> min(30, N - 1)
    detection_accuracy: float = 0.9
    observe_prob: float = 1.0
    detection_window: int = 1
    anomaly_freq_threshold: float = 3.0
    anomaly_quality_threshold: float = 0.2
    penalty: PenaltySettings = PenaltySettings()

    # rewards
    r_total: float = 100.0
    r_base: Optional[float] = None  # None -> r_total / (2 N)
    activity_threshold: float = 0.0
    epsilon: float = 0.0
    betas: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    # network
    latency_distribution: str = "exponential"
    latency_mean_ms: float = 50.0
    processing_ms: float = 5.0

    # PoS baseline
    pos_slash_delay: int = 100
    pos_slash_fraction: float = 1.0
    stake_distribution: str = "pareto"  # pareto | equal
    stake_alpha: float = 1.6
    stake_xmin: float = 1.0
    genesis_weights: str = "uniform"  # uniform | stake

    # honest behavior shape
    honest_utility_lo: float = 0.5
    honest_utility_hi: float = 1.5
    honest_initiative_lo: float = 0.6
    honest_initiative_hi: float = 1.0
    oracle_rate: float = 0.0
    motivation_weights: tuple[float, ...] = DEFAULT_MOTIVATION_WEIGHTS
    motivation_intensities: dict = field(
        default_factory=lambda: dict(DEFAULT_MOTIVATION_INTENSITIES)
    )

    # scenario devices
    roster: tuple[RosterEntry, ...] = ()
    newcomer_epoch: Optional[int] = None
    proposer_override: Optional[tuple[str, int, int]] = None
    sweep: Optional[dict] = None

    # reporting
    emit_ledgers: bool = False
    dollars_per_unit: float = 1.0
    adaptation_target_frac: float = 0.8
    suppression_drop_frac: float = 0.1

    def resolved_committee_size(self) -> int:
        if self.committee_size is not None:
            return self.committee_size
        return min(30, self.n_validators - 1)

    def resolved_r_base(self) -> float:
        if self.r_base is not None:
            return self.r_base
        return self.r_total / (2 * self.n_validators)

    def penalty_policy(self) -> PenaltyPolicy:
        return PenaltyPolicy(
            base_coefficient=self.penalty.base_coefficient,
            escalation=self.penalty.escalation,
            mode=self.penalty.mode,
            rho_p=self.penalty.rho_p,
            full_slash_kinds=frozenset(ActionKind(k) for k in self.penalty.full_slash_kinds),
        )

    def validator_ids(self) -> list[str]:
        """The configured validators' ids, in index order."""
        return [f"v{i:04d}" for i in range(self.n_validators)]

    def validate_runtime(self) -> None:
        """Cross-field checks that need the resolved values."""
        n_types = len(self.motivation_weights)
        for kind, vec in sorted(self.motivation_intensities.items()):
            if len(vec) != n_types:
                raise ConfigError(
                    f"motivation_intensities.{kind}",
                    f"{len(vec)} intensities, expected {n_types} (one per motivation weight)",
                )
        if self.proposer_override is not None:
            vid, from_epoch, to_epoch = self.proposer_override
            if not ((vid == "newcomer" and self.newcomer_epoch is not None)
                    or vid in self.validator_ids()):
                known = f"v0000 ... v{self.n_validators - 1:04d}"
                if self.newcomer_epoch is not None:
                    known += " or newcomer"
                raise ConfigError("proposer_override.validator",
                                  f"unknown validator {vid!r} (known: {known})")
            if from_epoch >= to_epoch:
                # The window is [from_epoch, to_epoch): equal bounds elect no one.
                raise ConfigError("proposer_override",
                                  f"empty window: from_epoch {from_epoch} is not before "
                                  f"to_epoch {to_epoch}")
            if vid == "newcomer" and from_epoch < self.newcomer_epoch:
                raise ConfigError("proposer_override.from_epoch",
                                  f"{from_epoch} is before newcomer_epoch {self.newcomer_epoch}")
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
        n_active_max = self.n_validators + (1 if self.newcomer_epoch is not None else 0)
        if self.resolved_r_base() * n_active_max > self.r_total + 1e-9:
            raise ConfigError(
                "r_base",
                f"stipend {self.resolved_r_base()} x {n_active_max} validators "
                f"exceeds r_total {self.r_total}",
            )


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------

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
        value = float(value)
    if lo is not None and value < lo:
        raise ConfigError(path, f"value {value} below allowed minimum {lo}")
    if hi is not None and value > hi:
        raise ConfigError(path, f"value {value} above allowed maximum {hi}")
    return value


def _check_unknown(mapping: Mapping, allowed: Sequence[str], path: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(
            f"{path}.{sorted(unknown)[0]}" if path else sorted(unknown)[0],
            f"unknown key (allowed: {', '.join(sorted(allowed))})",
        )


_TOP_KEYS = [
    "protocol", "n_validators", "name", "epochs", "trials", "seed", "workers",
    "rho", "delta", "theta", "quorum", "committee_size", "detection_accuracy",
    "observe_prob", "detection_window", "anomaly_freq_threshold",
    "anomaly_quality_threshold", "penalty", "r_total", "r_base",
    "activity_threshold", "epsilon", "betas", "latency_distribution",
    "latency_mean_ms", "processing_ms", "pos_slash_delay", "pos_slash_fraction",
    "stake_distribution", "stake_alpha", "stake_xmin", "genesis_weights",
    "honest_utility_lo", "honest_utility_hi", "honest_initiative_lo",
    "honest_initiative_hi", "oracle_rate", "motivation_weights",
    "motivation_intensities", "roster", "newcomer_epoch", "proposer_override",
    "sweep", "emit_ledgers", "dollars_per_unit", "adaptation_target_frac",
    "suppression_drop_frac",
]


# (key, lo, hi) of the plain numeric fields, checked by the loader and
# by with_overrides.
_INT_RANGES = (
    ("epochs", 0, None),
    ("trials", 1, None),
    ("seed", None, None),
    ("workers", 1, None),
    ("detection_window", 1, None),
    ("pos_slash_delay", 0, None),
)
_FLOAT_RANGES = (
    ("rho", 0.0, 1.0),
    ("delta", 0.0, 1.0),
    ("detection_accuracy", 0.0, 1.0),
    ("observe_prob", 0.0, 1.0),
    ("anomaly_freq_threshold", 1e-12, None),
    ("anomaly_quality_threshold", 1e-12, None),
    ("r_total", 0.0, None),
    ("epsilon", 0.0, None),
    ("latency_mean_ms", 1e-9, None),
    ("processing_ms", 0.0, None),
    ("pos_slash_fraction", 0.0, 1.0),
    ("stake_alpha", 1.0 + 1e-9, None),
    ("stake_xmin", 1e-12, None),
    ("honest_utility_lo", None, None),
    ("honest_utility_hi", None, None),
    ("honest_initiative_lo", 0.0, 1.0),
    ("honest_initiative_hi", 0.0, 1.0),
    ("oracle_rate", 0.0, 1.0),
    ("dollars_per_unit", 0.0, None),
    ("adaptation_target_frac", 0.0, 1.0),
    ("suppression_drop_frac", 0.0, 1.0),
    ("activity_threshold", None, None),
)
# key -> (lo, hi, integer) for every field of the two tables
_RANGES = {key: (lo, hi, True) for key, lo, hi in _INT_RANGES}
_RANGES.update((key, (lo, hi, False)) for key, lo, hi in _FLOAT_RANGES)


def _share(value, path) -> Fraction:
    """theta or quorum: a rational in (0, 1]."""
    share = parse_rational(value, path)
    if not 0 < share <= 1:
        raise ConfigError(path, f"{share} outside (0, 1]")
    return share


def _penalty_value(key: str, value, path: str):
    """penalty.mode, penalty.base_coefficient or penalty.rho_p, checked."""
    if key == "mode":
        if value not in ("additive", "multiplicative"):
            raise ConfigError(path, f"{value!r} not additive/multiplicative")
        return value
    if key == "base_coefficient":
        return _num(value, path, lo=1e-12)
    rho_p = _num(value, path, lo=0.0)
    if rho_p >= 1.0:
        raise ConfigError(path, f"{rho_p} outside [0, 1)")
    return rho_p


def config_from_mapping(raw: Mapping) -> ScenarioConfig:
    """Validate a parsed mapping and produce a ScenarioConfig with defaults."""
    _require_type(raw, dict, "<root>")
    _check_unknown(raw, _TOP_KEYS, "")

    if "protocol" not in raw:
        raise ConfigError("protocol", "required key missing")
    if "n_validators" not in raw:
        raise ConfigError("n_validators", "required key missing")
    protocol = raw["protocol"]
    if protocol not in PROTOCOLS:
        raise ConfigError("protocol", f"{protocol!r} not one of {PROTOCOLS}")
    n = int(_num(raw["n_validators"], "n_validators", lo=2, integer=True))

    kw: dict[str, Any] = {"protocol": protocol, "n_validators": n}

    if "name" in raw:
        kw["name"] = str(_require_type(raw["name"], str, "name"))
    for key, lo, hi in _INT_RANGES:
        if key in raw:
            kw[key] = int(_num(raw[key], key, lo=lo, hi=hi, integer=True))
    for key, lo, hi in _FLOAT_RANGES:
        if key in raw:
            kw[key] = _num(raw[key], key, lo=lo, hi=hi)
    if "r_base" in raw and raw["r_base"] is not None:
        kw["r_base"] = _num(raw["r_base"], "r_base", lo=0.0)
    if "committee_size" in raw and raw["committee_size"] is not None:
        kw["committee_size"] = int(_num(raw["committee_size"], "committee_size", lo=0, integer=True))

    for key in ("theta", "quorum"):
        if key in raw:
            kw[key] = _share(raw[key], key)

    if "latency_distribution" in raw:
        dist = raw["latency_distribution"]
        if dist not in ("exponential", "fixed", "uniform"):
            raise ConfigError("latency_distribution", f"{dist!r} not a known distribution")
        kw["latency_distribution"] = dist
    if "stake_distribution" in raw:
        dist = raw["stake_distribution"]
        if dist not in ("pareto", "equal"):
            raise ConfigError("stake_distribution", f"{dist!r} not one of pareto, equal")
        kw["stake_distribution"] = dist
    if "genesis_weights" in raw:
        mode = raw["genesis_weights"]
        if mode not in ("uniform", "stake"):
            raise ConfigError("genesis_weights", f"{mode!r} not one of uniform, stake")
        kw["genesis_weights"] = mode

    if "betas" in raw:
        betas = _require_type(raw["betas"], list, "betas")
        if len(betas) != 3:
            raise ConfigError("betas", "expected exactly three components")
        betas = tuple(_num(b, f"betas[{i}]", lo=0.0, hi=1.0) for i, b in enumerate(betas))
        if abs(sum(betas) - 1.0) > 1e-9:
            raise ConfigError("betas", f"components sum to {sum(betas)}, expected 1")
        kw["betas"] = betas

    if "penalty" in raw:
        pen = _require_type(raw["penalty"], dict, "penalty")
        _check_unknown(pen, ["mode", "base_coefficient", "escalation", "rho_p",
                             "full_slash_kinds"], "penalty")
        pkw: dict[str, Any] = {}
        for key in ("mode", "base_coefficient", "rho_p"):
            if key in pen:
                pkw[key] = _penalty_value(key, pen[key], f"penalty.{key}")
        if "escalation" in pen:
            esc = _require_type(pen["escalation"], list, "penalty.escalation")
            esc = tuple(_num(e, f"penalty.escalation[{i}]", lo=1.0) for i, e in enumerate(esc))
            if not esc or esc[0] != 1.0:
                raise ConfigError("penalty.escalation", "schedule must start at 1.0")
            if any(b < a for a, b in zip(esc, esc[1:])):
                raise ConfigError("penalty.escalation", "schedule must be non-decreasing")
            pkw["escalation"] = esc
        if "full_slash_kinds" in pen:
            kinds = _require_type(pen["full_slash_kinds"], list, "penalty.full_slash_kinds")
            valid = {k.value for k in ActionKind}
            for k in kinds:
                if k not in valid:
                    raise ConfigError("penalty.full_slash_kinds", f"unknown kind {k!r}")
            pkw["full_slash_kinds"] = tuple(kinds)
        kw["penalty"] = PenaltySettings(**pkw)

    if "motivation_weights" in raw:
        mw = _require_type(raw["motivation_weights"], list, "motivation_weights")
        mw = tuple(_num(w, f"motivation_weights[{i}]", lo=0.0, hi=1.0) for i, w in enumerate(mw))
        if abs(sum(mw) - 1.0) > 1e-9:
            raise ConfigError("motivation_weights", f"sum to {sum(mw)}, expected 1")
        kw["motivation_weights"] = mw
    if "motivation_intensities" in raw:
        mi_raw = _require_type(raw["motivation_intensities"], dict, "motivation_intensities")
        valid = {k.value for k in ActionKind}
        _check_unknown(mi_raw, sorted(valid), "motivation_intensities")
        mi = dict(DEFAULT_MOTIVATION_INTENSITIES)
        for kind, vec in mi_raw.items():
            vec = _require_type(vec, list, f"motivation_intensities.{kind}")
            mi[kind] = tuple(
                _num(v, f"motivation_intensities.{kind}[{i}]", lo=0.0)
                for i, v in enumerate(vec)
            )
        kw["motivation_intensities"] = mi

    if "roster" in raw:
        entries = _require_type(raw["roster"], list, "roster")
        parsed: list[RosterEntry] = []
        used: set[int] = set()
        for i, item in enumerate(entries):
            path = f"roster[{i}]"
            item = _require_type(item, dict, path)
            _check_unknown(item, ["range", "kind", "params"], path)
            if "range" not in item or "kind" not in item:
                raise ConfigError(path, "needs 'range' and 'kind'")
            rng = _require_type(item["range"], list, f"{path}.range")
            if len(rng) != 2:
                raise ConfigError(f"{path}.range", "expected [lo, hi)")
            lo = int(_num(rng[0], f"{path}.range[0]", lo=0, integer=True))
            hi = int(_num(rng[1], f"{path}.range[1]", lo=0, integer=True))
            if not lo < hi <= n:
                raise ConfigError(f"{path}.range", f"[{lo}, {hi}) invalid for {n} validators")
            overlap = used & set(range(lo, hi))
            if overlap:
                raise ConfigError(f"{path}.range", f"index {min(overlap)} assigned twice")
            used.update(range(lo, hi))
            params = item.get("params", {}) or {}
            params = _require_type(params, dict, f"{path}.params")
            try:
                spec = StrategySpec(item["kind"], dict(params))
            except ValueError as exc:
                raise ConfigError(path, str(exc)) from None
            parsed.append(RosterEntry(lo, hi, spec))
        kw["roster"] = tuple(parsed)

    if "newcomer_epoch" in raw and raw["newcomer_epoch"] is not None:
        kw["newcomer_epoch"] = int(_num(raw["newcomer_epoch"], "newcomer_epoch", lo=1, integer=True))

    if "proposer_override" in raw and raw["proposer_override"] is not None:
        po = _require_type(raw["proposer_override"], dict, "proposer_override")
        _check_unknown(po, ["validator", "from_epoch", "to_epoch"], "proposer_override")
        for k in ("validator", "from_epoch", "to_epoch"):
            if k not in po:
                raise ConfigError(f"proposer_override.{k}", "required key missing")
        kw["proposer_override"] = (
            str(po["validator"]),
            int(_num(po["from_epoch"], "proposer_override.from_epoch", lo=0, integer=True)),
            int(_num(po["to_epoch"], "proposer_override.to_epoch", lo=0, integer=True)),
        )

    if "sweep" in raw and raw["sweep"] is not None:
        sw = _require_type(raw["sweep"], dict, "sweep")
        for param, values in sw.items():
            if param not in SWEEPABLE:
                raise ConfigError(f"sweep.{param}",
                                  f"not a sweepable parameter (allowed: {', '.join(SWEEPABLE)})")
            _require_type(values, list, f"sweep.{param}")
            if not values:
                raise ConfigError(f"sweep.{param}", "empty value list")
        kw["sweep"] = {k: list(v) for k, v in sw.items()}

    if "emit_ledgers" in raw:
        kw["emit_ledgers"] = bool(_require_type(raw["emit_ledgers"], bool, "emit_ledgers"))

    config = ScenarioConfig(**kw)
    config.validate_runtime()
    for param, values in (config.sweep or {}).items():
        for value in values:
            apply_sweep_point(config, {param: value})
    return config


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and validate a YAML scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    return loads_config(text)


def loads_config(text: str) -> ScenarioConfig:
    try:
        raw = yaml.safe_load(io.StringIO(text))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError("<syntax>", f"YAML parse error{where}: {exc}") from None
    if raw is None:
        raise ConfigError("<root>", "empty config")
    return config_from_mapping(raw)


# ---------------------------------------------------------------------------
# Echo (effective config, reloadable)
# ---------------------------------------------------------------------------

def config_to_mapping(config: ScenarioConfig) -> dict:
    """Every effective value, in the same shape load_config accepts."""
    out = {
        "protocol": config.protocol,
        "n_validators": config.n_validators,
        "name": config.name,
        "epochs": config.epochs,
        "trials": config.trials,
        "seed": config.seed,
        "workers": config.workers,
        "rho": config.rho,
        "delta": config.delta,
        "theta": format_rational(config.theta),
        "quorum": format_rational(config.quorum),
        "committee_size": config.resolved_committee_size(),
        "detection_accuracy": config.detection_accuracy,
        "observe_prob": config.observe_prob,
        "detection_window": config.detection_window,
        "anomaly_freq_threshold": config.anomaly_freq_threshold,
        "anomaly_quality_threshold": config.anomaly_quality_threshold,
        "penalty": {
            "mode": config.penalty.mode,
            "base_coefficient": config.penalty.base_coefficient,
            "escalation": list(config.penalty.escalation),
            "rho_p": config.penalty.rho_p,
            "full_slash_kinds": list(config.penalty.full_slash_kinds),
        },
        "r_total": config.r_total,
        "r_base": config.resolved_r_base(),
        "activity_threshold": config.activity_threshold,
        "epsilon": config.epsilon,
        "betas": list(config.betas),
        "latency_distribution": config.latency_distribution,
        "latency_mean_ms": config.latency_mean_ms,
        "processing_ms": config.processing_ms,
        "pos_slash_delay": config.pos_slash_delay,
        "pos_slash_fraction": config.pos_slash_fraction,
        "stake_distribution": config.stake_distribution,
        "stake_alpha": config.stake_alpha,
        "stake_xmin": config.stake_xmin,
        "genesis_weights": config.genesis_weights,
        "honest_utility_lo": config.honest_utility_lo,
        "honest_utility_hi": config.honest_utility_hi,
        "honest_initiative_lo": config.honest_initiative_lo,
        "honest_initiative_hi": config.honest_initiative_hi,
        "oracle_rate": config.oracle_rate,
        "motivation_weights": list(config.motivation_weights),
        "motivation_intensities": {
            k: list(v) for k, v in sorted(config.motivation_intensities.items())
        },
        "roster": [
            {"range": [e.lo, e.hi], "kind": e.spec.kind, "params": dict(e.spec.params)}
            for e in config.roster
        ],
        "newcomer_epoch": config.newcomer_epoch,
        "emit_ledgers": config.emit_ledgers,
        "dollars_per_unit": config.dollars_per_unit,
        "adaptation_target_frac": config.adaptation_target_frac,
        "suppression_drop_frac": config.suppression_drop_frac,
    }
    if config.proposer_override is not None:
        vid, lo, hi = config.proposer_override
        out["proposer_override"] = {"validator": vid, "from_epoch": lo, "to_epoch": hi}
    if config.sweep is not None:
        out["sweep"] = {k: list(v) for k, v in sorted(config.sweep.items())}
    return out


def echo_config(config: ScenarioConfig) -> str:
    return yaml.safe_dump(config_to_mapping(config), sort_keys=True, default_flow_style=False)


def with_overrides(config: ScenarioConfig, **changes) -> ScenarioConfig:
    """A copy of `config` with `changes`, range-checked as the loader checks them."""
    for key, value in changes.items():
        if key in _RANGES:
            lo, hi, integer = _RANGES[key]
            _num(value, key, lo=lo, hi=hi, integer=integer)
    out = dataclasses.replace(config, **changes)
    out.validate_runtime()
    return out


def apply_sweep_point(config: ScenarioConfig, point: Mapping[str, Any]) -> ScenarioConfig:
    """Return a copy of `config` with the swept parameters set.

    Each value is checked as the loader checks that field, so a bad grid
    point is a ConfigError naming `sweep.<param>`, raised before any trial.
    """
    changes: dict[str, Any] = {}
    penalty_changes: dict[str, Any] = {}
    for param, value in point.items():
        path = f"sweep.{param}"
        if param not in SWEEPABLE:
            raise ConfigError(path, "not a sweepable parameter")
        if param.startswith("penalty."):
            key = param.split(".", 1)[1]
            penalty_changes[key] = _penalty_value(key, value, path)
        elif param in ("theta", "quorum"):
            changes[param] = _share(value, path)
        elif param == "committee_size":
            changes[param] = _num(value, path, lo=0, integer=True)
        else:
            lo, hi, integer = _RANGES[param]
            changes[param] = _num(value, path, lo=lo, hi=hi, integer=integer)
    if penalty_changes:
        changes["penalty"] = dataclasses.replace(config.penalty, **penalty_changes)
    out = dataclasses.replace(config, sweep=None, **changes)
    out.validate_runtime()
    return out
