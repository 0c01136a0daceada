"""Run configs and sweep parameters: the one mapping between JSON and the
config dataclasses.

A run config is a strict JSON document. Each section maps onto one dataclass
(SimulationConfig, MethodSpec, PropagationConfig, a scaling or fusion rule)
field by field, by JSON key, and a rule is chosen by its "kind". Every value
is checked against its field's declared type: a mismatch, a non-finite
number, an unknown key or a missing required field is a ConfigurationError
naming the dotted key. Sweep grid values go through the same checks.
"""

import functools
import hashlib
import json
import math
import types
from collections.abc import Mapping
from dataclasses import MISSING, Field, dataclass, field, fields, is_dataclass, replace
from typing import Any, Union, get_args, get_origin

from .errors import ConfigurationError
from .fusion import EdgePoolFusion, FusionRule, PowerMeanFusion, SingleView
from .graph import CohortScaling, LocalScaling, ScalingRule, UniversalScaling
from .propagation import PropagationConfig
from .simulate import SimulationConfig

SCHEMA_VERSION = 1

BASELINE_METHODS = ("CS", "CSEA", "2CS", "2CSEA")
LP_METHODS = ("LP", "2LP", "2LPEA")
METHODS = BASELINE_METHODS + LP_METHODS


@dataclass(frozen=True)
class MethodSpec:
    """One scoring method plus everything needed to run it on a household."""

    method: str = "2LP"
    view: str = "voice"
    scaling: ScalingRule | None = None
    fusion: FusionRule | None = None
    propagation: PropagationConfig = field(default_factory=PropagationConfig)
    # Bandwidth for the 0/1 session distance. Must stay well below 1 so the
    # cross-session kernel value is negligible; otherwise max-pool fusion
    # floods the graph with a constant floor that drowns the voice edges.
    session_sigma: float = 0.25
    # L2-normalize vector views before building graphs (distances become
    # chord distances on the unit sphere). Off by default.
    unit_normalize: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.is_baseline:
            if self.scaling is not None or self.fusion is not None:
                raise ConfigurationError(
                    f"{self.method} is a baseline; scaling/fusion must be absent")
        else:
            if not (isinstance(self.scaling, ScalingRule) and isinstance(self.fusion, FusionRule)):
                raise ConfigurationError(
                    f"{self.method} requires both a scaling rule and a fusion rule, got "
                    f"{type(self.scaling).__name__} and {type(self.fusion).__name__}")
        if not self.session_sigma > 0:
            raise ConfigurationError("session_sigma must be > 0")

    @property
    def is_baseline(self) -> bool:
        return self.method in BASELINE_METHODS

    @property
    def family(self) -> str:
        """Row group for Table-style reports: baseline, or the scaling kind."""
        if self.is_baseline:
            return "baseline"
        return {UniversalScaling: "universal", CohortScaling: "cohort",
                LocalScaling: "local"}[type(self.scaling)]

    @property
    def label(self) -> str:
        if self.is_baseline:
            return f"{self.method}/{self.view}"
        views = "+".join(self.fusion.view_names)
        if isinstance(self.fusion, PowerMeanFusion):
            views += f"(pmean p={self.fusion.p:g})"
        return f"{self.method}/{self.family}/{views}"


# ---------------------------------------------------------------------------
# The JSON codec
# ---------------------------------------------------------------------------

# Rules, by the "kind" that selects one from a union of rules.
_KINDS = {"universal": UniversalScaling, "cohort": CohortScaling, "local": LocalScaling,
          "single_view": SingleView, "edge_pool": EdgePoolFusion,
          "power_mean": PowerMeanFusion}
_TAGS = {cls: kind for kind, cls in _KINDS.items()}
# Fields whose JSON key is not their name.
_JSON_KEYS = {"view_name": "view", "view_names": "views"}
# Python values a declared field type accepts from JSON, and their JSON name.
_JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), bool: ((bool,), "a boolean"),
               tuple: ((list, tuple), "a list"), dict: ((dict,), "an object"),
               Mapping: ((dict,), "an object")}


@functools.cache
def _fields_by_key(cls) -> dict[str, Field]:
    return {_JSON_KEYS.get(f.name, f.name): f for f in fields(cls)}


def checked(key: str, value: Any, kind: Any) -> Any:
    """value as the declared field type ``kind``, or a ConfigurationError
    naming the dotted key.

    None passes an optional type. An object becomes a dataclass through
    from_dict (a null one takes every default), and a union of rules becomes
    the rule its "kind" names. An int passes as a float and becomes one, and
    a float must be finite; only a bool passes as a bool. A ``tuple[X, ...]``
    or ``tuple[X, Y]`` is checked element by element (as ``key[i]``), and by
    length when fixed, and returned as a tuple; a ``Mapping[str, X]`` is
    checked value by value (as ``key.name``).
    """
    options = get_args(kind) if get_origin(kind) in (Union, types.UnionType) else (kind,)
    if value is None and type(None) in options:
        return None
    options = tuple(k for k in options if k is not type(None))
    if len(options) > 1:
        tag = checked(key, value, dict).get("kind")
        rule = _KINDS.get(tag) if isinstance(tag, str) else None
        if rule not in options:
            raise ConfigurationError(f"{key}: unknown kind {tag!r}")
        return from_dict(rule, value, key)
    kind = options[0]
    if is_dataclass(kind):
        return from_dict(kind, {} if value is None else value, key)
    origin = get_origin(kind) or kind
    accepted, name = _JSON_KINDS[origin]
    if not isinstance(value, accepted) or isinstance(value, bool) and bool not in accepted:
        raise ConfigurationError(f"{key}: expected {name}, got {value!r}")
    if kind is float:
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigurationError(f"{key}: expected a finite number, got {value!r}")
        return number
    if origin is tuple:
        items = get_args(kind)
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        elif len(value) != len(items):
            raise ConfigurationError(
                f"{key}: expected a list of {len(items)} values, got {value!r}")
        return tuple(checked(f"{key}[{i}]", v, k) for i, (v, k) in enumerate(zip(value, items)))
    if origin is Mapping:
        item = get_args(kind)[1]
        return {k: checked(f"{key}.{k}", v, item) for k, v in value.items()}
    return value


def from_dict(cls, data: Any, path: str):
    """An instance of dataclass cls from a JSON object at the dotted path:
    each key the JSON key of a field (or a rule's "kind"), each value checked
    on its field's declared type, each absent field at its default."""
    data = checked(path, data, dict)
    by_key = _fields_by_key(cls)
    unknown = set(data) - set(by_key) - ({"kind"} if cls in _TAGS else set())
    if unknown:
        raise ConfigurationError(f"{path}: unknown keys {sorted(unknown)}")
    values = {}
    for key, f in by_key.items():
        if key in data:
            values[f.name] = checked(f"{path}.{key}", data[key], f.type)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigurationError(f"{path}.{key}: missing")
    return cls(**values)


def to_dict(value: Any) -> Any:
    """The JSON form of a config value: a dataclass becomes an object keyed by
    JSON key, a rule with its "kind", and a tuple becomes a list."""
    if is_dataclass(value):
        out = {"kind": _TAGS[type(value)]} if type(value) in _TAGS else {}
        for key, f in _fields_by_key(type(value)).items():
            out[key] = to_dict(getattr(value, f.name))
        return out
    if isinstance(value, tuple):
        return [to_dict(v) for v in value]
    if isinstance(value, Mapping):
        return {k: to_dict(v) for k, v in value.items()}
    return value


def apply_param(spec: MethodSpec, name: str, value: Any) -> MethodSpec:
    """A copy of the spec with one parameter replaced: ``name`` is the dotted
    path of a field by JSON key (say ``scaling.k``), and the value is checked
    on that field's declared type. Only the sections on the path are rebuilt."""
    def replaced(part, keys: list[str]):
        f = _fields_by_key(type(part)).get(keys[0]) if is_dataclass(part) else None
        if f is None:
            raise ConfigurationError(f"unknown sweep parameter {name!r}")
        new = (checked(name, value, f.type) if len(keys) == 1
               else replaced(getattr(part, f.name), keys[1:]))
        return replace(part, **{f.name: new})
    return replaced(spec, name.split("."))


# ---------------------------------------------------------------------------
# Run configs
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Top-level config document: seed, simulation, and method sections.

    One seed serves both levels: given at either, it sets the other, and a
    simulation section with a different seed is a ConfigurationError.
    """

    seed: int = 0
    simulation: SimulationConfig | None = None
    method: MethodSpec | None = None

    def __post_init__(self):
        if self.simulation is not None and self.simulation.seed != self.seed:
            raise ConfigurationError(
                f"config: seed {self.seed} and simulation.seed {self.simulation.seed} differ")

    @classmethod
    def from_dict(cls, data: Any) -> "RunConfig":
        data = checked("config", data, dict)
        version = checked("schema_version", data.get("schema_version", SCHEMA_VERSION), int)
        if version != SCHEMA_VERSION:
            raise ConfigurationError(f"unsupported schema_version {version!r}")
        unknown = set(data) - {"schema_version", *_fields_by_key(cls)}
        if unknown:
            raise ConfigurationError(f"config: unknown keys {sorted(unknown)}")
        sim = checked("simulation", data.get("simulation"), dict | None)
        # the seed given at each level, top level first; construction rejects two
        seeds = [checked(key, s, int) for key, s in (("seed", data.get("seed")),
                                                     ("simulation.seed", (sim or {}).get("seed")))
                 if s is not None] or [0]
        return cls(seed=seeds[0],
                   simulation=None if sim is None else from_dict(
                       SimulationConfig, {**sim, "seed": seeds[-1]}, "simulation"),
                   method=checked("method", data.get("method"), MethodSpec | None))

    def to_dict(self) -> dict:
        """The config document; a section that is None is left out."""
        sections = {key: value for key, value in to_dict(self).items() if value is not None}
        return {"schema_version": SCHEMA_VERSION, **sections}

    def hash(self) -> str:
        return config_hash(self.to_dict())


def config_hash(config: Mapping) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
