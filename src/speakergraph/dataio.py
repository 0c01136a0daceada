"""Dataset files, run configs, and report rendering.

Datasets are JSON Lines: one utterance record per line, grouped by
household_id at load time (records need not be contiguous). Floats are
serialized through repr, which round-trips 64-bit values exactly, so
simulate -> save -> load -> evaluate is bit-stable. Run configs are strict
JSON documents: unknown keys are rejected with the offending path.
"""

import csv
import hashlib
import io
import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, StructuralError
from .evaluate import EvalReport, MethodSpec, checked, checked_fields, reject_unknown
from .fusion import EdgePoolFusion, FusionRule, PowerMeanFusion, SingleView
from .graph import CohortScaling, LocalScaling, ScalingRule, UniversalScaling
from .propagation import PropagationConfig
from .records import HouseholdDataset, UtteranceRecord
from .simulate import SimulationConfig

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# JSONL datasets
# ---------------------------------------------------------------------------

def record_to_dict(record: UtteranceRecord, group: str) -> dict:
    out: dict[str, Any] = {
        "utt_id": record.utt_id,
        "household_id": record.household_id,
        "group": group,
        "role": record.role,
    }
    if record.speaker is not None:
        out["speaker"] = record.speaker
    if record.session_id is not None:
        out["session_id"] = record.session_id
    if record.cohort is not None:
        out["cohort"] = record.cohort
    out["views"] = {name: vec.tolist() for name, vec in record.views.items()}
    return out


def save_dataset(households: Sequence[HouseholdDataset], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for hh in households:
            for record in hh.ordered():
                fh.write(json.dumps(record_to_dict(record, hh.group),
                                    separators=(",", ":")))
                fh.write("\n")


_RECORD_KEYS = {"utt_id", "household_id", "group", "role", "speaker",
                "session_id", "cohort", "views"}


def _parse_record(data: dict, line_no: int) -> tuple[UtteranceRecord, str]:
    unknown = set(data) - _RECORD_KEYS
    if unknown:
        raise StructuralError(f"line {line_no}: unknown record keys {sorted(unknown)}")
    for key in ("utt_id", "household_id", "role"):
        if key not in data:
            raise StructuralError(f"line {line_no}: missing {key!r}")
    views = data.get("views", {})
    if not isinstance(views, dict):
        raise StructuralError(f"line {line_no}: views must be an object")
    ids = {key: data.get(key) for key in ("speaker", "session_id", "cohort")}
    for key, value in ids.items():
        if value is not None and not isinstance(value, str):
            raise StructuralError(f"line {line_no}: {key} must be a string, got {value!r}")
    utt_id = str(data["utt_id"])
    arrays = {}
    for name, vec in views.items():
        try:
            arrays[name] = np.asarray(vec, dtype=float)
        except (TypeError, ValueError) as exc:
            raise StructuralError(
                f"line {line_no}: view {name!r} of {utt_id!r} is malformed ({exc})") from exc
        # json.loads accepts NaN, Infinity and overflowing literals such as 1e999
        if not np.isfinite(arrays[name]).all():
            raise StructuralError(
                f"line {line_no}: view {name!r} of {utt_id!r} has non-finite values")
    record = UtteranceRecord(utt_id=utt_id, household_id=str(data["household_id"]),
                             role=str(data["role"]), views=arrays, **ids)
    return record, str(data.get("group", "random"))


def load_dataset(path: str | Path) -> list[HouseholdDataset]:
    """Load and validate a JSONL dataset, grouping records by household."""
    path = Path(path)
    by_household: dict[str, list[UtteranceRecord]] = {}
    groups: dict[str, str] = {}
    seen_ids: set[str] = set()
    dims: dict[str, int] = {}
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StructuralError(f"line {line_no}: malformed JSON ({exc})") from exc
            record, group = _parse_record(data, line_no)
            if record.utt_id in seen_ids:
                raise StructuralError(f"line {line_no}: duplicate utt_id {record.utt_id!r}")
            seen_ids.add(record.utt_id)
            for name, vec in record.views.items():
                if vec.ndim != 1:
                    raise StructuralError(
                        f"line {line_no}: view {name!r} of {record.utt_id!r} "
                        f"is not a flat vector")
                dims.setdefault(name, vec.shape[0])
                if vec.shape[0] != dims[name]:
                    raise StructuralError(
                        f"view {name!r} of {record.utt_id!r} has dimension "
                        f"{vec.shape[0]}, expected {dims[name]}")
            by_household.setdefault(record.household_id, []).append(record)
            first = groups.setdefault(record.household_id, group)
            if group != first:
                raise StructuralError(
                    f"line {line_no}: household {record.household_id!r} is in group "
                    f"{first!r} and {group!r}")
    if not by_household:
        raise StructuralError(f"{path}: no households found")
    households = []
    for hid in sorted(by_household):
        hh = HouseholdDataset(household_id=hid, group=groups[hid],
                              utterances=by_household[hid])
        hh.validate()
        households.append(hh)
    return households


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def read_json(path: str | Path) -> Any:
    """Parse one JSON document; malformed JSON is a ConfigurationError."""
    with Path(path).open("r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: malformed JSON ({exc})") from exc


def write_json(path: str | Path, data: Any) -> None:
    """Write data as indented JSON with sorted keys and a trailing newline."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Run configs
# ---------------------------------------------------------------------------

def _required(data: Mapping, key: str, kind, path: str):
    if key not in data:
        raise ConfigurationError(f"{path}.{key}: missing")
    return checked(f"{path}.{key}", data[key], kind)


def scaling_from_dict(data: Mapping, path: str = "scaling") -> ScalingRule:
    kind = data.get("kind")
    if kind == "universal":
        reject_unknown(data, {"kind", "sigma"}, path)
        return UniversalScaling(sigma=float(_required(data, "sigma", float, path)))
    if kind == "cohort":
        reject_unknown(data, {"kind", "sigma_by_cohort"}, path)
        sigmas = _required(data, "sigma_by_cohort", dict, path)
        return CohortScaling(sigma_by_cohort={
            str(k): float(checked(f"{path}.sigma_by_cohort.{k}", v, float))
            for k, v in sigmas.items()})
    if kind == "local":
        reject_unknown(data, {"kind", "k", "s"}, path)
        return LocalScaling(k=_required(data, "k", int, path),
                            s=float(_required(data, "s", float, path)))
    raise ConfigurationError(f"{path}: unknown scaling kind {kind!r}")


def scaling_to_dict(rule: ScalingRule) -> dict:
    if isinstance(rule, UniversalScaling):
        return {"kind": "universal", "sigma": rule.sigma}
    if isinstance(rule, CohortScaling):
        return {"kind": "cohort", "sigma_by_cohort": dict(rule.sigma_by_cohort)}
    return {"kind": "local", "k": rule.k, "s": rule.s}


def fusion_from_dict(data: Mapping, path: str = "fusion") -> FusionRule:
    kind = data.get("kind")
    if kind == "single_view":
        reject_unknown(data, {"kind", "view"}, path)
        return SingleView(view_name=_required(data, "view", str, path))
    if kind == "edge_pool":
        reject_unknown(data, {"kind", "views"}, path)
        return EdgePoolFusion(view_names=tuple(
            str(v) for v in _required(data, "views", tuple, path)))
    if kind == "power_mean":
        reject_unknown(data, {"kind", "views", "p", "shift"}, path)
        shift = checked(f"{path}.shift", data.get("shift"), float | None)
        return PowerMeanFusion(
            view_names=tuple(str(v) for v in _required(data, "views", tuple, path)),
            p=float(_required(data, "p", float, path)),
            shift=None if shift is None else float(shift))
    raise ConfigurationError(f"{path}: unknown fusion kind {kind!r}")


def fusion_to_dict(rule: FusionRule) -> dict:
    if isinstance(rule, SingleView):
        return {"kind": "single_view", "view": rule.view_name}
    if isinstance(rule, EdgePoolFusion):
        return {"kind": "edge_pool", "views": list(rule.view_names)}
    return {"kind": "power_mean", "views": list(rule.view_names),
            "p": rule.p, "shift": rule.shift}


def propagation_from_dict(data: Mapping, path: str = "propagation") -> PropagationConfig:
    return PropagationConfig(**checked_fields(data, PropagationConfig, path))


_METHOD_KEYS = {"method", "view", "scaling", "fusion", "propagation",
                "session_sigma", "unit_normalize"}


def method_from_dict(data: Mapping, path: str = "method") -> MethodSpec:
    reject_unknown(data, _METHOD_KEYS, path)
    scaling = data.get("scaling")
    fusion = data.get("fusion")
    propagation = data.get("propagation")
    for key, section in (("scaling", scaling), ("fusion", fusion),
                         ("propagation", propagation)):
        checked(f"{path}.{key}", section, dict | None)
    return MethodSpec(
        method=checked(f"{path}.method", data.get("method", "2LP"), str),
        view=checked(f"{path}.view", data.get("view", "voice"), str),
        scaling=None if scaling is None else scaling_from_dict(scaling, f"{path}.scaling"),
        fusion=None if fusion is None else fusion_from_dict(fusion, f"{path}.fusion"),
        propagation=(PropagationConfig() if propagation is None
                     else propagation_from_dict(propagation, f"{path}.propagation")),
        session_sigma=float(checked(f"{path}.session_sigma",
                                    data.get("session_sigma", 0.25), float)),
        unit_normalize=checked(f"{path}.unit_normalize",
                               data.get("unit_normalize", False), bool))


def method_to_dict(spec: MethodSpec) -> dict:
    return {
        "method": spec.method,
        "view": spec.view,
        "scaling": None if spec.scaling is None else scaling_to_dict(spec.scaling),
        "fusion": None if spec.fusion is None else fusion_to_dict(spec.fusion),
        "propagation": asdict(spec.propagation),
        "session_sigma": spec.session_sigma,
        "unit_normalize": spec.unit_normalize,
    }


def simulation_from_dict(data: Mapping, path: str = "simulation") -> SimulationConfig:
    kwargs = checked_fields(data, SimulationConfig, path)
    if "dev_val_ratio" in kwargs:
        kwargs["dev_val_ratio"] = tuple(kwargs["dev_val_ratio"])
    if "groups" in kwargs:
        kwargs["groups"] = tuple(kwargs["groups"])
    return SimulationConfig(**kwargs)


_RUN_CONFIG_KEYS = {"schema_version", "seed", "simulation", "method"}


class RunConfig:
    """Top-level config document: seed, simulation, and method sections.

    One seed serves both levels: given at either, it sets the other.
    """

    def __init__(self, seed: int = 0,
                 simulation: SimulationConfig | None = None,
                 method: MethodSpec | None = None):
        self.seed = seed
        self.simulation = simulation
        self.method = method

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunConfig":
        checked("config", data, dict)
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigurationError(f"unsupported schema_version {version!r}")
        reject_unknown(data, _RUN_CONFIG_KEYS, "config")
        sim = data.get("simulation")
        method = checked("method", data.get("method"), dict | None)
        if not isinstance(sim or {}, Mapping):
            raise ConfigurationError("config: simulation must be an object")
        seeds = {checked(key, s, int) for key, s in (("seed", data.get("seed")),
                                                     ("simulation.seed", (sim or {}).get("seed")))
                 if s is not None}
        if len(seeds) > 1:
            raise ConfigurationError(
                f"config: seed {data['seed']} and simulation.seed {sim['seed']} differ")
        seed = seeds.pop() if seeds else 0
        if sim is not None:
            sim = simulation_from_dict({**sim, "seed": seed})
        return cls(seed=seed, simulation=sim,
                   method=None if method is None else method_from_dict(method))

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(read_json(path))

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"schema_version": SCHEMA_VERSION, "seed": self.seed}
        if self.simulation is not None:
            sim = asdict(self.simulation)
            sim["dev_val_ratio"] = list(sim["dev_val_ratio"])
            sim["groups"] = list(sim["groups"])
            out["simulation"] = sim
        if self.method is not None:
            out["method"] = method_to_dict(self.method)
        return out

    def hash(self) -> str:
        return config_hash(self.to_dict())


def config_hash(config: Mapping) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def report_to_dict(report: EvalReport, seed: int, cfg_hash: str,
                   include_timing: bool = False) -> dict:
    """Serializable report. Timing is excluded by default so that reruns of
    the same seed produce byte-identical files."""
    methods = []
    for m in report.methods:
        entry: dict[str, Any] = {
            "method": m.spec.method,
            "label": m.spec.label,
            "family": m.spec.family,
            "spec": method_to_dict(m.spec),
            "households": [
                {
                    "household_id": h.household_id,
                    "group": h.group,
                    "errors": h.errors,
                    "heldout": h.heldout,
                    "sier": h.sier,
                    "ties": h.ties,
                    "abstains": h.abstains,
                    "converged": h.converged,
                    **({"seconds": h.seconds} if include_timing else {}),
                }
                for h in m.households
            ],
            "groups": {g: {"errors": m.counts(g)[0], "heldout": m.counts(g)[1],
                           "sier": m.micro_sier(g)} for g in m.groups},
            "overall": {"errors": m.counts()[0], "heldout": m.counts()[1],
                        "sier": m.micro_sier()},
        }
        if m.skipped:
            entry["skipped"] = [{"household_id": hid, "error": msg}
                                for hid, msg in m.skipped]
        methods.append(entry)
    out = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "config_hash": cfg_hash,
        "methods": methods,
    }
    improvements = report.improvements()
    if improvements:
        out["improvement_vs_best_baseline_pct"] = improvements
        out["footnote"] = ("improvement rows compare each family's best "
                           "micro-SIER against the best baseline, per group")
    return out


def write_report(report: EvalReport, path: str | Path, seed: int,
                 cfg_hash: str, include_timing: bool = False) -> dict:
    data = report_to_dict(report, seed, cfg_hash, include_timing)
    write_json(path, data)
    return data


def render_report(data: Mapping, fmt: str) -> str:
    """Render a serialized report as json, csv, or a markdown table."""
    if fmt == "json":
        return json.dumps(data, indent=2, sort_keys=True)
    groups = sorted({g for m in data["methods"] for g in m["groups"]})
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["label", "family"] + groups + ["overall"])
        for m in data["methods"]:
            row = [m["label"], m["family"]]
            row += [_fmt_pct(m["groups"].get(g, {}).get("sier")) for g in groups]
            row.append(_fmt_pct(m["overall"]["sier"]))
            writer.writerow(row)
        return buf.getvalue()
    if fmt == "md":
        lines = ["| method | " + " | ".join(groups) + " | overall |",
                 "|---" * (len(groups) + 2) + "|"]
        for m in data["methods"]:
            cells = [_fmt_pct(m["groups"].get(g, {}).get("sier")) for g in groups]
            cells.append(_fmt_pct(m["overall"]["sier"]))
            lines.append("| " + m["label"] + " | " + " | ".join(cells) + " |")
        improvements = data.get("improvement_vs_best_baseline_pct")
        if improvements:
            lines.append("")
            lines.append("| improvement (%) | " + " | ".join(groups) + " |  |")
            lines.append("|---" * (len(groups) + 2) + "|")
            for family, row in improvements.items():
                cells = ["n/a" if row.get(g) is None else f"{row[g]:.1f}"
                         for g in groups]
                lines.append("| " + family + " | " + " | ".join(cells) + " |  |")
            lines.append("")
            lines.append(f"_{data['footnote']}_")
        return "\n".join(lines) + "\n"
    raise ConfigurationError(f"unknown report format {fmt!r}")


def _fmt_pct(value) -> str:
    return "" if value is None else f"{100.0 * value:.2f}"


def write_manifest(path: str | Path, cfg: RunConfig,
                   counts: Mapping[str, Mapping[str, int]]) -> dict:
    data = {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "config_hash": cfg.hash(),
        "config": cfg.to_dict(),
        "households": {split: dict(groups) for split, groups in counts.items()},
        "files": {"dev": "dev.jsonl", "val": "val.jsonl"},
    }
    write_json(path, data)
    return data
