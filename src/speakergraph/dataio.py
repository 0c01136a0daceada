"""Dataset files, JSON documents, and report rendering.

Datasets are JSON Lines: one utterance record per line, grouped by
household_id at load time (records need not be contiguous). Floats are
serialized through repr, which round-trips 64-bit values exactly, so
simulate -> save -> load -> evaluate is bit-stable. Run configs are read
and written by speakergraph.config.
"""

import csv
import dataclasses
import io
import json
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .config import SCHEMA_VERSION, RunConfig, to_dict
from .errors import ConfigurationError, StructuralError
from .evaluate import EvalReport, HouseholdResult, MethodReport
from .records import HouseholdDataset, UtteranceRecord


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
    for key in _OPTIONAL_IDS:
        if getattr(record, key) is not None:
            out[key] = getattr(record, key)
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
_OPTIONAL_IDS = ("speaker", "session_id", "cohort")  # these may also be null


def _parse_record(data: Any, line_no: int) -> tuple[UtteranceRecord, str]:
    if not isinstance(data, dict):
        raise StructuralError(f"line {line_no}: expected a JSON object, got {data!r}")
    unknown = set(data) - _RECORD_KEYS
    if unknown:
        raise StructuralError(f"line {line_no}: unknown record keys {sorted(unknown)}")
    for key in ("utt_id", "household_id", "role"):
        if key not in data:
            raise StructuralError(f"line {line_no}: missing {key!r}")
    views = data.get("views", {})
    if not isinstance(views, dict):
        raise StructuralError(f"line {line_no}: views must be an object")
    for key, value in data.items():
        if (not isinstance(value, str) and key != "views"
                and not (value is None and key in _OPTIONAL_IDS)):
            raise StructuralError(f"line {line_no}: {key} must be a string, got {value!r}")
    utt_id = data["utt_id"]
    arrays = {}
    for name, vec in views.items():
        try:
            arrays[name] = np.asarray(vec, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise StructuralError(
                f"line {line_no}: view {name!r} of {utt_id!r} is malformed ({exc})") from exc
        # np.asarray also converts numeric strings and booleans; type(True) is bool
        if arrays[name].ndim == 1 and not set(map(type, vec)) <= {int, float}:
            raise StructuralError(f"line {line_no}: view {name!r} of {utt_id!r} has an "
                                  f"entry that is not a JSON number")
        # json.loads accepts NaN, Infinity and overflowing literals such as 1e999
        if not np.isfinite(arrays[name]).all():
            raise StructuralError(
                f"line {line_no}: view {name!r} of {utt_id!r} has non-finite values")
    record = UtteranceRecord(utt_id=utt_id, household_id=data["household_id"],
                             role=data["role"], views=arrays,
                             **{key: data.get(key) for key in _OPTIONAL_IDS})
    return record, data.get("group", "random")


def load_dataset(path: str | Path) -> list[HouseholdDataset]:
    """Load and validate a JSONL dataset, grouping records by household."""
    path = Path(path)
    by_household: dict[str, list[UtteranceRecord]] = {}
    groups: dict[str, str] = {}
    seen_ids: set[str] = set()
    dims: dict[str, int] = {}
    with path.open("rb") as fh:  # JSON Lines: UTF-8, one record per "\n"-ended line
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line.decode("utf-8"))
            except ValueError as exc:  # not UTF-8, a JSONDecodeError, or an int over 4300 digits
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
        except ValueError as exc:  # JSONDecodeError, or an int literal over 4300 digits
            raise ConfigurationError(f"{path}: malformed JSON ({exc})") from exc


def write_json(path: str | Path, data: Any) -> None:
    """Write data as indented JSON with sorted keys and a trailing newline."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
            "spec": to_dict(m.spec),
            "households": [_household_row(h, include_timing) for h in m.households],
            "groups": {g: _counts_cell(m, g) for g in m.groups},
            "overall": _counts_cell(m),
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


def _household_row(h: HouseholdResult, include_timing: bool) -> dict:
    row = dataclasses.asdict(h)
    row["sier"] = h.sier
    if not include_timing:
        del row["seconds"]
    return row


def _counts_cell(m: MethodReport, group: str | None = None) -> dict:
    errors, heldout = m.counts(group)
    return {"errors": errors, "heldout": heldout, "sier": m.micro_sier(group)}


def write_report(report: EvalReport, path: str | Path, seed: int,
                 cfg_hash: str, include_timing: bool = False) -> dict:
    data = report_to_dict(report, seed, cfg_hash, include_timing)
    write_json(path, data)
    return data


def render_report(data: Mapping, fmt: str) -> str:
    """Render a serialized report as json (as write_json writes it), csv, or a
    markdown table; ConfigurationError when data is not a report."""
    if fmt not in ("csv", "json", "md"):
        raise ConfigurationError(f"unknown report format {fmt!r}")
    try:
        groups = sorted({g for m in data["methods"] for g in m["groups"]})
        rows = [(m["label"], m["family"],
                 [_fmt_pct(m["groups"].get(g, {}).get("sier")) for g in groups]
                 + [_fmt_pct(m["overall"]["sier"])])
                for m in data["methods"]]
        improvements = data.get("improvement_vs_best_baseline_pct")
        gains = [(family, ["n/a" if row.get(g) is None else f"{row[g]:.1f}" for g in groups])
                 for family, row in (improvements or {}).items()]
        footnote = data["footnote"] if improvements else None
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ConfigurationError(f"not a report ({type(exc).__name__}: {exc})") from exc
    if fmt == "json":
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["label", "family"] + groups + ["overall"])
        writer.writerows([label, family, *cells] for label, family, cells in rows)
        return buf.getvalue()
    separator = "|---" * (len(groups) + 2) + "|"
    lines = ["| method | " + " | ".join(groups) + " | overall |", separator]
    lines += ["| " + " | ".join([label, *cells]) + " |" for label, _, cells in rows]
    if improvements:
        lines += ["", "| improvement (%) | " + " | ".join(groups) + " |  |", separator]
        lines += ["| " + family + " | " + " | ".join(cells) + " |  |" for family, cells in gains]
        lines += ["", f"_{footnote}_"]
    return "\n".join(lines) + "\n"


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
