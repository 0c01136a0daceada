"""Command-line driver: simulate -> evaluate -> sweep -> report.

Exit codes: 0 success, 2 validation/configuration error, 3 numerical error,
4 I/O error.
"""

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from .dataio import (
    RunConfig,
    load_dataset,
    method_to_dict,
    render_report,
    save_dataset,
    write_manifest,
    write_report,
)
from .errors import ConfigurationError, NumericalError, SpeakerGraphError
from .evaluate import MethodSpec, evaluate_methods, sweep
from .fusion import SingleView
from .graph import LocalScaling
from .simulate import SimulationConfig, generate_dataset

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _default_method_spec() -> MethodSpec:
    return MethodSpec(method="2LP", scaling=LocalScaling(k=20, s=0.5),
                      fusion=SingleView("voice"))


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig(seed=0, simulation=SimulationConfig(),
                         method=_default_method_spec())
    return RunConfig.load(path)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if cfg.simulation is None:
        cfg.simulation = SimulationConfig()
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.simulation = SimulationConfig(
            **{**{f: getattr(cfg.simulation, f)
                  for f in SimulationConfig.__dataclass_fields__},
               "seed": args.seed})
    dev, val = generate_dataset(cfg.simulation, seed=cfg.simulation.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(dev, out_dir / "dev.jsonl")
    save_dataset(val, out_dir / "val.jsonl")
    counts = {}
    for split, households in (("dev", dev), ("val", val)):
        split_counts: dict[str, int] = {}
        for hh in households:
            split_counts[hh.group] = split_counts.get(hh.group, 0) + 1
        counts[split] = split_counts
    cfg.seed = cfg.simulation.seed
    manifest = write_manifest(out_dir / "manifest.json", cfg, counts)
    print(f"wrote {out_dir}/dev.jsonl ({len(dev)} households), "
          f"{out_dir}/val.jsonl ({len(val)} households)")
    print(f"config hash {manifest['config_hash']}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    households = load_dataset(args.data)
    template = cfg.method if cfg.method is not None else _default_method_spec()
    specs = []
    for name in (args.method.split(",") if args.method else [template.method]):
        name = name.strip()
        if name in ("CS", "CSEA", "2CS", "2CSEA"):
            specs.append(MethodSpec(method=name, view=template.view))
        else:
            specs.append(replace(template, method=name))
    seed = args.seed if args.seed is not None else cfg.seed
    report = evaluate_methods(households, specs, allow_skip=args.allow_skip)
    data = write_report(report, args.out, seed=seed, cfg_hash=cfg.hash(),
                        include_timing=args.timing)
    for entry in data["methods"]:
        print(f"{entry['label']}: micro-SIER "
              f"{100.0 * entry['overall']['sier']:.2f}% "
              f"({entry['overall']['errors']}/{entry['overall']['heldout']})")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    households = load_dataset(args.dev)
    with Path(args.grid).open("r", encoding="utf-8") as fh:
        try:
            grid = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{args.grid}: malformed JSON ({exc})") from exc
    if not isinstance(grid, dict):
        raise ConfigurationError("grid file must map parameter names to value lists")
    template = cfg.method if cfg.method is not None else _default_method_spec()
    result = sweep(households, grid, template)
    names = list(grid.keys())
    with Path(args.out).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["errors", "heldout", "sier"])
        for row in result.rows:
            writer.writerow([row[n] for n in names]
                            + [row["errors"], row["heldout"], repr(row["sier"])])
    best = {"params": result.best_params,
            "spec": method_to_dict(result.best_spec),
            "seed": args.seed if args.seed is not None else cfg.seed,
            "config_hash": cfg.hash()}
    best_path = Path(args.out).with_suffix(Path(args.out).suffix + ".best.json")
    with best_path.open("w", encoding="utf-8") as fh:
        json.dump(best, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(best, indent=2, sort_keys=True))
    print(f"wrote {args.out} ({len(result.rows)} rows) and {best_path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    with Path(args.infile).open("r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{args.infile}: malformed JSON ({exc})") from exc
    text = render_report(data, args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speakergraph",
        description="Household speaker-label inference over multi-view graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic household dataset")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("evaluate", help="run methods over a dataset")
    p.add_argument("--data", required=True, help="dataset JSONL")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--method", help="method name(s), comma separated")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--allow-skip", action="store_true",
                   help="record per-household failures instead of failing fast")
    p.add_argument("--timing", action="store_true",
                   help="embed wall-clock times (breaks byte-reproducibility)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="exhaustive grid search on the dev split")
    p.add_argument("--dev", required=True, help="dev dataset JSONL")
    p.add_argument("--grid", required=True, help="grid JSON: param -> value list")
    p.add_argument("--config", help="run config JSON (method template)")
    p.add_argument("--out", required=True, help="sweep table CSV path")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="render a report as csv/json/markdown")
    p.add_argument("--in", dest="infile", required=True, help="report JSON")
    p.add_argument("--format", choices=("csv", "json", "md"), default="md")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SpeakerGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
