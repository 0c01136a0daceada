"""JSONL round-trips, strict configs, report rendering, CLI contract."""

import copy
import json
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speakergraph import (
    ConfigurationError,
    HouseholdDataset,
    MethodSpec,
    SimulationConfig,
    SpeakerGraphError,
    StructuralError,
    UtteranceRecord,
    evaluate_methods,
    generate_dataset,
)
from speakergraph.cli import _load_config, main
from speakergraph.config import RunConfig, config_hash, from_dict, to_dict
from speakergraph.dataio import (
    load_dataset,
    render_report,
    report_to_dict,
    save_dataset,
    write_report,
)
from speakergraph.evaluate import HouseholdResult, _grid_points
from speakergraph.fusion import SingleView
from speakergraph.graph import LocalScaling

DATA_DIR = Path(__file__).parent / "data"

GOLDEN_SIM = dict(seed=123, households_per_group=2, speakers_per_household=3,
                  utterances_per_speaker=20, voice_dim=5, face_dim=5,
                  labeled_per_speaker=2, unlabeled_per_household=8,
                  heldout_per_speaker=3, groups=("random", "hard"))


LOCAL = {"kind": "local", "k": 4, "s": 0.8}
VOICE = {"kind": "single_view", "view": "voice"}
# Run configs whose config_hash must not change, one per scaling and fusion
# kind (local scaling and single-view fusion are the TestCli config's).
CONFIGS = {
    "test-cli": {"schema_version": 1, "seed": 123,
                 "simulation": {**GOLDEN_SIM, "groups": list(GOLDEN_SIM["groups"])},
                 "method": {"method": "2LP", "scaling": LOCAL, "fusion": VOICE}},
    "universal": {"seed": 5, "method": {"method": "LP", "fusion": VOICE,
                                        "scaling": {"kind": "universal", "sigma": 2.5}}},
    "cohort": {"method": {"method": "2LP", "fusion": VOICE,
                          "scaling": {"kind": "cohort",
                                      "sigma_by_cohort": {"random": 1.5, "hard": 0.75}}}},
    "edge-pool": {"method": {"method": "2LPEA", "scaling": {"kind": "local", "k": 10, "s": 0.5},
                             "fusion": {"kind": "edge_pool", "views": ["voice", "face", "session"]},
                             "session_sigma": 0.3, "unit_normalize": True}},
    "power-mean": {"method": {"method": "LP", "scaling": LOCAL,
                              "fusion": {"kind": "power_mean", "views": ["voice", "face"],
                                         "p": -1.0}}},
    "power-mean-shift": {"method": {"method": "2LP", "scaling": LOCAL,
                                    "fusion": {"kind": "power_mean", "views": ["voice", "face"],
                                               "p": 2.0, "shift": 0.5}}},
    "propagation": {"method": {"method": "2LP", "scaling": LOCAL, "fusion": VOICE,
                               "propagation": {"alpha": 0.5, "tol": 1e-8, "max_iter": 50,
                                               "solver": "iterative",
                                               "step1_includes_heldout": True}}},
    "baseline": {"seed": 7, "method": {"method": "CSEA", "view": "face"}},
}
PINNED_HASHES = {
    "test-cli": "dbc09ed0fb19550e5c6b2ca312b0b8bd8e955ac5765826b7096ada41f407f7a8",
    "universal": "c6a61d7325e3a37af58ef11854a9b9e975a9b6fa25d17d56eb7bdd49852420bf",
    "cohort": "56c1c9ad2ad21bb3bb85756eae03aff0de3a53a95d32d2e5a4b44c26807ec7fc",
    "edge-pool": "31b5997ec1a9d72e8df5d6b58ac71af8c22dbcb946941f5c501fece3c9717bae",
    "power-mean": "6ef734e882903b7715bb4d20545e521ea02427ccb0b309c024d1d6cb193912f5",
    "power-mean-shift": "51b8f39ff25d903e19ea97c1b82879733a74a2d2aec67c8469ed87c3b01715d7",
    "propagation": "43628eeb3f12f2a6eef41da7c8694cef82db7a1cef6747d7c849737d7d828111",
    "baseline": "39af35343a01fa0ec163a06e6c70399a65f4fd65cf91f9888fb107ca21c9746a",
    "cli-default": "6694e88adedcfd68a0c64b57b771b497f394841a3cf74538faadd07c23d7a2e1",
}


def golden_households():
    cfg = SimulationConfig(**GOLDEN_SIM)
    dev, val = generate_dataset(cfg)
    return dev, val


def golden_report_dict():
    _, val = golden_households()
    specs = [MethodSpec(method="CS"),
             MethodSpec(method="2LP", scaling=LocalScaling(k=4, s=0.8),
                        fusion=SingleView("voice"))]
    report = evaluate_methods(val, specs)
    cfg = RunConfig(seed=123, simulation=SimulationConfig(**GOLDEN_SIM))
    return report_to_dict(report, seed=123, cfg_hash=cfg.hash())


def write_non_finite_heldout(households, path, literal):
    """Save households with the JSON literal as the first voice value of the
    first held-out record; return that record's line number and utt_id."""
    save_dataset(households, path)
    lines = path.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if json.loads(line)["role"] == "heldout")
    record = json.loads(lines[index])
    record["views"]["voice"][0] = "VALUE"
    lines[index] = json.dumps(record).replace('"VALUE"', literal)
    path.write_text("\n".join(lines) + "\n")
    return index + 1, record["utt_id"]


def write_edited_record(households, path, role, edit):
    """Save households after applying edit to the JSON object of the first
    record with the given role; return that record's line number and utt_id."""
    save_dataset(households, path)
    lines = path.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if json.loads(line)["role"] == role)
    record = json.loads(lines[index])
    edit(record)
    lines[index] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return index + 1, record["utt_id"]


# (role of the edited record, edit, fragment the error names besides the line)
MALFORMED_RECORDS = [
    pytest.param("heldout", lambda r: r["views"].update(voice=["a", 1.0]),
                 "view 'voice'", id="non-numeric-view"),
    pytest.param("heldout", lambda r: r["views"].update(voice=[[1.0], [2.0, 3.0]]),
                 "view 'voice'", id="ragged-view"),
    pytest.param("enrolled", lambda r: r.update(speaker=1),
                 "speaker must be a string", id="non-string-speaker"),
    pytest.param("heldout", lambda r: r["views"]["voice"].__setitem__(0, 10 ** 400),
                 "view 'voice'", id="integer-beyond-float"),
    # JSON types are taken literally: np.asarray would convert each of these
    pytest.param("heldout", lambda r: r["views"].update(voice=["0.5", "2"]),
                 "view 'voice'", id="numeric-string-view"),
    pytest.param("heldout", lambda r: r["views"].update(voice=[True, False]),
                 "view 'voice'", id="boolean-view"),
    pytest.param("enrolled", lambda r: r["views"]["voice"].__setitem__(0, True),
                 "view 'voice'", id="boolean-entry"),
    pytest.param("heldout", lambda r: r.update(household_id=None),
                 "household_id must be a string", id="null-household"),
    pytest.param("heldout", lambda r: r.update(household_id=1),
                 "household_id must be a string", id="integer-household"),
    pytest.param("heldout", lambda r: r.update(group=None),
                 "group must be a string", id="null-group"),
    pytest.param("heldout", lambda r: r.update(utt_id=7),
                 "utt_id must be a string", id="integer-utt-id"),
    pytest.param("unlabeled", lambda r: r.update(role=["heldout"]),
                 "role must be a string", id="list-role"),
]

# JSONL lines that are valid JSON but not a record object
NON_OBJECT_LINES = ["5", "null", "true", '"abc"', "[1]"]


class TestJsonlRoundTrip:
    def test_save_load_value_equal(self, tmp_path):
        dev, val = golden_households()
        path = tmp_path / "ds.jsonl"
        save_dataset(dev + val, path)
        loaded = load_dataset(path)
        original = {h.household_id: h for h in dev + val}
        assert set(original) == {h.household_id for h in loaded}
        for hh in loaded:
            ref = original[hh.household_id]
            assert hh.group == ref.group
            ref_by_id = {u.utt_id: u for u in ref.utterances}
            for u in hh.utterances:
                r = ref_by_id[u.utt_id]
                assert u.role == r.role and u.speaker == r.speaker
                assert u.session_id == r.session_id
                for name, vec in u.views.items():
                    assert np.array_equal(vec, r.views[name])   # bit-exact floats

    def test_save_is_deterministic(self, tmp_path):
        dev, val = golden_households()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(dev + val, a)
        save_dataset(dev + val, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(StructuralError, match="no households"):
            load_dataset(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        dev, _ = golden_households()
        path = tmp_path / "blank.jsonl"
        save_dataset(dev[:1], path)
        lines = path.read_text().splitlines()
        path.write_text("\n" + "\n  \t\n".join(lines) + "\n\n")
        (loaded,) = load_dataset(path)
        assert [u.utt_id for u in loaded.utterances] == [u.utt_id for u in dev[0].utterances]

    def test_malformed_line_reports_number(self, tmp_path):
        dev, _ = golden_households()
        path = tmp_path / "bad.jsonl"
        save_dataset(dev[:1], path)
        lines = path.read_text().splitlines()
        lines.insert(2, "{not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StructuralError, match="line 3"):
            load_dataset(path)

    def test_dimension_mismatch_names_utterance(self, tmp_path):
        dev, _ = golden_households()
        path = tmp_path / "dims.jsonl"
        save_dataset(dev[:1], path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[4])
        record["views"]["voice"] = record["views"]["voice"][:-1]
        lines[4] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StructuralError, match=record["utt_id"]):
            load_dataset(path)

    @pytest.mark.parametrize("literal", ["NaN", "1e999"])
    def test_non_finite_embedding_names_line(self, tmp_path, literal):
        _, val = golden_households()
        path = tmp_path / "nonfinite.jsonl"
        line_no, utt_id = write_non_finite_heldout(val, path, literal)
        expected = f"line {line_no}: view 'voice' of '{utt_id}' has non-finite values"
        with pytest.raises(StructuralError, match=re.escape(expected)):
            load_dataset(path)

    @pytest.mark.parametrize("role, edit, fragment", MALFORMED_RECORDS)
    def test_malformed_record_names_line(self, tmp_path, role, edit, fragment):
        _, val = golden_households()
        path = tmp_path / "malformed.jsonl"
        line_no, _ = write_edited_record(val, path, role, edit)
        with pytest.raises(StructuralError, match=re.escape(f"line {line_no}: ")) as exc:
            load_dataset(path)
        assert fragment in str(exc.value)

    def test_non_utf8_line_names_line(self, tmp_path):
        # a byte that is not UTF-8 once ended in a UnicodeDecodeError traceback
        dev, _ = golden_households()
        path = tmp_path / "latin1.jsonl"
        save_dataset(dev[:1], path)
        with path.open("ab") as fh:
            fh.write(b'\xff{"utt_id": "caf\xe9"}\n')
        line_no = len(path.read_bytes().splitlines())
        with pytest.raises(StructuralError, match=f"line {line_no}: malformed JSON .*utf-8"):
            load_dataset(path)

    def test_overlong_integer_is_malformed(self, tmp_path):
        path = tmp_path / "long.jsonl"
        path.write_text('{"utt_id": ' + "1" * 5000 + "}\n")
        with pytest.raises(StructuralError, match="line 1: malformed JSON"):
            load_dataset(path)

    @pytest.mark.parametrize("line", NON_OBJECT_LINES)
    def test_non_object_line_names_line(self, tmp_path, line):
        dev, _ = golden_households()
        path = tmp_path / "scalar.jsonl"
        save_dataset(dev[:1], path)
        line_no = len(path.read_text().splitlines()) + 1
        with path.open("a") as fh:
            fh.write(line + "\n")
        with pytest.raises(StructuralError,
                           match=re.escape(f"line {line_no}: expected a JSON object, got ")):
            load_dataset(path)

    def test_duplicate_utt_id(self, tmp_path):
        dev, _ = golden_households()
        path = tmp_path / "dup.jsonl"
        save_dataset(dev[:1], path)
        lines = path.read_text().splitlines()
        lines.append(lines[0])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StructuralError, match="duplicate utt_id"):
            load_dataset(path)

    def test_household_in_two_groups(self, tmp_path, capsys):
        dev, _ = golden_households()
        path = tmp_path / "groups.jsonl"
        save_dataset(dev[:1], path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        first = record["group"]
        record["group"] = "random" if first == "hard" else "hard"
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", "--data", str(path), "--method", "CS",
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        for part in (dev[0].household_id, first, record["group"]):
            assert repr(part) in err

    def test_speaker_without_enrollment(self, tmp_path):
        dev, _ = golden_households()
        path = tmp_path / "noenroll.jsonl"
        hh = dev[0]
        enrolled_speaker = hh.by_role("enrolled")[0].speaker
        hh.utterances = [u for u in hh.utterances
                         if not (u.role == "enrolled" and u.speaker == enrolled_speaker)]
        save_dataset([hh], path)
        with pytest.raises(StructuralError, match="zero enrolled"):
            load_dataset(path)


def utterance(utt_id, role="enrolled", speaker="a", household_id="h", voice=(1.0, 0.0)):
    return UtteranceRecord(utt_id=utt_id, household_id=household_id, role=role,
                           speaker=speaker, views={"voice": voice})


class TestRecordChecks:
    """The checks of the record constructors and HouseholdDataset.validate,
    which the loader's own line checks reach first."""

    @pytest.mark.parametrize("utterances, message", [
        ([utterance("u0"), utterance("u0")], "duplicate utt_id 'u0'"),
        ([utterance("u0"), utterance("u1", household_id="g")], "u1: household 'g' != 'h'"),
        ([utterance("u0", role="heldout")], "h: no enrolled utterances"),
        ([utterance("u0", voice=[[1.0, 0.0]])], "u0: view 'voice' is not a vector"),
        ([utterance("u0"), utterance("u1", voice=(1.0, 0.0, 0.0))],
         "u1: view 'voice' has dimension 3, expected 2"),
    ], ids=["duplicate-utt-id", "foreign-household", "no-enrolled", "non-vector-view",
            "dimension-mismatch"])
    def test_validate_rejects(self, utterances, message):
        with pytest.raises(StructuralError, match=re.escape(message)):
            HouseholdDataset("h", "random", utterances).validate()

    @pytest.mark.parametrize("role, speaker, message", [
        ("guest", "a", "u0: unknown role 'guest'"),
        ("enrolled", None, "u0: enrolled utterance without speaker"),
    ])
    def test_record_rejects(self, role, speaker, message):
        with pytest.raises(StructuralError, match=re.escape(message)):
            utterance("u0", role=role, speaker=speaker)


class TestRunConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            RunConfig.from_dict({"schema_version": 1, "seed": 0, "bogus": True})
        with pytest.raises(ConfigurationError, match="simulation"):
            RunConfig.from_dict({"simulation": {"seeed": 3}})
        with pytest.raises(ConfigurationError, match="method.scaling"):
            RunConfig.from_dict({"method": {"method": "2LP",
                                            "scaling": {"kind": "local", "k": 2,
                                                        "s": 1.0, "zz": 0},
                                            "fusion": {"kind": "single_view",
                                                       "view": "voice"}}})

    def test_method_round_trip(self):
        spec = MethodSpec(method="2LP", scaling=LocalScaling(k=7, s=0.4),
                          fusion=SingleView("voice"),
                          session_sigma=0.3)
        again = from_dict(MethodSpec, to_dict(spec), "method")
        assert again == spec

    def test_config_hash_stable_under_key_order(self):
        a = config_hash({"x": 1, "y": [1.5, 2.5]})
        b = config_hash({"y": [1.5, 2.5], "x": 1})
        assert a == b

    def test_one_seed_for_both_levels(self):
        top = RunConfig.from_dict({"seed": 42, "simulation": {"households_per_group": 2}})
        assert top.seed == top.simulation.seed == 42
        inner = RunConfig.from_dict({"simulation": {"seed": 42}})
        assert inner.seed == inner.simulation.seed == 42
        with pytest.raises(ConfigurationError, match="differ"):
            RunConfig.from_dict({"seed": 1, "simulation": {"seed": 2}})

    def test_two_seeds_rejected_at_construction(self):
        # such a config once wrote a document that from_dict rejects
        with pytest.raises(ConfigurationError,
                           match=re.escape("config: seed 1 and simulation.seed 2 differ")):
            RunConfig(seed=1, simulation=SimulationConfig(seed=2))

    def test_seed_override_reseeds_both_levels(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(CONFIGS["test-cli"]))
        cfg = _load_config(str(path), seed=7)
        assert cfg.seed == cfg.simulation.seed == 7
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("data, key", [([1], "config"), ({"method": 5}, "method"),
                                           ({"method": {"scaling": "x"}}, "method.scaling"),
                                           ({"seed": 1, "simulation": [1]}, "simulation"),
                                           ({"simulation": []}, "simulation"),
                                           ({"simulation": 0}, "simulation"),
                                           ({"simulation": ""}, "simulation"),
                                           ({"simulation": False}, "simulation")])
    def test_config_and_sections_must_be_objects(self, data, key):
        with pytest.raises(ConfigurationError, match=re.escape(f"{key}: expected an object")):
            RunConfig.from_dict(data)

    @pytest.mark.parametrize("data, key", [
        ({"simulation": {"dev_val_ratio": ["a", 1]}}, "simulation.dev_val_ratio[0]"),
        ({"simulation": {"dev_val_ratio": [1, 2, 3]}}, "simulation.dev_val_ratio"),
        ({"simulation": {"face_outlier_blend": [0.3]}}, "simulation.face_outlier_blend"),
        ({"simulation": {"groups": [1, 2]}}, "simulation.groups[0]"),
        ({"method": {"fusion": {"kind": "edge_pool", "views": ["voice", 2]}}},
         "method.fusion.views[1]"),
        ({"method": {"fusion": {"kind": "power_mean", "views": [None], "p": 1}}},
         "method.fusion.views[0]"),
    ], ids=["ratio-element", "ratio-length", "blend-length", "groups-element",
            "edge-pool-views", "power-mean-views"])
    def test_tuple_elements_checked(self, data, key):
        with pytest.raises(ConfigurationError, match=re.escape(f"{key}: expected")):
            RunConfig.from_dict(data)

    def test_schema_version_checked(self):
        with pytest.raises(ConfigurationError):
            RunConfig.from_dict({"schema_version": 99})

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_schema_version_must_be_an_integer(self, version):
        # true and 1.0 once passed as version 1
        with pytest.raises(ConfigurationError, match="schema_version: expected an integer"):
            RunConfig.from_dict({"schema_version": version})

    @pytest.mark.parametrize("fusion, key", [
        ({"kind": "power_mean", "views": ["voice"], "p": float("nan")}, "method.fusion.p"),
        ({"kind": "power_mean", "views": ["voice"], "p": -1.0, "shift": float("inf")},
         "method.fusion.shift"),
        ({"kind": "power_mean", "views": ["voice"], "p": -10 ** 400}, "method.fusion.p"),
    ], ids=["p-nan", "shift-inf", "p-beyond-float"])
    def test_numbers_must_be_finite(self, fusion, key):
        method = {"scaling": {"kind": "local", "k": 4, "s": 0.8}, "fusion": fusion}
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"{key}: expected a finite number")):
            RunConfig.from_dict({"method": method})

    @pytest.mark.parametrize("group", ["bogus", "cohort:9", "cohort:x"])
    def test_unserved_simulation_group_rejected(self, group):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"unknown household group {group!r}")):
            RunConfig.from_dict({"simulation": {"groups": ["random", group]}})

    def test_counts_beyond_float_range(self):
        with pytest.raises(ConfigurationError, match="utterances_per_speaker must be >= "):
            RunConfig.from_dict({"simulation": {"unlabeled_per_household": 10 ** 400}})

    @pytest.mark.parametrize("name", sorted(PINNED_HASHES))
    def test_configs_keep_their_hashes(self, name):
        cfg = _load_config(None) if name == "cli-default" else RunConfig.from_dict(CONFIGS[name])
        assert cfg.hash() == PINNED_HASHES[name]
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("path, value", [
        ("simulation.within_speaker_sigma", 2), ("method.session_sigma", 1),
        ("method.scaling.s", 1), ("method.fusion.p", 2), ("method.fusion.shift", 1),
        ("method.propagation.tol", 1)])
    def test_int_and_float_hash_alike(self, path, value):
        def config(number):
            doc = {**copy.deepcopy(CONFIGS["power-mean-shift"]), "simulation": {}}
            doc["method"]["propagation"] = {}
            *sections, key = path.split(".")
            node = doc
            for section in sections:
                node = node[section]
            node[key] = number
            return RunConfig.from_dict(doc)
        assert config(value) == config(float(value))
        assert config(value).hash() == config(float(value)).hash()


class TestReportRendering:
    def test_md_has_row_per_method_column_per_group(self):
        data = golden_report_dict()
        text = render_report(data, "md")
        lines = [l for l in text.splitlines() if l.startswith("|")]
        header = lines[0]
        assert "random" in header and "hard" in header and "overall" in header
        labels = [m["label"] for m in data["methods"]]
        body = lines[2:2 + len(labels)]
        assert len(body) == len(labels)
        for label, row in zip(labels, body):
            assert label in row

    def test_csv_shape(self):
        data = golden_report_dict()
        text = render_report(data, "csv")
        rows = [r for r in text.strip().splitlines()]
        assert len(rows) == 1 + len(data["methods"])

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_rendering_matches_golden(self, fmt):
        data = json.loads((DATA_DIR / "golden_report.json").read_text())
        golden = (DATA_DIR / f"golden_report.{fmt}").read_bytes()
        assert render_report(data, fmt).encode("utf-8") == golden

    def test_unknown_format(self):
        with pytest.raises(ConfigurationError):
            render_report(golden_report_dict(), "xml")

    def test_report_embeds_seed_and_hash(self):
        data = golden_report_dict()
        assert data["seed"] == 123
        assert len(data["config_hash"]) == 64

    def test_household_rows_are_the_result_fields_plus_sier(self):
        _, val = golden_households()
        report = evaluate_methods(val[:1], [MethodSpec(method="CS")])
        keys = {f.name for f in fields(HouseholdResult)} | {"sier"}
        timed = report_to_dict(report, seed=1, cfg_hash="x", include_timing=True)
        assert set(timed["methods"][0]["households"][0]) == keys
        plain = report_to_dict(report, seed=1, cfg_hash="x")
        assert set(plain["methods"][0]["households"][0]) == keys - {"seconds"}

    def test_report_bytes_deterministic(self, tmp_path):
        _, val = golden_households()
        report = evaluate_methods(val, [MethodSpec(method="CS")])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(report, a, seed=1, cfg_hash="x")
        write_report(report, b, seed=1, cfg_hash="x")
        assert a.read_bytes() == b.read_bytes()


class TestReadme:
    def test_library_example_runs(self, capsys):
        # the public API the README shows is the one the package exports
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        library = readme.split("\n## Library\n", 1)[1]
        example = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
        exec(compile(example, "README.md", "exec"), {})
        assert re.fullmatch(r"micro-SIER \d+\.\d\d%\n", capsys.readouterr().out)


class TestGoldenFiles:
    def test_dataset_regenerates_byte_identical(self, tmp_path):
        dev, val = golden_households()
        fresh = tmp_path / "val.jsonl"
        save_dataset(val, fresh)
        golden = DATA_DIR / "golden_val.jsonl"
        assert fresh.read_bytes() == golden.read_bytes()

    def test_report_regenerates_byte_identical(self, tmp_path):
        data = golden_report_dict()
        fresh = tmp_path / "report.json"
        fresh.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
        golden = DATA_DIR / "golden_report.json"
        assert fresh.read_bytes() == golden.read_bytes()

    def test_cs_sier_matches_golden(self):
        golden = json.loads((DATA_DIR / "golden_report.json").read_text())
        data = golden_report_dict()
        cs_new = [m for m in data["methods"] if m["method"] == "CS"][0]
        cs_old = [m for m in golden["methods"] if m["method"] == "CS"][0]
        assert cs_new["overall"] == cs_old["overall"]


class TestCli:
    def run_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(CONFIGS["test-cli"]))
        return path

    def test_simulate_twice_same_manifest_hash(self, tmp_path):
        cfg = self.run_config_file(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["config_hash"] == m2["config_hash"]
        assert (out1 / "dev.jsonl").read_bytes() == (out2 / "dev.jsonl").read_bytes()
        assert (out1 / "val.jsonl").read_bytes() == (out2 / "val.jsonl").read_bytes()

    def test_sweep_regenerates_golden_byte_identical(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--dev", str(DATA_DIR / "golden_val.jsonl"),
                     "--grid", str(DATA_DIR / "golden_sweep_grid.json"),
                     "--config", str(self.run_config_file(tmp_path)), "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (DATA_DIR / "golden_sweep.csv").read_bytes()
        best = tmp_path / "sweep.csv.best.json"
        assert best.read_bytes() == (DATA_DIR / "golden_sweep.csv.best.json").read_bytes()

    def test_evaluate_matches_golden_sier(self, tmp_path):
        cfg = self.run_config_file(tmp_path)
        out = tmp_path / "sim"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        report_path = tmp_path / "report.json"
        code = main(["evaluate", "--data", str(out / "val.jsonl"),
                     "--config", str(cfg), "--method", "CS",
                     "--out", str(report_path)])
        assert code == 0
        got = json.loads(report_path.read_text())
        golden = json.loads((DATA_DIR / "golden_report.json").read_text())
        cs_gold = [m for m in golden["methods"] if m["method"] == "CS"][0]
        assert got["methods"][0]["overall"] == cs_gold["overall"]

    def test_evaluate_honours_unit_normalize(self, tmp_path):
        plain_cfg = self.run_config_file(tmp_path)
        cfg = json.loads(plain_cfg.read_text())
        cfg["method"]["unit_normalize"] = True
        norm_cfg = tmp_path / "norm.json"
        norm_cfg.write_text(json.dumps(cfg))
        out = tmp_path / "sim"
        main(["simulate", "--config", str(plain_cfg), "--out", str(out)])
        reports = {}
        for name, path in (("plain", plain_cfg), ("norm", norm_cfg)):
            report_path = tmp_path / f"report-{name}.json"
            assert main(["evaluate", "--data", str(out / "val.jsonl"),
                         "--config", str(path), "--method", "LP,2LP",
                         "--out", str(report_path)]) == 0
            reports[name] = json.loads(report_path.read_text())["methods"]
        spec = RunConfig.from_dict(json.loads(norm_cfg.read_text())).method
        expected = evaluate_methods(load_dataset(out / "val.jsonl"),
                                    [replace(spec, method=m) for m in ("LP", "2LP")])
        assert reports["norm"] == report_to_dict(expected, 0, "")["methods"]
        assert all(m["spec"]["unit_normalize"] for m in reports["norm"])
        assert reports["norm"] != reports["plain"]

    def test_method_skipped_on_a_whole_group_still_reports(self, tmp_path):
        # cohort scaling with no sigma for "hard" skips 2LP on every hard
        # household; the improvement cell for "hard" is then n/a
        cfg = json.loads(self.run_config_file(tmp_path).read_text())
        cfg["method"]["scaling"] = {"kind": "cohort", "sigma_by_cohort": {"random": 1.0}}
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--data", str(out / "val.jsonl"), "--config", str(path),
                     "--method", "CS,2LP", "--allow-skip", "--out", str(report_path)]) == 0
        data = json.loads(report_path.read_text())
        cs, lp = data["methods"]
        assert set(cs["groups"]) == {"hard", "random"} and set(lp["groups"]) == {"random"}
        assert all(hid.startswith("hard-") for hid in (s["household_id"] for s in lp["skipped"]))
        row = data["improvement_vs_best_baseline_pct"]["cohort"]
        assert row["hard"] is None
        assert ("| cohort | n/a | " + ("n/a" if row["random"] is None else f"{row['random']:.1f}")
                in render_report(data, "md"))

    def test_one_household_per_group_exits_2(self, tmp_path, capsys):
        cfg = json.loads(self.run_config_file(tmp_path).read_text())
        cfg["simulation"]["households_per_group"] = 1
        path = tmp_path / "one.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "'hard'" in capsys.readouterr().err
        assert not out.exists()

    def test_kernel_underflow_exits_3(self, tmp_path, capsys):
        # one held-out utterance sits exactly 27 from its nearest neighbour
        # and farther from the rest, so under sigma 1 its degree is the
        # subnormal exp(-729)
        _, households = golden_households()
        hh = households[0]
        voice = np.vstack([u.views["voice"] for u in hh.utterances])
        anchor = voice[np.argmax(voice[:, 0])]
        hh.by_role("heldout")[0].views["voice"] = anchor + 27.0 * np.eye(len(anchor))[0]
        data = tmp_path / "val.jsonl"
        save_dataset(households, data)
        cfg = json.loads(self.run_config_file(tmp_path).read_text())
        cfg["method"] = {"method": "LP", "scaling": {"kind": "universal", "sigma": 1.0},
                         "fusion": {"kind": "single_view", "view": "voice"}}
        path = tmp_path / "universal.json"
        path.write_text(json.dumps(cfg))
        assert main(["evaluate", "--data", str(data), "--config", str(path),
                     "--out", str(tmp_path / "r.json")]) == 3
        assert "subnormal degree" in capsys.readouterr().err

    def test_top_level_seed_drives_simulate(self, tmp_path):
        cfg = json.loads(self.run_config_file(tmp_path).read_text())
        paths = {}
        for name, seed, sim_seed in (("top", 42, None), ("both", 42, 42), ("clash", 42, 43)):
            doc = {**cfg, "seed": seed, "simulation": dict(cfg["simulation"])}
            del doc["simulation"]["seed"]
            if sim_seed is not None:
                doc["simulation"]["seed"] = sim_seed
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        for name in ("top", "both"):
            assert main(["simulate", "--config", str(paths[name]),
                         "--out", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / "top" / "manifest.json").read_text())
        assert manifest["seed"] == manifest["config"]["simulation"]["seed"] == 42
        assert ((tmp_path / "top" / "dev.jsonl").read_bytes()
                == (tmp_path / "both" / "dev.jsonl").read_bytes())
        assert main(["simulate", "--config", str(paths["clash"]),
                     "--out", str(tmp_path / "clash")]) == 2
        # without a simulation section the default simulation takes the seed
        paths["bare"] = tmp_path / "bare.json"
        paths["bare"].write_text(json.dumps({"seed": 42}))
        assert main(["simulate", "--config", str(paths["bare"]),
                     "--out", str(tmp_path / "bare")]) == 0
        manifest = json.loads((tmp_path / "bare" / "manifest.json").read_text())
        assert manifest["seed"] == manifest["config"]["simulation"]["seed"] == 42

    @pytest.mark.parametrize("literal", ["NaN", "1e999"])
    def test_non_finite_embedding_exits_2(self, tmp_path, capsys, literal):
        _, val = golden_households()
        data = tmp_path / "val.jsonl"
        _, utt_id = write_non_finite_heldout(val, data, literal)
        assert main(["evaluate", "--data", str(data), "--method", "CS",
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and utt_id in err

    @pytest.mark.parametrize("role, edit, fragment", MALFORMED_RECORDS)
    def test_malformed_record_exits_2(self, tmp_path, capsys, role, edit, fragment):
        _, val = golden_households()
        data = tmp_path / "val.jsonl"
        line_no, _ = write_edited_record(val, data, role, edit)
        assert main(["evaluate", "--data", str(data), "--method", "CS",
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert f"line {line_no}: " in err and fragment in err

    def test_overlong_integer_in_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"seed": ' + "1" * 5000 + "}")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("line", NON_OBJECT_LINES)
    def test_non_object_line_exits_2(self, tmp_path, capsys, line):
        data = tmp_path / "val.jsonl"
        data.write_text(line + "\n")
        assert main(["evaluate", "--data", str(data), "--method", "CS",
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "error: line 1: expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_non_utf8_dataset_exits_2(self, tmp_path, capsys, command):
        # both once ended in a UnicodeDecodeError traceback with exit 1
        data = tmp_path / "latin1.jsonl"
        data.write_bytes(b"\xff\n")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"scaling.s": [0.5]}))
        args = (["evaluate", "--data", str(data)] if command == "evaluate"
                else ["sweep", "--dev", str(data), "--grid", str(grid)])
        assert main([*args, "--out", str(tmp_path / "out")]) == 2
        assert "error: line 1: malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("session_offset_sigma", -0.1), ("unlabeled_per_household", -1), ("voice_dim", 0),
        ("face_dim", 0), ("voice_dim", -1), ("heldout_per_speaker", -1),
        ("labeled_per_speaker", 0)])
    def test_simulation_out_of_range_exits_2(self, tmp_path, capsys, key, value):
        cfg = json.loads(self.run_config_file(tmp_path).read_text())
        cfg["simulation"][key] = value
        path = tmp_path / "range.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert f"error: {key} must be >= " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("groups", [["random", "random"], []], ids=["repeated", "empty"])
    def test_simulation_groups_exit_2(self, tmp_path, capsys, groups):
        # a repeated group wrote repeated household ids that evaluate rejected
        cfg = json.loads(self.run_config_file(tmp_path).read_text())
        cfg["simulation"]["groups"] = groups
        path = tmp_path / "groups.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "error: groups must be nonempty and distinct" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "evaluate"])
    def test_unserved_simulation_group_exits_2(self, tmp_path, capsys, command):
        # evaluate once exited 0 on such a config, and simulate failed only
        # inside generate_dataset
        cfg = json.loads(self.run_config_file(tmp_path).read_text())
        cfg["simulation"]["groups"] = ["random", "bogus"]
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps(cfg))
        _, val = golden_households()
        data = tmp_path / "val.jsonl"
        save_dataset(val, data)
        out = tmp_path / "out"
        args = (["--out", str(out)] if command == "simulate"
                else ["--data", str(data), "--out", str(out)])
        assert main([command, "--config", str(path), *args]) == 2
        assert "error: unknown household group 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_session_id_exits_2(self, tmp_path, capsys):
        _, val = golden_households()
        data = tmp_path / "val.jsonl"
        write_edited_record(val, data, "heldout", lambda r: r.pop("session_id"))
        cfg = json.loads(self.run_config_file(tmp_path).read_text())
        cfg["method"]["fusion"] = {"kind": "edge_pool", "views": ["voice", "session"]}
        path = tmp_path / "session.json"
        path.write_text(json.dumps(cfg))
        assert main(["evaluate", "--data", str(data), "--config", str(path),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "session ids missing" in capsys.readouterr().err

    @pytest.mark.parametrize("command, document, key", [
        ("simulate", {"seed": "abc"}, "seed"),
        ("simulate", {"simulation": {"households_per_group": "x"}},
         "simulation.households_per_group"),
        ("evaluate", {"scaling": {"kind": "local", "k": "x", "s": 0.8}}, "method.scaling.k"),
        ("evaluate", {"scaling": {"kind": "local", "s": 0.8}}, "method.scaling.k"),
        ("evaluate", {"propagation": {"alpha": "x"}}, "method.propagation.alpha"),
        ("sweep", {"scaling.k": ["x"]}, "scaling.k"),
        ("sweep", {"scaling.k": 5}, "scaling.k"),
        ("sweep", {"propagation.alpha": ["x"]}, "propagation.alpha"),
        ("simulate", {"simulation": {"dev_val_ratio": ["a", 1]}}, "simulation.dev_val_ratio[0]"),
        ("simulate", {"simulation": {"dev_val_ratio": [1, 2, 3]}}, "simulation.dev_val_ratio"),
        ("simulate", {"simulation": {"face_outlier_blend": [0.3]}},
         "simulation.face_outlier_blend"),
        ("simulate", {"simulation": {"groups": [1, 2]}}, "simulation.groups[0]"),
    ], ids=["seed", "households_per_group", "k-string", "k-missing", "alpha",
            "grid-k-string", "grid-k-scalar", "grid-alpha", "ratio-element",
            "ratio-length", "blend-length", "groups-element"])
    def test_wrongly_typed_config_exits_2(self, tmp_path, capsys, command, document, key):
        """The config (for simulate, evaluate) or grid (for sweep) document
        holds one wrongly typed or missing value; the error names its key."""
        path = tmp_path / "doc.json"
        if command == "simulate":
            path.write_text(json.dumps(document))
            argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]
        else:
            _, val = golden_households()
            data = tmp_path / "val.jsonl"
            save_dataset(val, data)
            cfg = self.run_config_file(tmp_path)
            if command == "evaluate":
                doc = json.loads(cfg.read_text())
                doc["method"].update(document)
                path.write_text(json.dumps(doc))
                argv = ["evaluate", "--data", str(data), "--config", str(path),
                        "--out", str(tmp_path / "r.json")]
            else:
                path.write_text(json.dumps(document))
                argv = ["sweep", "--dev", str(data), "--grid", str(path),
                        "--config", str(cfg), "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 2
        assert f"error: {key}: " in capsys.readouterr().err

    def test_session_with_two_speakers_exits_2(self, tmp_path, capsys):
        _, households = golden_households()
        first, *rest = households[0].utterances
        other = next(u for u in rest if u.speaker not in (None, first.speaker))
        other.session_id = first.session_id
        data = tmp_path / "val.jsonl"
        save_dataset(households, data)
        assert main(["evaluate", "--data", str(data), "--method", "CS",
                     "--out", str(tmp_path / "r.json")]) == 2
        assert (f"session {first.session_id!r} mixes speakers "
                f"{first.speaker!r} and {other.speaker!r}") in capsys.readouterr().err

    def test_household_without_heldout_exits_2(self, tmp_path, capsys):
        _, households = golden_households()
        empty = households[0]
        empty.utterances = [u for u in empty.utterances if u.role != "heldout"]
        data = tmp_path / "val.jsonl"
        save_dataset(households, data)
        assert main(["evaluate", "--data", str(data), "--method", "CS",
                     "--out", str(tmp_path / "r.json")]) == 2
        assert empty.household_id in capsys.readouterr().err

    def test_report_formats(self, tmp_path, capsys):
        report = DATA_DIR / "golden_report.json"
        assert main(["report", "--in", str(report), "--format", "md"]) == 0
        md = capsys.readouterr().out
        assert md.startswith("| method |")
        assert main(["report", "--in", str(report), "--format", "csv"]) == 0
        assert "label,family" in capsys.readouterr().out
        # rendered as JSON, a report is the file it was read from
        rendered = tmp_path / "rendered.json"
        assert main(["report", "--in", str(report), "--format", "json",
                     "--out", str(rendered)]) == 0
        assert rendered.read_bytes() == report.read_bytes()

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    @pytest.mark.parametrize("case", ["empty object", "list", "no groups", "no footnote",
                                      "scalar gain row", "list of gains", "string gain"])
    def test_report_of_a_non_report_exits_2(self, tmp_path, capsys, fmt, case):
        # md and csv once ended in a KeyError or TypeError traceback, and json
        # echoed the input back with exit 0; md once ended in a KeyError,
        # AttributeError or ValueError traceback on a bad improvement block
        data = json.loads((DATA_DIR / "golden_report.json").read_text())
        edits = {"no groups": lambda: data["methods"][0].pop("groups"),
                 "no footnote": lambda: data.pop("footnote"),
                 "scalar gain row": lambda: data.update(
                     improvement_vs_best_baseline_pct={"local": 5}),
                 "list of gains": lambda: data.update(improvement_vs_best_baseline_pct=[1]),
                 "string gain": lambda: data["improvement_vs_best_baseline_pct"]["local"].update(
                     hard="x")}
        edits.get(case, lambda: None)()
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"empty object": {}, "list": []}.get(case, data)))
        assert main(["report", "--in", str(path), "--format", fmt]) == 2
        assert capsys.readouterr().err.startswith("error: not a report (")

    def test_sweep_outputs(self, tmp_path):
        cfg = self.run_config_file(tmp_path)
        out = tmp_path / "sim"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"scaling.s": [0.5, 0.8]}))
        sweep_csv = tmp_path / "sweep.csv"
        code = main(["sweep", "--dev", str(out / "dev.jsonl"),
                     "--grid", str(grid), "--config", str(cfg),
                     "--out", str(sweep_csv)])
        assert code == 0
        rows = sweep_csv.read_text().strip().splitlines()
        assert len(rows) == 3   # header + 2 grid points
        best = json.loads((tmp_path / "sweep.csv.best.json").read_text())
        assert best["params"]["scaling.s"] in (0.5, 0.8)

    @pytest.mark.parametrize("grid", [[{"scaling.s": [0.5]}], "scaling.s", 5])
    def test_non_object_grid_exits_2(self, tmp_path, capsys, grid):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        dev, _ = golden_households()
        save_dataset(dev[:1], tmp_path / "dev.jsonl")
        assert main(["sweep", "--dev", str(tmp_path / "dev.jsonl"), "--grid", str(path),
                     "--out", str(tmp_path / "sweep.csv")]) == 2
        assert "grid file must map parameter names to value lists" in capsys.readouterr().err

    def test_exit_codes(self, tmp_path, monkeypatch):
        # missing file -> I/O error
        assert main(["evaluate", "--data", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "r.json")]) == 4
        # malformed dataset -> validation error
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert main(["evaluate", "--data", str(bad),
                     "--out", str(tmp_path / "r.json")]) == 2
        # numerical failures map to their own exit code
        import speakergraph.cli as cli
        from speakergraph.errors import NumericalError

        def explode(path):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "load_dataset", explode)
        assert main(["evaluate", "--data", str(bad),
                     "--out", str(tmp_path / "r.json")]) == 3
        # unknown subcommand -> argparse usage error (SystemExit 2)
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_seed_override(self, tmp_path):
        cfg = self.run_config_file(tmp_path)
        out = tmp_path / "o"
        main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "7"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_seed_reaches_the_config_hash_of_every_command(self, tmp_path):
        # evaluate and sweep once wrote "seed": 7 beside the seed-0 config's hash
        assert main(["simulate", "--out", str(tmp_path / "sim"), "--seed", "7"]) == 0
        assert main(["evaluate", "--data", str(DATA_DIR / "golden_val.jsonl"), "--method", "CS",
                     "--out", str(tmp_path / "report.json"), "--seed", "7"]) == 0
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"scaling.s": [0.5]}))
        assert main(["sweep", "--dev", str(DATA_DIR / "golden_val.jsonl"), "--grid", str(grid),
                     "--out", str(tmp_path / "sweep.csv"), "--seed", "7"]) == 0
        hashes = [json.loads((tmp_path / name).read_text())["config_hash"]
                  for name in ("sim/manifest.json", "report.json", "sweep.csv.best.json")]
        assert hashes[0] == hashes[1] == hashes[2]
        assert main(["evaluate", "--data", str(DATA_DIR / "golden_val.jsonl"), "--method", "CS",
                     "--out", str(tmp_path / "unseeded.json")]) == 0
        assert json.loads((tmp_path / "unseeded.json").read_text())["config_hash"] != hashes[0]


# ---------------------------------------------------------------------------
# Arbitrary JSON at the boundaries
# ---------------------------------------------------------------------------

FUZZ = settings(max_examples=100, deadline=None, derandomize=True)

# records of one household; the first two, as two lines, load as a dataset
RECORDS = [
    {"utt_id": "u1", "household_id": "h", "group": "random", "role": "enrolled",
     "speaker": "a", "session_id": "s1", "cohort": "0",
     "views": {"voice": [0.5, 1.0], "face": [1.0, 0.0]}},
    {"utt_id": "u2", "household_id": "h", "group": "random", "role": "heldout",
     "speaker": "a", "session_id": "s1", "views": {"voice": [0.25, 1.5], "face": [0.0, 1.0]}},
    {"utt_id": "u3", "household_id": "h", "role": "unlabeled", "views": {"voice": [1.0, 2.0]}},
]
WORDS = ["local", "universal", "cohort", "single_view", "edge_pool", "power_mean", "voice",
         "face", "session", "CS", "LP", "2LP", "2LPEA", "iterative", "enrolled", "heldout"]
GRID_NAMES = ["method", "view", "session_sigma", "unit_normalize", "scaling", "scaling.k",
              "scaling.s", "scaling.sigma", "fusion", "fusion.view", "fusion.p", "propagation",
              "propagation.alpha", "propagation.max_iter", "propagation.solver", "nonsense"]


def objects_in(tree):
    """tree and every JSON object nested in it."""
    if isinstance(tree, dict):
        yield tree
        for value in tree.values():
            yield from objects_in(value)


def json_trees(seeds):
    """Arbitrary JSON values: scalars (NaN and infinities included), lists and
    objects keyed mostly by the seeds' keys, and the seeds with the value of
    one key, at any depth, replaced by such a value."""
    objects = [obj for seed in seeds for obj in objects_in(seed)]
    keys = st.sampled_from(sorted({key for obj in objects for key in obj})) | st.text(max_size=3)
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=3) | st.sampled_from(WORDS))
    trees = st.recursive(scalars | st.sampled_from(objects),
                         lambda children: (st.lists(children, max_size=3)
                                           | st.dictionaries(keys, children, max_size=3)),
                         max_leaves=8)

    @st.composite
    def edited(draw):
        doc = copy.deepcopy(draw(st.sampled_from(seeds)))
        obj, key = draw(st.sampled_from([(obj, key) for obj in objects_in(doc) for key in obj]))
        obj[key] = draw(trees)
        return doc
    return trees | edited()


CONFIG_TREES = json_trees(list(CONFIGS.values()))


class TestAnyJson:
    """Any JSON input ends in success or a SpeakerGraphError."""

    @FUZZ
    @given(doc=CONFIG_TREES)
    def test_run_config(self, doc):
        try:
            cfg = RunConfig.from_dict(doc)
        except SpeakerGraphError:
            return
        json.dumps(cfg.to_dict(), allow_nan=False)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    @FUZZ
    @given(grid=st.dictionaries(st.sampled_from(GRID_NAMES) | st.text(max_size=3),
                                st.lists(CONFIG_TREES, max_size=3) | CONFIG_TREES, max_size=3))
    def test_sweep_grid(self, grid):
        template = RunConfig.from_dict(CONFIGS["test-cli"]).method
        try:
            points = _grid_points(grid, template)
        except SpeakerGraphError:
            return
        assert len(points) == np.prod([len(values) for values in grid.values()])

    @FUZZ
    @given(lines=st.lists(json_trees(RECORDS), min_size=1, max_size=2))
    def test_jsonl_dataset(self, tmp_path_factory, lines):
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        try:
            load_dataset(path)
        except SpeakerGraphError:
            pass
