from __future__ import annotations

import csv
import dataclasses
import gc
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import readmit
from readmit import cli, cohort, features, models, resample
from readmit.cli import main, parse_ratio_token, parse_ratios, UsageError
from readmit.cohort import read_profiles, write_profiles
from readmit.evaluate import (CvResult, confusion, fit_model, roc_curve,
                              sweep)
from readmit.models import GbmParams, LogisticParams
from readmit.resample import SmoteConfig
from readmit.seeding import derive_seed
from readmit.synthgen import CohortSpec, generate

from tests.helpers import LINKAGE_SMALL
from tests.oracles import linkage


def dir_snapshot(path: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(path)): p.read_bytes()
        for p in sorted(path.rglob("*")) if p.is_file()
    }


@pytest.fixture()
def small_spec_file(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 300, "seed": 13}))
    return spec


@pytest.fixture()
def small_profiles_file(tmp_path, small_spec_file):
    out = tmp_path / "data"
    assert main(["synth", "--spec", str(small_spec_file),
                 "-o", str(out)]) == 0
    profiles = tmp_path / "profiles.csv"
    assert main(["unify",
                 str(out / "demographics.csv"),
                 str(out / "exits.csv"),
                 str(out / "incidents.csv"),
                 "-o", str(profiles)]) == 0
    return profiles


def refuse_records(monkeypatch, command: str) -> None:
    """Make building a ClientProfile or a ResidenceEpisode fail."""
    def refuse(record, *args, **kwargs):
        raise AssertionError(f"{command} built a {type(record).__name__}")

    for record in (cohort.ClientProfile, cohort.ResidenceEpisode):
        monkeypatch.setattr(record, "__init__", refuse)


def inject_linkage_cases(raw: Path) -> None:
    """Edit a synthesized trio so unify meets every linkage path: a
    non-admitted copy of every 7th demographics row, another race on the
    second row of each multi-entry client whose place in file order is a
    multiple of 3, and the first exit row of every 5th client dropped."""
    def rows(name):
        with open(raw / name, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    def write(name, table):
        with open(raw / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(table)

    demo = rows("demographics.csv")
    seen: dict[tuple, int] = {}
    for row in demo[1:]:
        seen[tuple(row[:3])] = seen.get(tuple(row[:3]), 0) + 1
        if seen[tuple(row[:3])] == 2 and len(seen) % 3 == 0:
            row[4] = "Other" if row[4] != "Other" else "White"
    demo += [row[:-1] + ["false"] for row in demo[1::7]]
    write("demographics.csv", demo)
    exits = rows("exits.csv")
    first_exit: dict[tuple, int] = {}
    for i, row in enumerate(exits[1:], start=1):
        first_exit.setdefault(tuple(row[:3]), i)
    drop = set(list(first_exit.values())[::5])
    write("exits.csv", [row for i, row in enumerate(exits) if i not in drop])


class TestRatioParsing:
    def test_tokens(self):
        assert parse_ratio_token("original") == "original"
        assert parse_ratio_token("0.3") == 0.3
        assert parse_ratios("original,0.3,1.0") == ["original", 0.3, 1.0]

    def test_bad_tokens(self):
        for bad in ("huge", "0", "1.2", "-0.5", "", "0.5,0.5", "0.3,0.30",
                    "original,ORIGINAL"):
            with pytest.raises(UsageError):
                parse_ratios(bad)


class TestSynth:
    def test_deterministic_reruns(self, tmp_path, small_spec_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--spec", str(small_spec_file), "--seed", "7",
                     "-o", str(out1)]) == 0
        assert main(["synth", "--spec", str(small_spec_file), "--seed", "7",
                     "-o", str(out2)]) == 0
        assert dir_snapshot(out1) == dir_snapshot(out2)

    def test_missing_spec_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--spec", str(tmp_path / "nope.json"),
                     "-o", str(tmp_path / "out")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_default_run_manifest_counts(self, tmp_path):
        out = tmp_path / "out"
        assert main(["synth", "-o", str(out)]) == 0
        manifest = json.loads((out / "cohort_manifest.json").read_text())
        assert manifest["n_profiles"] == 6779
        assert manifest["n_positive"] == 1288
        assert manifest["seed"] == 0
        assert "spec_sha256" in manifest

    def test_seed_env_fallback(self, tmp_path, small_spec_file, monkeypatch):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("READMIT_SEED", "21")
        assert main(["synth", "--spec", str(small_spec_file),
                     "-o", str(out1)]) == 0
        monkeypatch.delenv("READMIT_SEED")
        assert main(["synth", "--spec", str(small_spec_file), "--seed", "21",
                     "-o", str(out2)]) == 0
        assert dir_snapshot(out1) == dir_snapshot(out2)

    def test_infeasible_spec_exits_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 300, "minority_rate": 1.0}))
        assert main(["synth", "--spec", str(spec),
                     "-o", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("payload,message", [
        ({"minority_rate": 0.0}, "minority_rate 0.0 is not in (0, 1)"),
        ({"signal_strength": 100}, "cannot bracket the target"),
        ({"age_mean": 110, "age_max": 140}, "age_max must be <= 120"),
        ({"income_mean": 1e308, "income_sd": 1e308},
         "income_mean 1e+308 and income_sd 1e+308 draw an income that is"
         " not finite"),
        ({"income_mean": float("nan")}, "income_mean must be finite"),
        ({"race_weights": {"White": float("nan"), "Black": 0.5,
                           "Hispanic": 0.5, "Other": 0.0}},
         "race_weights must be finite"),
    ], ids=["no-positives", "unbracketed", "age-over-reader-bound",
            "income-overflow", "nan-income-mean", "nan-weight"])
    def test_undrawable_spec_exits_2_and_writes_nothing(
            self, tmp_path, capsys, payload, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 300, **payload}))
        out = tmp_path / "out"
        code = main(["synth", "--spec", str(spec), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert message in err
        assert not out.exists()

    def test_far_tail_age_bounds_exit_2_at_once(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 300, "age_mean": 35, "age_sd": 1,
                                    "age_min": 100, "age_max": 120}))
        out = tmp_path / "out"
        started = time.perf_counter()
        code = main(["synth", "--spec", str(spec), "-o", str(out)])
        assert time.perf_counter() - started < 2.0
        err = capsys.readouterr().err
        assert code == 2, err
        assert "age_min 100 and age_max 120 hold 0 of the age normal" in err
        assert not out.exists()

    def test_builds_no_record(self, tmp_path, small_spec_file, monkeypatch):
        refuse_records(monkeypatch, "synth")
        assert main(["synth", "--spec", str(small_spec_file),
                     "-o", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("payload,message", [
        ({"n": 150.5}, "n must be int, got 150.5"),
        ({"seed": "x"}, "seed must be int, got 'x'"),
    ], ids=["float-n", "string-seed"])
    def test_wrong_typed_spec_field_exits_2(self, tmp_path, capsys, payload,
                                            message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        code = main(["synth", "--spec", str(spec),
                     "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert message in err

    def test_non_string_config_spec_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"spec": 5}))
        code = main(["synth", "--config", str(config),
                     "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "config key 'spec' must be str, got 5" in err

    def test_empty_config_spec_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"spec": ""}))
        code = main(["synth", "--config", str(config),
                     "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "config key 'spec' must name a spec file, got ''" in err

    def test_empty_spec_flag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["synth", "--spec", "", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "--spec must name a spec file, got ''" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--spec", "--config"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_path_not_a_file_exits_2(self, tmp_path, capsys, flag, kind):
        path = tmp_path / "named.json"
        if kind == "directory":
            path.mkdir()
        out = tmp_path / "out"
        code = main(["synth", flag, str(path), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        what = flag.lstrip("-")
        assert f"{what} file not found or not a file: {path}" in err
        assert not out.exists()


class TestUnify:
    def test_golden_output_and_summary(self, tmp_path, capsys):
        out = tmp_path / "profiles.csv"
        code = main(["unify",
                     str(LINKAGE_SMALL / "demographics.csv"),
                     str(LINKAGE_SMALL / "exits.csv"),
                     str(LINKAGE_SMALL / "incidents.csv"),
                     "-o", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "removed: 5" in captured.out
        assert "profiles: 20" in captured.out
        assert out.read_bytes() == \
            (LINKAGE_SMALL / "profiles_golden.csv").read_bytes()
        warnings_log = tmp_path / "profiles.csv.warnings.log"
        assert warnings_log.exists()
        assert "employment" in warnings_log.read_text()

    def test_empty_exits_warns(self, tmp_path, capsys):
        exits = tmp_path / "exits.csv"
        exits.write_text("cares_id,family_id,case_id,exit_date,exit_reason\n")
        incidents = tmp_path / "incidents.csv"
        incidents.write_text(
            "cares_id,family_id,case_id,incident_date,incident_type\n")
        out = tmp_path / "profiles.csv"
        code = main(["unify", str(LINKAGE_SMALL / "demographics.csv"),
                     str(exits), str(incidents), "-o", str(out)])
        assert code == 0
        assert "every episode will be open" in capsys.readouterr().err
        profiles = read_profiles(out)
        assert all(p.total_los_days == 0 for p in profiles)

    def test_missing_input_exits_3(self, tmp_path):
        code = main(["unify", str(tmp_path / "missing.csv"),
                     str(LINKAGE_SMALL / "exits.csv"),
                     str(LINKAGE_SMALL / "incidents.csv"),
                     "-o", str(tmp_path / "p.csv")])
        assert code == 3

    def test_negative_income_exits_2_with_row_and_column(self, tmp_path,
                                                         capsys):
        demo = tmp_path / "demographics.csv"
        rewrite_cell(LINKAGE_SMALL / "demographics.csv", demo, 2, "income",
                     -5)
        code = main(["unify", str(demo),
                     str(LINKAGE_SMALL / "exits.csv"),
                     str(LINKAGE_SMALL / "incidents.csv"),
                     "-o", str(tmp_path / "p.csv")])
        assert code == 2
        assert "row 2, column 'income'" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @staticmethod
    def unify_with(tmp_path, name, row, column, value):
        """unify the small fixture with one cell of one file replaced."""
        files = [LINKAGE_SMALL / f
                 for f in ("demographics.csv", "exits.csv", "incidents.csv")]
        edited = tmp_path / name
        rewrite_cell(LINKAGE_SMALL / name, edited, row, column, value)
        files = [edited if f.name == name else f for f in files]
        return main(["unify", *map(str, files),
                     "-o", str(tmp_path / "p.csv")]), edited

    @pytest.mark.parametrize("name,column", [
        ("demographics.csv", "family_id"),
        ("exits.csv", "case_id"),
        ("incidents.csv", "cares_id"),
    ])
    def test_blank_key_part_exits_2_with_file_row_and_column(
            self, tmp_path, capsys, name, column):
        code, edited = self.unify_with(tmp_path, name, 3, column, " ")
        assert code == 2
        assert (f"{edited}, row 3, column {column!r}: blank key part"
                in capsys.readouterr().err)
        assert not (tmp_path / "p.csv").exists()

    def test_blank_key_is_reported_after_every_other_cell(self, tmp_path,
                                                          capsys):
        # Row 3 has a blank key part and a bad date: the date is reported,
        # as is a bad cell in a file read after the blank key's.
        demo = tmp_path / "demographics.csv"
        rewrite_cell(LINKAGE_SMALL / "demographics.csv", demo, 2,
                     "case_id", "")
        exits = tmp_path / "exits.csv"
        rewrite_cell(LINKAGE_SMALL / "exits.csv", exits, 3, "case_id", "")
        rewrite_cell(exits, exits, 3, "exit_date", "2014-02-30")
        code = main(["unify", str(demo), str(exits),
                     str(LINKAGE_SMALL / "incidents.csv"),
                     "-o", str(tmp_path / "p.csv")])
        assert code == 2
        assert (f"{exits}, row 3, column 'exit_date'"
                in capsys.readouterr().err)

    def test_blank_key_part_of_non_admitted_row_is_dropped(self, tmp_path,
                                                           capsys):
        code, _ = self.unify_with(tmp_path, "demographics.csv", 7,
                                  "cares_id", "")
        assert code == 0
        assert "removed: 5" in capsys.readouterr().out
        assert (tmp_path / "p.csv").read_bytes() == \
            (LINKAGE_SMALL / "profiles_golden.csv").read_bytes()

    def test_builds_no_record(self, tmp_path, small_spec_file, monkeypatch):
        raw = tmp_path / "raw"
        assert main(["synth", "--spec", str(small_spec_file), "--seed", "5",
                     "-o", str(raw)]) == 0
        inject_linkage_cases(raw)
        files = [raw / name for name in
                 ("demographics.csv", "exits.csv", "incidents.csv")]
        reference = linkage.unify(linkage.read_demographics(files[0]),
                                  linkage.read_exits(files[1]),
                                  linkage.read_incidents(files[2]))
        write_profiles(reference.profiles, tmp_path / "reference.csv")
        expected = {
            "linkage_small": (
                [LINKAGE_SMALL / name for name in
                 ("demographics.csv", "exits.csv", "incidents.csv")],
                (LINKAGE_SMALL / "profiles_golden.csv").read_bytes(),
                (LINKAGE_SMALL / "profiles_golden.csv.warnings.log")
                .read_bytes()),
            "injected": (
                files, (tmp_path / "reference.csv").read_bytes(),
                "".join(f"{w}\n" for w in reference.warnings).encode()),
        }
        assert reference.removed_not_admitted > 0
        assert reference.warnings
        assert any(not ep.closed for p in reference.profiles
                   for ep in p.episodes)

        refuse_records(monkeypatch, "unify")
        for name, (inputs, profiles, warnings) in expected.items():
            out = tmp_path / name / "profiles.csv"
            assert main(["unify", *map(str, inputs), "-o", str(out)]) == 0
            assert out.read_bytes() == profiles, name
            assert (out.parent / "profiles.csv.warnings.log").read_bytes() \
                == warnings, name

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "demo.csv"
        bad.write_text("wrong,header\n1,2\n")
        code = main(["unify", str(bad),
                     str(LINKAGE_SMALL / "exits.csv"),
                     str(LINKAGE_SMALL / "incidents.csv"),
                     "-o", str(tmp_path / "p.csv")])
        assert code == 2


class TestSweep:
    def run_sweep(self, profiles, out, extra=()):
        return main(["sweep", "--profiles", str(profiles),
                     "--ratios", "original,0.5",
                     "--model", "gbm", "--n-trees", "10",
                     "--folds", "2", "--seed", "4",
                     "-o", str(out), *extra])

    def test_report_and_roc_files(self, tmp_path, small_profiles_file):
        out = tmp_path / "sweep"
        assert self.run_sweep(small_profiles_file, out) == 0
        payload = json.loads((out / "report.json").read_text())
        assert [r["ratio"] for r in payload["rows"]] == ["original", "0.5"]
        for row in payload["rows"]:
            assert sorted(row) == sorted(
                ["ratio", "accuracy", "tp", "fn", "fp", "tn", "auc",
                 "sensitivity"])
        assert payload["config"]["seed"] == 4
        assert payload["config"]["model"] == "gbm"
        assert (out / "roc_original.csv").exists()
        assert (out / "roc_0.5.csv").exists()
        assert (out / "schema.json").exists()

    def test_failed_sweep_leaves_no_output_directory(
        self, tmp_path, small_profiles_file, capsys
    ):
        # k=60 exceeds a training fold's minority count at ratio 1.0.
        out = tmp_path / "sweep"
        assert main(["sweep", "--profiles", str(small_profiles_file),
                     "--model", "gbm", "--n-trees", "5", "--k", "60",
                     "--folds", "2", "--ratios", "original,1.0",
                     "-o", str(out)]) == 2
        assert "error: option --k: minority has " in capsys.readouterr().err
        assert not out.exists()

    def test_reruns_byte_identical(self, tmp_path, small_profiles_file):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert self.run_sweep(small_profiles_file, out1) == 0
        assert self.run_sweep(small_profiles_file, out2) == 0
        assert dir_snapshot(out1) == dir_snapshot(out2)

    def test_unknown_ratio_token_exits_2(self, tmp_path, small_profiles_file):
        code = main(["sweep", "--profiles", str(small_profiles_file),
                     "--ratios", "original,huge",
                     "-o", str(tmp_path / "out")])
        assert code == 2

    def test_repeated_ratio_exits_2_naming_it(self, tmp_path,
                                              small_profiles_file, capsys):
        out = tmp_path / "out"
        code = main(["sweep", "--profiles", str(small_profiles_file),
                     "--ratios", "original,0.3,0.30", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "ratio '0.30' given twice" in err
        assert not out.exists()

    def test_unknown_config_key_exits_2_naming_it(
        self, tmp_path, small_profiles_file, capsys
    ):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"folds": 2, "n_tree": 3}))
        code = main(["sweep", "--profiles", str(small_profiles_file),
                     "--config", str(config), "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"config file {config}: unknown key 'n_tree'" in err

    @pytest.mark.parametrize("command", ["sweep", "train"])
    def test_header_only_profiles_exits_2(self, tmp_path, capsys, command):
        profiles = tmp_path / "profiles.csv"
        write_profiles([], profiles)
        code = main([command, "--profiles", str(profiles),
                     "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"profiles file {profiles} has no rows" in err

    def test_missing_profiles_exits_3(self, tmp_path):
        code = main(["sweep", "--profiles", str(tmp_path / "none.csv"),
                     "--ratios", "original", "-o", str(tmp_path / "out")])
        assert code == 3

    def test_single_class_profiles_exit_4(self, tmp_path):
        cohort = [p for p in generate(CohortSpec(n=200, seed=1))
                  if p.readmit == 0]
        profiles = tmp_path / "profiles.csv"
        write_profiles(cohort, profiles)
        code = main(["sweep", "--profiles", str(profiles),
                     "--ratios", "original", "--model", "logistic",
                     "--folds", "2", "-o", str(tmp_path / "out")])
        assert code == 4

    def test_include_income_reports_dropped_rows(
        self, tmp_path, small_profiles_file
    ):
        out = tmp_path / "income"
        code = main(["sweep", "--profiles", str(small_profiles_file),
                     "--ratios", "original", "--model", "logistic",
                     "--folds", "2", "--seed", "4", "--k", "3",
                     "--include-income", "-o", str(out)])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["dropped_missing_income"] > 0
        row = payload["rows"][0]
        kept = len(read_profiles(small_profiles_file)) \
            - payload["dropped_missing_income"]
        assert row["tp"] + row["fn"] + row["fp"] + row["tn"] == kept
        schema = json.loads((out / "schema.json").read_text())
        assert schema["columns"][-1] == "income"

    @pytest.mark.parametrize("extra,config", [
        (["--folds", "1"], None),
        (["--folds", "abc"], None),
        (["--k", "0"], None),
        (["--n-trees", "2.5"], None),
        ([], {"folds": "abc"}),
        ([], {"folds": 2.5}),
        ([], {"k": True}),
        ([], {"include_income": "false"}),
        ([], {"learning_rate": "fast"}),
        (["--ridge", "nan"], None),
        (["--ridge", "inf"], None),
        ([], {"n_tree": 3, "fold": 3}),
    ], ids=["folds-1", "folds-abc", "k-0", "n-trees-2.5", "config-folds-abc",
            "config-folds-2.5", "config-k-true", "config-income-string",
            "config-learning-rate-string", "ridge-nan", "ridge-inf",
            "config-unknown-keys"])
    def test_bad_option_value_exits_2(self, tmp_path, small_profiles_file,
                                      capsys, extra, config):
        commands = ["sweep"]
        if "--folds" not in extra and "folds" not in (config or {}):
            commands.append("train")  # train has no fold count
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            extra = [*extra, "--config", str(path)]
        for command in commands:
            code = main([command, "--profiles", str(small_profiles_file),
                         *extra, "-o", str(tmp_path / command)])
            err = capsys.readouterr().err
            assert code == 2, err
            assert err.startswith("error: ")

    @pytest.mark.parametrize("model", ["logistic", "gbm"])
    def test_more_folds_than_a_class_exits_2(
        self, tmp_path, small_profiles_file, capsys, model
    ):
        out = tmp_path / "sweep"
        code = main(["sweep", "--profiles", str(small_profiles_file),
                     "--model", model, "--n-trees", "5", "--folds", "1000",
                     "--ratios", "original", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: option --folds: class ")
        assert err.rstrip().endswith("fewer than 1000 folds")
        assert not out.exists()

    @pytest.mark.parametrize("command,key,value", [
        ("synth", "seed", "1e400"),
        ("train", "seed", "1e400"),
        ("sweep", "seed", "1e400"),
        ("sweep", "folds", "1e400"),
        ("train", "k", "-1e400"),
        ("sweep", "k", "-1e400"),
    ])
    def test_infinite_config_int_exits_2_naming_the_key(
        self, tmp_path, small_spec_file, small_profiles_file, capsys,
        command, key, value
    ):
        config = tmp_path / "run.json"
        config.write_text(f'{{"{key}": {value}}}')  # JSON reads 1e400 as inf
        source = (["--spec", str(small_spec_file)] if command == "synth"
                  else ["--profiles", str(small_profiles_file)])
        capsys.readouterr()
        code = main([command, *source, "--config", str(config),
                     "-o", str(tmp_path / command)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err == (f"error: config key {key!r} must be int, "
                       f"got {float(value)!r}\n")

    def test_seed_env_must_be_an_integer(self, tmp_path, small_profiles_file,
                                         monkeypatch, capsys):
        monkeypatch.setenv("READMIT_SEED", "seven")
        code = main(["sweep", "--profiles", str(small_profiles_file),
                     "-o", str(tmp_path / "out")])
        assert code == 2
        assert "READMIT_SEED must be int" in capsys.readouterr().err

    def test_config_file_defaults_with_flag_override(
        self, tmp_path, small_profiles_file
    ):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"ratios": "original", "model": "gbm", "n_trees": 5,
             "folds": 2, "seed": 11}))
        out1 = tmp_path / "c1"
        assert main(["sweep", "--profiles", str(small_profiles_file),
                     "--config", str(config), "-o", str(out1)]) == 0
        payload = json.loads((out1 / "report.json").read_text())
        assert payload["config"]["seed"] == 11
        assert payload["config"]["n_trees"] == 5

        out2 = tmp_path / "c2"
        assert main(["sweep", "--profiles", str(small_profiles_file),
                     "--config", str(config), "--seed", "12",
                     "-o", str(out2)]) == 0
        payload2 = json.loads((out2 / "report.json").read_text())
        assert payload2["config"]["seed"] == 12


def rewrite_cell(profiles: Path, out: Path, row: int, column: str,
                 value) -> None:
    """Copy profiles.csv with one cell (file row ``row``) replaced."""
    rewrite_cells(profiles, out, row, {column: value})


def rewrite_cells(profiles: Path, out: Path, row: int, cells: dict) -> None:
    """Copy profiles.csv with the named cells of file row ``row``
    replaced; a callable value is given the row's original cells."""
    with profiles.open(newline="") as fh:
        lines = list(csv.reader(fh))
    fields = dict(zip(lines[0], lines[row - 1]))
    fields.update({column: str(value(fields) if callable(value) else value)
                   for column, value in cells.items()})
    lines[row - 1] = [fields[c] for c in lines[0]]
    with out.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(lines)


class TestProfileValidation:
    """A profiles.csv cell that unify could not have written exits 2."""

    @pytest.mark.parametrize("column,value", [
        ("race", 9),
        ("readmit", 2),
        ("readmit", lambda f: 1 - int(f["readmit"])),
        ("incident_count", -1),
        ("n_open_episodes", lambda f: int(f["n_episodes"]) + 1),
        ("age", "inf"),
        ("age", "nan"),
        ("age", -40),
        ("income", "inf"),
        # Consistent otherwise: no open episode, no stay, not readmitted.
        ("n_episodes", {"n_episodes": 0, "n_open_episodes": 0,
                        "total_los_days": 0, "readmit": 0}),
    ], ids=["category-code", "readmit-binary", "readmit-vs-episodes",
            "negative-count", "open-above-episodes", "age-inf", "age-nan",
            "age-negative", "income-inf", "no-episodes"])
    def test_bad_cell_exits_2_with_row_and_column(
        self, tmp_path, small_profiles_file, capsys, column, value
    ):
        bad = tmp_path / "bad.csv"
        rewrite_cells(small_profiles_file, bad, 4,
                      value if isinstance(value, dict) else {column: value})
        for command in (["sweep", "--folds", "2", "--ratios", "original"],
                        ["train"]):
            code = main([*command, "--profiles", str(bad), "--n-trees", "2",
                         "-o", str(tmp_path / command[0])])
            err = capsys.readouterr().err
            assert code == 2, err
            assert f"row 4, column {column!r}" in err


class TestNonUtf8Input:
    """A byte that is not UTF-8 exits 2 naming the file, and in a CSV
    the line of that byte."""

    @pytest.mark.parametrize("case",
                             ["profiles", "demographics", "config", "spec",
                              "report"])
    def test_bad_byte_exits_2_naming_the_file(self, tmp_path, capsys, case):
        raw = [tmp_path / n for n in
               ("demographics.csv", "exits.csv", "incidents.csv")]
        for path in raw:
            path.write_bytes((LINKAGE_SMALL / path.name).read_bytes())
        profiles = tmp_path / "profiles.csv"
        profiles.write_bytes(
            (LINKAGE_SMALL / "profiles_golden.csv").read_bytes())
        json_file = tmp_path / f"{case}.json"
        json_file.write_text('{"seed": 1}\n')
        out = ["-o", str(tmp_path / "out")]
        bad, line, argv = {
            "profiles": (profiles, 3,
                         ["train", "--profiles", str(profiles), *out]),
            "demographics": (raw[0], 4, ["unify", *map(str, raw), *out]),
            "config": (json_file, 1, ["train", "--profiles", str(profiles),
                                      "--config", str(json_file), *out]),
            "spec": (json_file, 1, ["synth", "--spec", str(json_file), *out]),
            "report": (json_file, 1, ["report", "--report", str(json_file)]),
        }[case]
        lines = bad.read_bytes().split(b"\n")
        lines[line - 1] += b"\xff"
        bad.write_bytes(b"\n".join(lines))

        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, err
        assert str(bad) in err
        if bad.suffix == ".csv":
            assert f"{bad}, row {line}:" in err


class TestOverLimitCell:
    """A cell longer than csv.field_size_limit() exits 2 naming the file
    and its row, in a file that holds quotes and in one that does not."""

    @staticmethod
    def rewrite(source: Path, out: Path, row: int, column: str,
                quoting: int) -> None:
        """Copy a CSV with one cell (file row ``row``) replaced by one
        character more than the limit allows."""
        with source.open(newline="") as fh:
            lines = list(csv.reader(fh))
        lines[row - 1][lines[0].index(column)] = "x" * (
            csv.field_size_limit() + 1)
        with out.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n",
                       quoting=quoting).writerows(lines)
        assert (b'"' in out.read_bytes()) == (quoting == csv.QUOTE_ALL)

    @pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL],
                             ids=["unquoted", "quoted"])
    def test_unify(self, tmp_path, capsys, quoting):
        demo = tmp_path / "demographics.csv"
        self.rewrite(LINKAGE_SMALL / "demographics.csv", demo, 3, "race",
                     quoting)
        code = main(["unify", str(demo), str(LINKAGE_SMALL / "exits.csv"),
                     str(LINKAGE_SMALL / "incidents.csv"),
                     "-o", str(tmp_path / "profiles.csv")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert (f"error: {demo}, row 3: field larger than field limit "
                f"({csv.field_size_limit()})") in err

    @pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL],
                             ids=["unquoted", "quoted"])
    def test_train(self, tmp_path, small_profiles_file, capsys, quoting):
        bad = tmp_path / "profiles.csv"
        self.rewrite(small_profiles_file, bad, 4, "id", quoting)
        code = main(["train", "--profiles", str(bad), "--n-trees", "2",
                     "-o", str(tmp_path / "fit")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert (f"error: {bad}, row 4: field larger than field limit "
                f"({csv.field_size_limit()})") in err


class TestUnconvergedWarnings:
    """A logistic fit that stops at IRLS_MAX_ITER is reported on stderr;
    the artifacts do not record it."""

    def test_train_warns_once(self, tmp_path, small_profiles_file,
                              monkeypatch, capsys):
        monkeypatch.setattr(models, "IRLS_MAX_ITER", 1)
        assert main(["train", "--profiles", str(small_profiles_file),
                     "--model", "logistic", "-o", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "unconverged after 1 IRLS steps" in err

    def test_sweep_warns_per_ratio_and_fold(self, tmp_path,
                                            small_profiles_file,
                                            monkeypatch, capsys):
        args = ["sweep", "--profiles", str(small_profiles_file),
                "--model", "logistic", "--ratios", "original,0.5",
                "--folds", "2"]
        assert main([*args, "-o", str(tmp_path / "a")]) == 0
        assert "warning" not in capsys.readouterr().err
        monkeypatch.setattr(models, "IRLS_MAX_ITER", 1)
        assert main([*args, "-o", str(tmp_path / "b")]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert [w.split(":")[1] for w in warnings] == [
            " ratio original, fold 0", " ratio original, fold 1",
            " ratio 0.5, fold 0", " ratio 0.5, fold 1"]

    def test_gbm_never_warns(self, tmp_path, small_profiles_file,
                             monkeypatch, capsys):
        monkeypatch.setattr(models, "IRLS_MAX_ITER", 1)
        assert main(["train", "--profiles", str(small_profiles_file),
                     "--n-trees", "2", "-o", str(tmp_path)]) == 0
        assert "warning" not in capsys.readouterr().err


class TestTrainAndReport:
    def test_train_writes_model(self, tmp_path, small_profiles_file):
        out = tmp_path / "fit"
        code = main(["train", "--profiles", str(small_profiles_file),
                     "--model", "gbm", "--n-trees", "8",
                     "--ratio", "1.0", "--seed", "2", "-o", str(out)])
        assert code == 0
        payload = json.loads((out / "model.json").read_text())
        assert payload["kind"] == "gbm"
        assert payload["n_trees"] == 8
        assert payload["config"]["ratio"] == "1.0"
        assert len(payload["columns"]) == 20
        assert (out / "schema.json").exists()

    def test_train_reruns_byte_identical(self, tmp_path, small_profiles_file):
        outs = []
        for name in ("f1", "f2"):
            out = tmp_path / name
            assert main(["train", "--profiles", str(small_profiles_file),
                         "--model", "logistic", "--seed", "3",
                         "-o", str(out)]) == 0
            outs.append(dir_snapshot(out))
        assert outs[0] == outs[1]

    def test_train_warns_of_dropped_income_rows(self, tmp_path,
                                                small_profiles_file, capsys):
        kept = [p for p in read_profiles(small_profiles_file)
                if p.income is not None]
        dropped = len(read_profiles(small_profiles_file)) - len(kept)
        assert dropped > 0
        assert main(["train", "--profiles", str(small_profiles_file),
                     "--model", "logistic", "--include-income",
                     "-o", str(tmp_path / "a")]) == 0
        assert capsys.readouterr().err == (
            f"warning: income mode dropped {dropped} profiles with no "
            "income\n")
        # The kept profiles alone train without a warning, to the same
        # model.json: the count is not recorded there.
        complete = tmp_path / "complete.csv"
        write_profiles(kept, complete)
        assert main(["train", "--profiles", str(complete),
                     "--model", "logistic", "--include-income",
                     "-o", str(tmp_path / "b")]) == 0
        assert "warning" not in capsys.readouterr().err
        assert dir_snapshot(tmp_path / "a") == dir_snapshot(tmp_path / "b")

    def test_report_renders_table(self, tmp_path, small_profiles_file,
                                  capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--profiles", str(small_profiles_file),
                     "--ratios", "original,0.5", "--model", "logistic",
                     "--folds", "2", "--seed", "4", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--report", str(out / "report.json")]) == 0
        text = capsys.readouterr().out
        assert "Sensitivity" in text
        assert "original" in text
        assert "0.5" in text
        assert "True Positives" in text

    def test_report_bad_file_exits_2(self, tmp_path):
        bad = tmp_path / "report.json"
        bad.write_text("{}")
        assert main(["report", "--report", str(bad)]) == 2

    def test_report_missing_file_exits_3(self, tmp_path):
        assert main(["report",
                     "--report", str(tmp_path / "none.json")]) == 3

    def test_report_non_string_ratio_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"rows": [dict(REPORT_ROW, ratio=0.5)]}))
        code = main(["report", "--report", str(bad)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"bad report file {bad}: ratio must be str, got 0.5" in err

    def test_report_empty_rows_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"rows": []}))
        code = main(["report", "--report", str(bad)])
        captured = capsys.readouterr()
        assert code == 2, captured.err
        assert f"bad report file {bad}: rows is empty" in captured.err
        assert captured.out == ""


REPORT_ROW = {"ratio": "original", "accuracy": 0.9, "tp": 1, "fn": 2,
              "fp": 3, "tn": 4, "auc": 0.7, "sensitivity": 0.333}


class TestScoringOutsideTheCli:
    """A caller that scores model.json by hand (standardize the encoded
    profiles, then the model's predict_proba) gets train's own
    probabilities, blank ages included."""

    @pytest.fixture()
    def blanked_profiles(self, tmp_path, small_profiles_file):
        out = tmp_path / "blanked.csv"
        write_profiles([dataclasses.replace(p, age=None) if i % 7 == 0 else p
                        for i, p in enumerate(read_profiles(
                            small_profiles_file))], out)
        return out

    @pytest.mark.parametrize("model_kind", ["logistic", "gbm"])
    def test_equals_fit_model_predict(self, tmp_path, blanked_profiles,
                                      model_kind):
        out = tmp_path / "fit"
        assert main(["train", "--profiles", str(blanked_profiles),
                     "--model", model_kind, "--ratio", "1.0", "--seed", "0",
                     "-o", str(out)]) == 0
        data = features.encode(read_profiles(blanked_profiles),
                               features.FeatureSchema()).dataset
        assert np.isnan(data.matrix[0, 0])
        std, _ = features.standardize(data)
        model = models.load_model(out / "model.json")
        predict = getattr(models, f"predict_proba_{model_kind}")
        scores = predict(model, std.matrix)
        assert np.all(np.isfinite(scores))

        pipeline = fit_model(data, model_kind,
                             SmoteConfig(ratio=1.0,
                                         seed=derive_seed(0, "smote")),
                             models.TrainConfig())
        assert scores.tobytes() == pipeline.predict(data).tobytes()


def test_report_row_keys_are_the_rendered_metrics():
    """CvResult.row(), which sweep writes, has the keys report renders."""
    labels = np.array([1, 0, 1, 0])
    scores = np.array([0.9, 0.2, 0.4, 0.6])
    result = CvResult(ratio="original", confusion=confusion(labels, scores),
                      auc=0.75, curve=roc_curve(labels, scores),
                      pooled_scores=scores, labels=labels, traces=[])
    assert list(result.row()) == [
        "ratio", *(key for _, key, _ in cli._REPORT_METRICS)]


# Modules whose loading the start-up guard watches, besides readmit's own.
WATCHED = ("numpy", "hashlib", "dataclasses")
# All that importing the CLI, parsing and report may load of readmit's.
LEAN = ["readmit", "readmit.cli", "readmit.errors"]


def fresh_env() -> dict:
    src = str(Path(readmit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_fresh(body: str) -> dict:
    """Run body (which may set rc) in a new interpreter; return rc and,
    sorted, the modules of readmit and of WATCHED that body loaded."""
    script = ("import json, sys\nrc = 0\nbefore = set(sys.modules)\n" +
              body + "\nloaded = sorted(m for m in set(sys.modules) - before"
              f" if m.split('.')[0] == 'readmit' or m in {WATCHED!r})\n"
              "print(json.dumps({'rc': rc, 'loaded': loaded}))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cli_call(argv: list[str]) -> str:
    return ("from readmit.cli import main\n"
            f"try:\n    rc = main({argv!r})\n"
            "except SystemExit as exc:\n    rc = exc.code\n")


class TestNumpyFreeStart:
    """Start-up guard: importing the CLI, parsing and report load no
    readmit module but the CLI's own, and no numpy, hashlib or
    dataclasses; linkage loads no numpy and no generator."""

    @pytest.mark.parametrize("module", ["readmit.cli", "readmit.cohort"])
    def test_import(self, module):
        loaded = run_fresh(f"import {module}")["loaded"]
        assert "numpy" not in loaded
        if module == "readmit.cli":
            assert loaded == LEAN

    @pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                      ["sweep", "--help"]])
    def test_parse_only(self, argv):
        assert run_fresh(cli_call(argv)) == {"rc": 0, "loaded": LEAN}

    def test_unify(self, tmp_path):
        out = tmp_path / "profiles.csv"
        argv = ["unify", *(str(LINKAGE_SMALL / f"{name}.csv") for name in
                           ("demographics", "exits", "incidents")),
                "-o", str(out)]
        result = run_fresh(cli_call(argv))
        assert result["rc"] == 0
        assert [m for m in result["loaded"] if m.startswith("readmit")] == \
            sorted([*LEAN, "readmit.cohort", "readmit.schema"])
        assert "numpy" not in result["loaded"]
        assert out.read_bytes() == \
            (LINKAGE_SMALL / "profiles_golden.csv").read_bytes()

    def test_report(self, tmp_path):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"rows": [REPORT_ROW]}))
        argv = ["report", "--report", str(report)]
        assert run_fresh(cli_call(argv)) == {"rc": 0, "loaded": LEAN}

    def test_read_profiles(self, small_profiles_file):
        body = ("from readmit.cohort import read_profiles\n"
                f"rc = len(read_profiles({str(small_profiles_file)!r})) - 300"
                "\n")
        result = run_fresh(body)
        assert result["rc"] == 0
        assert "numpy" not in result["loaded"]

    def test_train_loads_numpy(self, tmp_path, small_profiles_file):
        argv = ["train", "--profiles", str(small_profiles_file),
                "--model", "logistic", "-o", str(tmp_path / "fit")]
        result = run_fresh(cli_call(argv))
        assert result["rc"] == 0
        assert "numpy" in result["loaded"]


def run_program(*argv: str) -> subprocess.CompletedProcess:
    """The program as `python -m readmit.cli` runs it."""
    return subprocess.run([sys.executable, "-m", "readmit.cli", *argv],
                          env=fresh_env(), capture_output=True, timeout=60)


class TestProgramEntry:
    """`python -m readmit.cli` and the console script run cli.run: main,
    then gc.freeze() and exit with main's code; main freezes nothing."""

    def test_report_prints_what_main_prints(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(
            {"rows": [REPORT_ROW, dict(REPORT_ROW, ratio="1.0", tp=10)]}))
        proc = run_program("report", "--report", str(report))
        assert main(["report", "--report", str(report)]) == 0
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == capsys.readouterr().out.encode()
        assert proc.stderr == b""

    def test_bad_report_exits_2_with_its_message(self, tmp_path, capsys):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"rows": [dict(REPORT_ROW, tp="many")]}))
        proc = run_program("report", "--report", str(bad))
        assert main(["report", "--report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad report file {bad}: ")
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (2, b"", err.encode())

    def test_unknown_model_exits_2_naming_flag_or_key(self, tmp_path,
                                                      small_profiles_file):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "bogus"}))
        for command in ("sweep", "train"):
            for source, where in ((["--model", "bogus"], "--model"),
                                  (["--config", str(config)],
                                   "config key 'model'")):
                proc = run_program(command, "--profiles",
                                   str(small_profiles_file), *source,
                                   "-o", str(tmp_path / command))
                assert proc.returncode == 2, proc.stderr
                assert proc.stderr.decode() == (
                    f"error: {where} must be logistic or gbm, "
                    "got 'bogus'\n")
                assert not (tmp_path / command).exists()

    def test_main_freezes_nothing(self, tmp_path):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"rows": [REPORT_ROW]}))
        frozen = gc.get_freeze_count()
        assert main(["report", "--report", str(report)]) == 0
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("rows,code", [([REPORT_ROW], 0), ([], 2)])
    def test_module_entry_freezes_then_exits_with_mains_code(
            self, tmp_path, rows, code):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"rows": rows}))
        body = (
            "import gc, runpy\n"
            f"sys.argv = ['readmit', 'report', '--report', {str(report)!r}]\n"
            "try:\n"
            "    runpy.run_module('readmit.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    rc = [exc.code, gc.get_freeze_count() > 0]\n")
        assert run_fresh(body)["rc"] == [code, True]

    def test_console_script_is_the_module_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"readmit": "readmit.cli:run"}


class TestLazyCliNames:
    """readmit.cli.encode, .standardize and .smote resolve on access."""

    def test_resolve_to_the_pipeline_functions(self):
        assert cli.encode is features.encode
        assert cli.standardize is features.standardize
        assert cli.smote is resample.smote

    @pytest.mark.parametrize("name", ["fit_model", "sweep", "Encode"])
    def test_other_missing_names_raise(self, name):
        with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
            getattr(cli, name)


class TestDefaults:
    """With no model flags the CLI fits with the library's defaults."""

    @pytest.fixture(autouse=True)
    def no_seed_env(self, monkeypatch):
        monkeypatch.delenv("READMIT_SEED", raising=False)

    def test_sweep_rows_equal_library_sweep(self, tmp_path,
                                            small_profiles_file):
        out = tmp_path / "sweep"
        assert main(["sweep", "--profiles", str(small_profiles_file),
                     "--ratios", "original,1.0", "--seed", "6",
                     "-o", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        results, _ = sweep(read_profiles(small_profiles_file),
                           ["original", 1.0], seed=6)
        assert rows == [result.row() for result in results]

    def test_train_config_is_the_library_defaults(self, tmp_path,
                                                  small_profiles_file):
        out = tmp_path / "fit"
        assert main(["train", "--profiles", str(small_profiles_file),
                     "-o", str(out)]) == 0
        config = json.loads((out / "model.json").read_text())["config"]
        sweep_defaults = inspect.signature(sweep).parameters
        assert config == {
            "seed": sweep_defaults["seed"].default,
            "model": sweep_defaults["model_kind"].default,
            "include_income": sweep_defaults["include_income"].default,
            "k": SmoteConfig().k,
            "ratio": SmoteConfig().ratio,
            "ridge": LogisticParams().ridge,
            **dataclasses.asdict(GbmParams()),
        }
