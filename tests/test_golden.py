"""Golden artifact digests for the small runs of acceptance criterion 8.

Criterion 8 compares two runs made by the same code, so a change that
moves the numbers of both runs alike still passes it. These sha256
digests pin the artifacts themselves: a refactor or speed-up must leave
them unchanged, and a change that moves them on purpose re-pins them in
a change of its own and says why.

Both the GBM and the logistic artifacts are pinned. The logistic fit is
solved on reference-coded, full-rank columns, so it converges in a few
IRLS steps and its weights do not depend on the BLAS thread count; CI
runs this file at one OpenBLAS thread as well as at the default.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from readmit.cli import main

GOLDEN = {
    "sweep/report.json":
        "4756936e93bc8ac46fd8e52740d1c56636de74d0bc22342dad273abdef4a734f",
    "sweep/roc_original.csv":
        "5b236617644c479cbb7585330b6feaa070904551474214451970043dabdc3abd",
    "sweep/roc_0.5.csv":
        "7d61420ee57d763269f16601cf95d420197fca5e691c92cffa0d9034707ea5dd",
    "sweep/roc_1.0.csv":
        "4ff48f8708a424c335e8c02ec8f11ecc50dd665ccf8a0e42861797207b691fd9",
    "fit/model.json":
        "749cf7ae54faeae417d0f23dc3aba23e34e8b5e0a3b3dbec62fb1789d82f599d",
}

GOLDEN_LOGISTIC = {
    "sweep/report.json":
        "6f9f886e47053dc2275dfbccff36f80b000c3d084916aea8487b82e6fac8c6a8",
    "sweep/roc_original.csv":
        "ed5d0822213bd59b6aecfa59e50805ba04b0ee2a77adeae2cfabebcbe5251df3",
    "sweep/roc_0.5.csv":
        "2cd14177953b79845ca982df945dfbd0e6ead195e0ccb300243d9b8c9146b0d3",
    "sweep/roc_1.0.csv":
        "2f4fe62b7591d9969d28e5e125664b72429c380ad8b5909d15b1d7ea9132b5b2",
    "fit/model.json":
        "682773898485a55200ab665181c25e8f8d66a3fae7c9470fc5dd110f9c225df5",
}


@pytest.fixture(scope="module")
def profiles(tmp_path_factory):
    """profiles.csv of the n=300, spec-seed-13 cohort (`synth --seed 5`)."""
    tmp = tmp_path_factory.mktemp("golden")
    spec = tmp / "spec.json"
    spec.write_text(json.dumps({"n": 300, "seed": 13}))
    data = tmp / "data"
    out = tmp / "profiles.csv"
    assert main(["synth", "--spec", str(spec), "--seed", "5",
                 "-o", str(data)]) == 0
    assert main(["unify", str(data / "demographics.csv"),
                 str(data / "exits.csv"), str(data / "incidents.csv"),
                 "-o", str(out)]) == 0
    return out


def run_digests(tmp_path, profiles, model_args) -> dict[str, str]:
    """sweep (original, 0.5, 1.0; 2 folds) and train (ratio 1.0) with
    ``model_args``; the sha256 of each pinned artifact."""
    assert main(["sweep", "--profiles", str(profiles),
                 "--ratios", "original,0.5,1.0", *model_args,
                 "--folds", "2", "--seed", "5",
                 "-o", str(tmp_path / "sweep")]) == 0
    assert main(["train", "--profiles", str(profiles), *model_args,
                 "--ratio", "1.0", "--seed", "5",
                 "-o", str(tmp_path / "fit")]) == 0
    return {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN
    }


def test_small_gbm_run_matches_golden_digests(tmp_path, profiles, capsys):
    digests = run_digests(tmp_path, profiles,
                          ["--model", "gbm", "--n-trees", "15"])
    capsys.readouterr()
    assert digests == GOLDEN


def test_small_logistic_run_matches_golden_digests(tmp_path, profiles,
                                                    capsys):
    digests = run_digests(tmp_path, profiles, ["--model", "logistic"])
    assert "warning" not in capsys.readouterr().err
    assert digests == GOLDEN_LOGISTIC
