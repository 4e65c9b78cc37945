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

Synthetic cohorts never leave an age blank, so the same runs are pinned
once more on a copy of the cohort with 15% of its ages blanked:
those digests cover each fit's imputation from its training rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from readmit.cli import main
from readmit.cohort import read_profiles, write_profiles

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

BLANKED_AGE_GOLDEN = {
    "gbm": {
        "sweep/report.json":
            "7f1a8cad3d0b9e3b5eff2bd73ebe528a0c15bfa17b24303a64901e4ef5a3f172",
        "sweep/roc_original.csv":
            "12171c1ea9fdab4c52d8cd20050833b9915c8ef183fc7f3b79d1a092f16f3d94",
        "sweep/roc_0.5.csv":
            "c7f3dbfc77a7d02adadf5555daf1e31b87adbbfbe67bf04b9c2f105a953a247d",
        "sweep/roc_1.0.csv":
            "b7148f5f077dfa9a089aba50ce7f21d0c33aeb5243dee5021439b476003113b2",
        "fit/model.json":
            "c0c3b87e553fefeb8a38734a396efbc9aad2a846bad033e4280ae8f984297f13",
    },
    "logistic": {
        "sweep/report.json":
            "a74741a7250f26bff1958cc79759b5fe779c79d80d150d82cf760281b5c981b5",
        "sweep/roc_original.csv":
            "651d20b0ccd23cbd383da07377cb706c3cc959bb42604efbd7dbc0ec00f333e2",
        "sweep/roc_0.5.csv":
            "51ba4d4e9201415e73bdf762335ba183907ee033f7cc9687a3d1c563db77a67d",
        "sweep/roc_1.0.csv":
            "9a5b0508a77285c02f63c1d1718f65d48728eda989dc0c06e2c8691e13a5b5b3",
        "fit/model.json":
            "48d6fb8d35c612845c5ad342695a0e21b11b1946551714da91f4f8f67893042e",
    },
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


@pytest.fixture(scope="module")
def blanked_profiles(profiles, tmp_path_factory):
    """The same cohort with 15% of its ages blanked, the rows drawn by
    numpy seed 15."""
    rows = read_profiles(profiles)
    blank = set(np.random.default_rng(15).choice(
        len(rows), size=round(0.15 * len(rows)), replace=False).tolist())
    out = tmp_path_factory.mktemp("blanked") / "profiles.csv"
    write_profiles([dataclasses.replace(p, age=None) if i in blank else p
                    for i, p in enumerate(rows)], out)
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


@pytest.mark.parametrize("model_args", [
    ["--model", "gbm", "--n-trees", "15"], ["--model", "logistic"],
], ids=["gbm", "logistic"])
def test_blanked_age_run_matches_golden_digests(tmp_path, blanked_profiles,
                                                model_args, capsys):
    digests = run_digests(tmp_path, blanked_profiles, model_args)
    assert "warning" not in capsys.readouterr().err
    assert digests == BLANKED_AGE_GOLDEN[model_args[1]]
