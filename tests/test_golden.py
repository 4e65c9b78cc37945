"""Golden artifact digests for the small GBM run of acceptance criterion 8.

Criterion 8 compares two runs made by the same code, so a change that
moves the numbers of both runs alike still passes it. These sha256
digests pin the artifacts themselves: a refactor or speed-up must leave
them unchanged, and a change that moves them on purpose re-pins them in
a change of its own and says why.

Only GBM artifacts are pinned. A logistic fit's weights depend on the
BLAS thread count (IRLS can take a different number of steps with one
OpenBLAS thread than with two), so a logistic digest would hold for one
machine configuration only.
"""

from __future__ import annotations

import hashlib
import json

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


def test_small_gbm_run_matches_golden_digests(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 300, "seed": 13}))
    data = tmp_path / "data"
    profiles = tmp_path / "profiles.csv"
    assert main(["synth", "--spec", str(spec), "--seed", "5",
                 "-o", str(data)]) == 0
    assert main(["unify", str(data / "demographics.csv"),
                 str(data / "exits.csv"), str(data / "incidents.csv"),
                 "-o", str(profiles)]) == 0
    assert main(["sweep", "--profiles", str(profiles),
                 "--ratios", "original,0.5,1.0", "--model", "gbm",
                 "--n-trees", "15", "--folds", "2", "--seed", "5",
                 "-o", str(tmp_path / "sweep")]) == 0
    assert main(["train", "--profiles", str(profiles),
                 "--model", "gbm", "--n-trees", "15", "--ratio", "1.0",
                 "--seed", "5", "-o", str(tmp_path / "fit")]) == 0
    capsys.readouterr()

    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN
    }
    assert digests == GOLDEN
