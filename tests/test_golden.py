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

The SMOTE neighbour lists of the cohort's standardized minority rows
are pinned too, and recomputed under other OpenBLAS and numpy kernels:
neighbour distances are exact, so no kernel may move them. CI runs that
test once more with OPENBLAS_CORETYPE=Haswell for the whole process,
together with both GBM runs: boosted trees call no BLAS kernel.

The inputs are pinned as well: `synth`'s raw trio and manifest, and the
profiles.csv that `unify` links from the trio, for the golden cohort
and for the default spec. The cohort's label comes from np.exp through
the intercept bisection, and its files from numpy's date and rounding
kernels, so CI runs that test once more on numpy's kernels up to
X86_V3. Its cells are formatted through dict and set lookups, so CI
also runs it under two str hash seeds (PYTHONHASHSEED 0 and 1).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import readmit
from readmit.cli import main
from readmit.cohort import read_profiles, write_profiles

from tests.helpers import numpy_kernels_above_x86_v3

GOLDEN = {
    "sweep/report.json":
        "4132197dbd712ecc63dabceef09136a287148d278a17aac0a96174262d7e5bc1",
    "sweep/roc_original.csv":
        "f8d5b41c10cfaabd7bcb965008cb3ae026951a9ac2df477c33c3ca9d1cd41544",
    "sweep/roc_0.5.csv":
        "9609f21c13af87784e2cb448065c9af6962f55becbc57be8d09576f539f33faa",
    "sweep/roc_1.0.csv":
        "e4e746ec27b4ce64a2c66dc3c35449c83d5791e84bbf333851d551f59e9ab1d9",
    "fit/model.json":
        "957e2b041a2459ba3cf90f210f10cb9a23ad7b420932c34f0eca17e0056ee7ce",
}

GOLDEN_LOGISTIC = {
    "sweep/report.json":
        "8eac5166da829ba8cd022697a3f8fc62d219b25311ae6127d4f1c762097a2f18",
    "sweep/roc_original.csv":
        "ed5d0822213bd59b6aecfa59e50805ba04b0ee2a77adeae2cfabebcbe5251df3",
    "sweep/roc_0.5.csv":
        "ef47e631c599deb29457ba97c8e71660c7ae2af09191fa20a37de60a47597762",
    "sweep/roc_1.0.csv":
        "880f97f9c871a83f8ea75c7a93e9d57e29b52227661b1d531ed373a0a7cf5fbf",
    "fit/model.json":
        "92e66f8910b67347a7d4c99324c661f355fb2294a47cf762a8c8e64fd2281db7",
}

BLANKED_AGE_GOLDEN = {
    "gbm": {
        "sweep/report.json":
            "2457e43ff686aa058d5b8735da307d78a4982ab1a073aaf152185a9b0e9c4d04",
        "sweep/roc_original.csv":
            "12171c1ea9fdab4c52d8cd20050833b9915c8ef183fc7f3b79d1a092f16f3d94",
        "sweep/roc_0.5.csv":
            "d0e6b35fcf3f617dd59484f2e3fa742b23790d146a62828fa807d09476cd0332",
        "sweep/roc_1.0.csv":
            "2e4f8a5108e37ba186cca75894f29b4e3e29d09c9d3365a8b175a511d7a81b29",
        "fit/model.json":
            "0e658482bb324a1be841d4e08e35704f92fdff4a4d941c3d4d398d37d7e3fb53",
    },
    "logistic": {
        "sweep/report.json":
            "675e643e338f4cc0d5abf44ebc72d05d8942c2065b5d912868ad1b4c41f17ae5",
        "sweep/roc_original.csv":
            "651d20b0ccd23cbd383da07377cb706c3cc959bb42604efbd7dbc0ec00f333e2",
        "sweep/roc_0.5.csv":
            "9ea6960acd1128efdbdb11c4220476db3e1db88ed4dda0637fc407016fe5dbb4",
        "sweep/roc_1.0.csv":
            "726b7683d1f97ec85eb67f3372e72837bbb1c5be1bbebee0837c65bb8af1edac",
        "fit/model.json":
            "87f21b327ccea9d4a9242468b73d5f30bd5ab160f0bd1c6935e143263b4d509a",
    },
}


# sha256 of `synth`'s raw trio and cohort_manifest.json, and of the
# profiles.csv that `unify` links from the trio, for the golden cohort
# (`synth --seed 5`) and for the bundled default spec (n=6,779) at
# `synth --seed 7`.
RAW_TRIO_GOLDEN = {
    "golden": {
        "demographics.csv":
            "56cb2e04bee8ca9f200719ca47bc4e9e84cfb8ea761c54271055208b0a88c028",
        "exits.csv":
            "fbd6eb7c5df712a7da192bf1122e008aabfce18afe78ea7553b7a53100f73200",
        "incidents.csv":
            "2c6ec888f6423f9c2ce402ca63b32c9ea50c28280fd364f2d1921d699398e890",
        "profiles.csv":
            "ff31da7854ba0c8cb7cd2d9264a149cdb967fb4fcadf228ebd88a706bbb9880c",
        "cohort_manifest.json":
            "014d9c28a3ef0ac6acd3f756f74004584213c159f14d1c86961f9a2cfd5e3a34",
    },
    "default-seed-7": {
        "demographics.csv":
            "bc303b0f1fa9247eb2e617940c278b6a06d5706df1709add82a65179d3593a55",
        "exits.csv":
            "830d2abd51e0baa45959ee2e1282842a0e33dcf6d6284ee9f7aecdb9f8b42f63",
        "incidents.csv":
            "57c701bf22c5a56a59516a52efcc64fd9a2b1663d96d7767c19a4d5607831c93",
        "profiles.csv":
            "abd8039ede12014af3d4d9a40eea74b6bca3d1524b940dd4e8c84420dee189a1",
        "cohort_manifest.json":
            "e107e97a37ab672c87c6888c6db2ab76cba2141893d7a879b9abe2114a097118",
    },
}


# sha256 of the k=5 neighbour lists (little-endian int64) of the golden
# cohort's standardized minority rows.
NEIGHBOR_DIGEST = (
    "e04324028ca8778b76916a842a6716c96d80224abe97720e6b007356e4fa7ad6")

NEIGHBOR_SCRIPT = """
import hashlib, sys
from readmit.cohort import read_profiles
from readmit.features import FeatureSchema, encode, standardize
from readmit.resample import _nearest_minority_neighbors
data, _ = standardize(encode(read_profiles(sys.argv[1]),
                             FeatureSchema()).dataset)
neighbors = _nearest_minority_neighbors(data.matrix[data.labels == 1], 5)
print(hashlib.sha256(neighbors.astype("<i8").tobytes()).hexdigest())
"""


RAW_FILES = ("demographics.csv", "exits.csv", "incidents.csv")


def synth_and_unify(out: Path, synth_args: list[str]) -> Path:
    """Run `synth` with synth_args into out, then `unify` its raw trio
    into out/profiles.csv; return out."""
    assert main(["synth", *synth_args, "-o", str(out)]) == 0
    assert main(["unify", *(str(out / name) for name in RAW_FILES),
                 "-o", str(out / "profiles.csv")]) == 0
    return out


def golden_spec(tmp: Path) -> Path:
    """The golden cohort's spec file: n=300, spec seed 13."""
    spec = tmp / "spec.json"
    spec.write_text(json.dumps({"n": 300, "seed": 13}))
    return spec


@pytest.fixture(scope="module")
def profiles(tmp_path_factory):
    """profiles.csv of the n=300, spec-seed-13 cohort (`synth --seed 5`)."""
    tmp = tmp_path_factory.mktemp("golden")
    synth_and_unify(tmp / "data",
                    ["--spec", str(golden_spec(tmp)), "--seed", "5"])
    return tmp / "data" / "profiles.csv"


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


@pytest.mark.parametrize("cohort", sorted(RAW_TRIO_GOLDEN))
def test_raw_trio_matches_golden_digests(tmp_path, cohort, capsys):
    if cohort == "golden":
        synth_args = ["--spec", str(golden_spec(tmp_path)), "--seed", "5"]
    else:
        synth_args = ["--seed", "7"]
    out = synth_and_unify(tmp_path / "data", synth_args)
    capsys.readouterr()
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in RAW_TRIO_GOLDEN[cohort]}
    assert digests == RAW_TRIO_GOLDEN[cohort]


@pytest.mark.parametrize("kernel_env", [
    {}, {"OPENBLAS_CORETYPE": "Prescott"},
    {"NPY_DISABLE_CPU_FEATURES": numpy_kernels_above_x86_v3()},
], ids=["inherited", "openblas-prescott", "numpy-avx2"])
def test_smote_neighbors_match_golden_digest(profiles, kernel_env):
    src = str(Path(readmit.__file__).resolve().parents[1])
    env = dict(os.environ, **kernel_env)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NEIGHBOR_SCRIPT,
                           str(profiles)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [NEIGHBOR_DIGEST]
