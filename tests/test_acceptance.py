"""Acceptance gates for the full pipeline.

Every criterion prints one [acceptance] PASS/FAIL line and pins its
tolerances and runtime budget here. Reference confusion-matrix counts
for the oversampling sweep are frozen as an identity oracle: the metric
functions must reproduce the published sensitivity values from the raw
counts, and the known inconsistency in the rounded accuracy row at
ratios >= 0.4 is asserted as a discrepancy, not patched over.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np
import pytest

from readmit.cli import main
from readmit.cohort import (
    read_demographics,
    read_exits,
    read_incidents,
    unify,
    write_profiles,
)
from readmit.evaluate import (
    ConfusionMatrix,
    accuracy,
    auc,
    cv_evaluate,
    roc_curve,
    sensitivity,
    sweep,
)
from readmit.features import FeatureSchema, encode, standardize
from readmit.models import (
    GbmParams,
    TrainConfig,
    fit_gbm,
    fit_logistic,
)
from readmit.resample import ORIGINAL, SmoteConfig, smote_with_trace, \
    synthetic_count
from readmit.synthgen import CohortSpec, generate, emit_raw_files

from tests.helpers import LINKAGE_SMALL
from tests.oracles.logistic_gd import fit_logistic_gd
from tests.oracles.rates import auc_pairwise
from tests.oracles.stump import best_stump, stump_leaf_values

# Frozen reference sweep counts:
# ratio -> (printed accuracy, tp, fn, fp, tn, printed sensitivity)
REFERENCE_SWEEP = {
    "original": (0.83, 128, 1161, 14, 5476, 0.099),
    "0.3": (0.81, 83, 1206, 6, 5484, 0.064),
    "0.4": (0.79, 127, 1162, 59, 5431, 0.099),
    "0.5": (0.78, 171, 1118, 102, 5388, 0.133),
    "0.6": (0.78, 230, 1059, 223, 5267, 0.178),
    "0.7": (0.78, 357, 932, 496, 4994, 0.277),
    "0.8": (0.78, 448, 841, 700, 4790, 0.348),
    "0.9": (0.79, 549, 740, 958, 4532, 0.426),
    "1.0": (0.79, 588, 701, 1037, 4453, 0.456),
}

SWEEP_RATIOS = [ORIGINAL, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {number} ({name}): FAIL")
                raise
            print(f"\n[acceptance] criterion {number} ({name}): PASS")
        return wrapper
    return decorate


@criterion(1, "reference-count identity suite")
def test_criterion_1_reference_identities():
    start = time.perf_counter()
    for label, (printed_acc, tp, fn, fp, tn, printed_sens) in \
            REFERENCE_SWEEP.items():
        cm = ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)
        assert tp + fn == 1289, label
        assert fp + tn == 5490, label
        assert abs(sensitivity(cm) - printed_sens) <= 1e-3, label
        if label == "original":
            assert abs(accuracy(cm) - printed_acc) <= 5e-3
        if label not in ("original", "0.3"):
            # ratios >= 0.4: count-derived accuracy does NOT match the
            # rounded accuracy row; the inconsistency is the assertion.
            assert abs(accuracy(cm) - printed_acc) > 5e-3, label
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"


@criterion(2, "trapezoidal AUC equals pairwise oracle")
def test_criterion_2_auc_oracle():
    start = time.perf_counter()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 501))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.random(n)
        if seed % 3 == 0:
            scores = np.round(scores, 2)  # force ties
        value = auc(roc_curve(labels, scores))
        assert abs(value - auc_pairwise(labels, scores)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"


@criterion(3, "synthetic-sample geometry and counts")
def test_criterion_3_smote_geometry():
    from readmit.features import EncodedDataset

    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        m = int(rng.integers(8, 41))
        majority = int(rng.integers(20, 121))
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(6, m)))
        ratio = float(rng.choice([0.3, 0.5, 0.7, 0.9, 1.0]))

        matrix = rng.normal(size=(m + majority, d))
        labels = np.concatenate([
            np.ones(m, dtype=np.int64),
            np.zeros(majority, dtype=np.int64),
        ])
        perm = rng.permutation(m + majority)
        data = EncodedDataset(
            matrix=matrix[perm], labels=labels[perm],
            schema=FeatureSchema(),
        )
        out, trace = smote_with_trace(
            data, SmoteConfig(ratio=ratio, k=k, seed=seed)
        )

        expected_syn = max(0, int(np.ceil(ratio * majority)) - m)
        assert expected_syn == synthetic_count(m, majority, ratio)
        assert int(np.sum(out.labels == 1)) == m + expected_syn
        assert np.array_equal(out.matrix[: data.n_rows], data.matrix)
        assert np.array_equal(out.labels[: data.n_rows], data.labels)

        synthetic = out.matrix[data.n_rows:]
        lo = np.minimum(data.matrix[trace.parent_rows],
                        data.matrix[trace.partner_rows])
        hi = np.maximum(data.matrix[trace.parent_rows],
                        data.matrix[trace.partner_rows])
        assert np.all(synthetic >= lo) and np.all(synthetic <= hi)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.2f}s"


@criterion(4, "model oracles")
def test_criterion_4_model_oracles():
    from readmit.features import EncodedDataset

    start = time.perf_counter()

    def dataset(n, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        logits = x @ rng.normal(size=d)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int64)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        return EncodedDataset(matrix=x, labels=y, schema=FeatureSchema())

    # Logistic fit against the independent gradient-descent oracle.
    config = TrainConfig()
    for seed in range(20):
        data = dataset(int(40 + seed * 3), 4, seed)
        model = fit_logistic(data, config)
        oracle_b, oracle_w = fit_logistic_gd(
            data.matrix, data.labels.astype(float), config.logistic.ridge
        )
        assert abs(model.intercept - oracle_b) <= 1e-6
        assert np.max(np.abs(model.weights - oracle_w)) <= 1e-6

    # Depth-1 single-tree boosting against the exhaustive stump oracle.
    stump_config = TrainConfig(gbm=GbmParams(n_trees=1, max_depth=1))
    for seed in range(100):
        data = dataset(int(30 + (seed % 7) * 10), 2 + seed % 5, 5000 + seed)
        model = fit_gbm(data, stump_config)
        tree = model.trees[0]
        prevalence = data.labels.mean()
        residual = data.labels.astype(float) - prevalence
        oracle = best_stump(data.matrix, residual)
        assert oracle is not None
        column, threshold, _ = oracle
        assert tree.feature[0] == column
        assert tree.threshold[0] == pytest.approx(threshold, abs=1e-12)
        left_value, right_value = stump_leaf_values(
            data.matrix, data.labels.astype(float), prevalence,
            column, threshold,
        )
        assert tree.value[tree.left[0]] == pytest.approx(left_value, abs=1e-9)
        assert tree.value[tree.right[0]] == pytest.approx(right_value,
                                                          abs=1e-9)

    # Training log-loss trace over 100 rounds on the default cohort.
    cohort = generate(CohortSpec())
    encoded = encode(cohort, FeatureSchema()).dataset
    standardized, _ = standardize(encoded)
    model = fit_gbm(standardized, TrainConfig())
    assert len(model.train_loss) == 101
    assert np.all(np.diff(model.train_loss) <= 0)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.2f}s"


@pytest.fixture(scope="module")
def trend_runs():
    """Five seeded GBM ratio sweeps on the default cohort, plus the
    no-oversampling logistic benchmark on the same cohorts."""
    gbm_reports = []
    logistic_sens = []
    gbm_elapsed = 0.0
    for seed in range(5):
        cohort = generate(CohortSpec(seed=seed))
        t0 = time.perf_counter()
        results, _ = sweep(cohort, SWEEP_RATIOS, model_kind="gbm", seed=seed)
        gbm_elapsed += time.perf_counter() - t0
        gbm_reports.append([result.row() for result in results])
        benchmark = cv_evaluate(
            cohort, "logistic", SmoteConfig(ratio=ORIGINAL),
            TrainConfig(), n_folds=5, seed=seed,
        )
        logistic_sens.append(sensitivity(benchmark.confusion))
    return gbm_reports, logistic_sens, gbm_elapsed


@criterion(5, "sweep trend: sensitivity rises, AUC nearly flat")
def test_criterion_5_trend(trend_runs):
    gbm_reports, _, gbm_elapsed = trend_runs
    labels = [row["ratio"] for row in gbm_reports[0]]
    sens = {label: [] for label in labels}
    aucs = {label: [] for label in labels}
    for rows in gbm_reports:
        for row in rows:
            sens[row["ratio"]].append(row["sensitivity"])
            aucs[row["ratio"]].append(row["auc"])

    median_sens = {k: float(np.median(v)) for k, v in sens.items()}
    median_auc = {k: float(np.median(v)) for k, v in aucs.items()}
    assert median_sens["1.0"] > median_sens["original"]
    auc_spread = max(median_auc.values()) - min(median_auc.values())
    assert auc_spread < 0.08, f"median AUC spread {auc_spread:.3f}"
    assert gbm_elapsed < 600.0, f"criterion 5 sweeps took {gbm_elapsed:.0f}s"


@criterion(6, "boosted model with oversampling beats logistic benchmark")
def test_criterion_6_benchmark_gap(trend_runs):
    gbm_reports, logistic_sens, _ = trend_runs
    gbm_balanced = [
        next(row["sensitivity"] for row in rows if row["ratio"] == "1.0")
        for rows in gbm_reports
    ]
    assert float(np.median(gbm_balanced)) > float(np.median(logistic_sens))


@criterion(7, "linkage golden file, byte for byte")
def test_criterion_7_linkage_golden(tmp_path):
    result = unify(
        read_demographics(LINKAGE_SMALL / "demographics.csv"),
        read_exits(LINKAGE_SMALL / "exits.csv"),
        read_incidents(LINKAGE_SMALL / "incidents.csv"),
    )
    out = tmp_path / "profiles.csv"
    write_profiles(result.profiles, out)
    golden = (LINKAGE_SMALL / "profiles_golden.csv").read_bytes()
    assert out.read_bytes() == golden

    assert len(result.profiles) == 20
    assert result.removed_not_admitted == 5
    multi = [p for p in result.profiles if p.readmit == 1]
    assert multi, "fixture must contain a multi-entry client"
    triple = next(p for p in result.profiles if len(p.episodes) == 3)
    assert triple.total_los_days == sum(
        ep.duration_days for ep in triple.episodes
    )


@criterion(8, "round trip and command determinism")
def test_criterion_8_round_trip_and_determinism(tmp_path, capsys):
    # Raw-file round trip on the full default cohort.
    cohort = generate(CohortSpec())
    raw_dir = tmp_path / "raw"
    emit_raw_files(cohort, raw_dir)
    rebuilt = unify(
        read_demographics(raw_dir / "demographics.csv"),
        read_exits(raw_dir / "exits.csv"),
        read_incidents(raw_dir / "incidents.csv"),
    )
    assert rebuilt.profiles == cohort

    # Every command, re-run with the same seed, is byte-identical.
    def snapshot(path):
        return {
            str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()
        }

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n": 300, "seed": 13}))

    runs = {}
    for tag in ("one", "two"):
        base = tmp_path / tag
        data = base / "data"
        assert main(["synth", "--spec", str(spec_path), "--seed", "5",
                     "-o", str(data)]) == 0
        profiles = base / "profiles.csv"
        assert main(["unify", str(data / "demographics.csv"),
                     str(data / "exits.csv"), str(data / "incidents.csv"),
                     "-o", str(profiles)]) == 0
        assert main(["sweep", "--profiles", str(profiles),
                     "--ratios", "original,0.5,1.0", "--model", "gbm",
                     "--n-trees", "15", "--folds", "2", "--seed", "5",
                     "-o", str(base / "sweep")]) == 0
        assert main(["train", "--profiles", str(profiles),
                     "--model", "gbm", "--n-trees", "15", "--ratio", "1.0",
                     "--seed", "5", "-o", str(base / "fit")]) == 0
        capsys.readouterr()
        assert main(["report",
                     "--report", str(base / "sweep" / "report.json")]) == 0
        report_text = capsys.readouterr().out
        runs[tag] = (snapshot(base), report_text)

    snap_one, report_one = runs["one"]
    snap_two, report_two = runs["two"]
    assert report_one == report_two
    assert set(snap_one) == set(snap_two)
    for name in snap_one:
        assert snap_one[name] == snap_two[name], f"{name} differs"
