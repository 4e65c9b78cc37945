from __future__ import annotations

import csv
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from readmit.errors import (
    EmptyAfterFiltering,
    EmptyMatrix,
    LengthMismatch,
    MissingAge,
    NoPositives,
    SingleClass,
)
import readmit
from readmit import models
from readmit.evaluate import (
    ConfusionMatrix,
    RocCurve,
    accuracy,
    auc,
    confusion,
    cv_evaluate,
    fit_model,
    ratio_label,
    roc_curve,
    sensitivity,
    sweep,
    write_roc_csv,
)
from readmit.features import FeatureSchema, encode, standardize
from readmit.models import GbmParams, TrainConfig, fit_gbm, predict_proba_gbm
from readmit.resample import ORIGINAL, SmoteConfig, smote, stratified_folds
from readmit.seeding import derive_seed
from readmit.synthgen import CohortSpec, generate

from tests.helpers import make_profile
from tests.oracles.rates import auc_pairwise, roc_points_bruteforce


def random_scores(n, seed, ties=False):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    scores = rng.random(n)
    if ties:
        scores = np.round(scores, 1)
    return labels, scores


class TestConfusion:
    def test_perfect_case(self):
        cm = confusion([1, 0], [0.9, 0.1])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (1, 1, 0, 0)

    def test_threshold_boundary_is_positive(self):
        cm = confusion([1, 0, 1], [0.5, 0.5, 0.5])
        assert cm.tp == 2
        assert cm.fp == 1
        assert cm.fn == 0
        assert cm.tn == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([1, 0], [0.5])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fn=0, fp=0, tn=0)

    def test_invariant_under_row_permutation(self):
        rng = np.random.default_rng(31)
        labels = rng.integers(0, 2, 80)
        probs = rng.random(80)
        perm = rng.permutation(80)
        assert confusion(labels[perm], probs[perm]) == confusion(labels, probs)


class TestRates:
    def test_reference_balanced_column(self):
        cm = ConfusionMatrix(tp=588, fn=701, fp=1037, tn=4453)
        assert sensitivity(cm) == pytest.approx(0.456, abs=1e-3)

    def test_reference_original_column(self):
        cm = ConfusionMatrix(tp=128, fn=1161, fp=14, tn=5476)
        assert sensitivity(cm) == pytest.approx(0.099, abs=1e-3)
        assert accuracy(cm) == pytest.approx(0.83, abs=5e-3)

    def test_zero_sensitivity(self):
        assert sensitivity(ConfusionMatrix(tp=0, fn=5, fp=0, tn=0)) == 0.0

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            sensitivity(ConfusionMatrix(tp=0, fn=0, fp=1, tn=1))

    def test_perfect_accuracy(self):
        assert accuracy(ConfusionMatrix(tp=1, fn=0, fp=0, tn=1)) == 1.0

    def test_count_derived_accuracy_differs_from_rounded_report(self):
        # The balanced-ratio column: counts give 0.7436, far from 0.79.
        cm = ConfusionMatrix(tp=588, fn=701, fp=1037, tn=4453)
        assert accuracy(cm) == pytest.approx(0.7436, abs=1e-4)
        assert abs(accuracy(cm) - 0.79) > 0.04

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrix):
            accuracy(ConfusionMatrix(tp=0, fn=0, fp=0, tn=0))


class TestRocCurve:
    def test_perfect_ranking_passes_corner(self):
        curve = roc_curve([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert (0.0, 1.0) in {(f, t) for f, t, _ in curve.points}
        assert auc(curve) == 1.0

    def test_all_scores_equal_gives_diagonal(self):
        curve = roc_curve([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])
        assert len(curve.points) == 2
        assert curve.points[0][:2] == (0.0, 0.0)
        assert curve.points[1][:2] == (1.0, 1.0)
        assert auc(curve) == 0.5

    def test_endpoints_and_monotonicity(self):
        for seed in range(10):
            labels, scores = random_scores(80, seed, ties=(seed % 2 == 0))
            curve = roc_curve(labels, scores)
            assert curve.points[0][:2] == (0.0, 0.0)
            assert curve.points[-1][:2] == (1.0, 1.0)
            assert np.all(np.diff(curve.fpr) >= 0)
            assert np.all(np.diff(curve.tpr) >= 0)

    def test_matches_bruteforce_recount_exactly(self):
        for seed in range(10):
            labels, scores = random_scores(100, seed + 50,
                                           ties=(seed % 2 == 0))
            curve = roc_curve(labels, scores)
            assert curve.points == roc_points_bruteforce(labels, scores)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            roc_curve([1, 1], [0.2, 0.8])

    def test_csv_output(self, tmp_path):
        curve = roc_curve([0, 1], [0.2, 0.8])
        path = tmp_path / "roc.csv"
        write_roc_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "fpr,tpr,threshold"
        assert lines[1] == "0.0,0.0,inf"

    @staticmethod
    def write_with_csv_writer(curve: RocCurve, path) -> None:
        """The former writer: csv.writer over repr(float(x)) cells."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["fpr", "tpr", "threshold"])
            for f, t, thr in curve.points:
                writer.writerow([repr(float(f)), repr(float(t)),
                                 repr(float(thr))])

    @pytest.mark.parametrize("case", ["ties", "tenths", "subnormal",
                                      "numpy-floats"])
    def test_csv_bytes_equal_the_csv_writer(self, tmp_path, case):
        labels, scores = random_scores(400, 7, ties=True)
        curve = {
            "ties": lambda: roc_curve(labels, scores),
            "tenths": lambda: roc_curve(
                [0, 1] * 10, [round(0.1 * (i % 10), 1) for i in range(20)]),
            "subnormal": lambda: roc_curve(
                [0, 1, 0, 1, 1], [5e-324, 1e-310, 2.5e-301, 1e-300, 0.0]),
            "numpy-floats": lambda: RocCurve(
                fpr=tuple(np.array([0.0, 0.1, 1 / 3, 1.0])),
                tpr=tuple(np.array([0.0, 0.7, 0.9, 1.0])),
                thresholds=tuple(np.array([np.inf, 0.3, 1e-320, -0.0]))),
        }[case]()
        assert curve.thresholds[0] == np.inf
        written, expected = tmp_path / "roc.csv", tmp_path / "expected.csv"
        write_roc_csv(curve, written)
        self.write_with_csv_writer(curve, expected)
        assert written.read_bytes() == expected.read_bytes()


class TestAuc:
    def test_matches_pairwise_oracle(self):
        for seed in range(30):
            labels, scores = random_scores(60 + seed, seed,
                                           ties=(seed % 3 == 0))
            value = auc(roc_curve(labels, scores))
            assert value == pytest.approx(auc_pairwise(labels, scores),
                                          abs=1e-9)

    def test_invariant_under_monotone_transform(self):
        labels, scores = random_scores(200, 7)
        curve_raw = roc_curve(labels, scores)
        curve_cubed = roc_curve(labels, scores**3)
        assert auc(curve_raw) == auc(curve_cubed)

    def test_bounds(self):
        labels, scores = random_scores(50, 3)
        assert 0.0 <= auc(roc_curve(labels, scores)) <= 1.0


class TestCvEvaluate:
    def ten_profiles(self):
        return [
            make_profile(pid=f"P{i:02d}", age=float(20 + i),
                         race=i % 4, n_episodes=1 + (i % 2))
            for i in range(10)
        ]

    def test_partition_covers_every_row_once(self):
        result = cv_evaluate(
            self.ten_profiles(), "logistic",
            SmoteConfig(ratio=ORIGINAL), TrainConfig(),
            n_folds=2, seed=0,
        )
        assert result.confusion.total == 10
        assert sum(t.n_test for t in result.traces) == 10

    def test_deterministic(self):
        profiles = self.ten_profiles()
        a = cv_evaluate(profiles, "logistic", SmoteConfig(ratio=ORIGINAL),
                        TrainConfig(), n_folds=2, seed=5)
        b = cv_evaluate(profiles, "logistic", SmoteConfig(ratio=ORIGINAL),
                        TrainConfig(), n_folds=2, seed=5)
        assert np.array_equal(a.pooled_scores, b.pooled_scores)
        assert a.confusion == b.confusion
        assert a.auc == b.auc

    def test_pooled_counts_cover_cohort(self):
        profiles = generate(CohortSpec(minority_rate=1289 / 6779))
        result = cv_evaluate(
            profiles, "logistic", SmoteConfig(ratio=ORIGINAL),
            TrainConfig(), n_folds=5, seed=1,
        )
        cm = result.confusion
        assert cm.tp + cm.fn == 1289
        assert cm.fp + cm.tn == 5490
        assert cm.total == 6779

    def test_unknown_model_kind(self):
        with pytest.raises(ValueError):
            cv_evaluate(self.ten_profiles(), "svm",
                        SmoteConfig(ratio=ORIGINAL), TrainConfig())

    def test_income_mode_drops_rows_without_income(self):
        profiles = [
            make_profile(pid=f"P{i:02d}", age=float(20 + i), race=i % 4,
                         income=None if i % 4 == 3 else 1000.0 + 50 * i,
                         n_episodes=1 + (i % 2))
            for i in range(16)
        ]
        kept = [p for p in profiles if p.income is not None]
        result = cv_evaluate(profiles, "logistic",
                             SmoteConfig(ratio=ORIGINAL), TrainConfig(),
                             n_folds=2, seed=0, include_income=True)
        assert result.confusion.total == len(kept) == 12
        assert result.labels.tolist() == [p.readmit for p in kept]
        prefiltered = cv_evaluate(kept, "logistic",
                                  SmoteConfig(ratio=ORIGINAL), TrainConfig(),
                                  n_folds=2, seed=0, include_income=True)
        assert np.array_equal(result.pooled_scores, prefiltered.pooled_scores)

    def test_income_mode_with_no_income_raises(self):
        with pytest.raises(EmptyAfterFiltering):
            cv_evaluate(self.ten_profiles(), "logistic",
                        SmoteConfig(ratio=ORIGINAL), TrainConfig(),
                        include_income=True)

    def test_income_mode_runs_on_filtered_profiles(self):
        profiles = [
            make_profile(pid=f"P{i:02d}", age=float(20 + i), race=i % 4,
                         income=1000.0 + 50 * i, n_episodes=1 + (i % 2))
            for i in range(12)
        ]
        result = cv_evaluate(profiles, "logistic",
                             SmoteConfig(ratio=ORIGINAL), TrainConfig(),
                             n_folds=2, seed=0, include_income=True)
        assert result.confusion.total == 12


class TestSweep:
    def small_profiles(self):
        rng = np.random.default_rng(17)
        return [
            make_profile(
                pid=f"P{i:03d}",
                age=float(rng.integers(18, 70)),
                race=int(rng.integers(0, 4)),
                employment=int(rng.integers(0, 3)),
                n_episodes=1 + int(rng.random() < 0.3),
            )
            for i in range(120)
        ]

    def test_single_ratio_single_row(self):
        results, _ = sweep(self.small_profiles(), [ORIGINAL],
                           model_kind="logistic", n_folds=2, seed=3)
        assert len(results) == 1
        assert results[0].ratio == "original"
        assert results[0].row()["ratio"] == "original"

    def test_row_keys_exact(self):
        results, _ = sweep(self.small_profiles(), [ORIGINAL, 0.5],
                           model_kind="logistic", n_folds=2, seed=3)
        for result in results:
            assert list(result.row().keys()) == [
                "ratio", "accuracy", "tp", "fn", "fp", "tn", "auc",
                "sensitivity",
            ]

    def test_rows_ordered_as_given_with_curves(self):
        ratios = [0.5, ORIGINAL, 1.0]
        results, _ = sweep(self.small_profiles(), ratios,
                           model_kind="gbm",
                           train_config=TrainConfig(gbm=GbmParams(n_trees=5)),
                           n_folds=2, seed=3)
        assert [r.row()["ratio"] for r in results] == [
            "0.5", "original", "1.0"]
        for result in results:
            assert result.curve == roc_curve(result.labels,
                                             result.pooled_scores)

    def test_row_identities(self):
        results, _ = sweep(self.small_profiles(), [ORIGINAL, 1.0],
                           model_kind="logistic", n_folds=2, seed=9)
        n = len(self.small_profiles())
        for result in results:
            row = result.row()
            assert row["tp"] + row["fn"] + row["fp"] + row["tn"] == n
            assert row["sensitivity"] == pytest.approx(
                row["tp"] / (row["tp"] + row["fn"]), abs=1e-9
            )
            assert row["accuracy"] == pytest.approx(
                (row["tp"] + row["tn"]) / n, abs=1e-9
            )

    def test_income_mode_reports_dropped_rows(self):
        profiles = [
            make_profile(pid=f"P{i:03d}", age=float(20 + i % 40),
                         race=i % 4, income=None if i % 5 == 0 else 900.0 + i,
                         n_episodes=1 + (i % 3 == 0))
            for i in range(60)
        ]
        results, dropped = sweep(profiles, [ORIGINAL], model_kind="logistic",
                                 n_folds=2, seed=3, include_income=True)
        assert dropped == 12
        row = results[0].row()
        assert row["tp"] + row["fn"] + row["fp"] + row["tn"] == 48
        assert sweep(profiles, [ORIGINAL], model_kind="logistic", n_folds=2,
                     seed=3)[1] == 0

    def test_empty_ratiolist_rejected(self):
        with pytest.raises(ValueError):
            sweep(self.small_profiles(), [])

    def test_ratio_labels(self):
        assert ratio_label(ORIGINAL) == "original"
        assert ratio_label(0.3) == "0.3"
        assert ratio_label(1.0) == "1.0"


class TestPipeline:
    """fit_model imputes missing ages from its training rows alone, and
    the Pipeline it returns carries that median to held-out rows."""

    def profiles(self, ages, start=0):
        return [make_profile(pid=f"P{start + i:03d}", age=age, race=i % 4,
                             n_episodes=1 + i % 2)
                for i, age in enumerate(ages)]

    def fit(self, profiles, model_kind="logistic", ratio=ORIGINAL):
        return fit_model(encode(profiles, FeatureSchema()).dataset,
                         model_kind, SmoteConfig(ratio=ratio, k=2),
                         TrainConfig(gbm=GbmParams(n_trees=4)))

    def test_age_median_from_training_rows_only(self):
        train = self.profiles([20.0, None, 30.0, 50.0, None, 70.0, 60.0, 25.0])
        held_out = self.profiles([90.0, 95.0, 99.0], start=8)
        pipeline = self.fit(train)
        assert pipeline.stats.fill[0] == 40.0  # of 20, 25, 30, 50, 60, 70
        all_known = [p.age for p in train + held_out if p.age is not None]
        assert float(np.median(all_known)) != 40.0
        # The column statistics see the imputed training ages.
        imputed = [20.0, 40.0, 30.0, 50.0, 40.0, 70.0, 60.0, 25.0]
        assert pipeline.stats.mean[0] == np.mean(imputed)
        assert pipeline.stats.scale[0] == np.std(imputed, ddof=1)

    @pytest.mark.parametrize("model_kind", ["logistic", "gbm"])
    def test_held_out_missing_ages_take_training_median(self, model_kind):
        pipeline = self.fit(
            self.profiles([20.0, None, 30.0, 50.0, 44.0, 70.0, 60.0, 25.0]),
            model_kind)
        held_out = [make_profile(pid="A", age=None),
                    make_profile(pid="B", age=pipeline.stats.fill[0]),
                    make_profile(pid="C", age=80.0)]
        scores = pipeline.predict(encode(held_out, FeatureSchema()).dataset)
        assert scores[0] == scores[1]
        assert np.all(np.isfinite(scores))

    def test_no_training_age_raises(self):
        with pytest.raises(MissingAge):
            self.fit(self.profiles([None] * 6))

    @pytest.mark.parametrize("model_kind", ["logistic", "gbm"])
    def test_fit_does_not_load_numpy_ma(self, model_kind):
        """The median and the two-class check load no numpy.ma, which
        would cost every train and sweep worker its import."""
        script = (
            "import sys\n"
            "from readmit.evaluate import fit_model\n"
            "from readmit.features import FeatureSchema, encode\n"
            "from readmit.models import GbmParams, TrainConfig\n"
            "from readmit.resample import SmoteConfig\n"
            "from readmit.synthgen import CohortSpec, generate\n"
            "data = encode(generate(CohortSpec(n=200, seed=3)),"
            " FeatureSchema()).dataset\n"
            f"fit_model(data, {model_kind!r}, SmoteConfig(ratio=1.0),"
            " TrainConfig(gbm=GbmParams(n_trees=2)))\n"
            "print('numpy.ma' in sys.modules)\n")
        src = str(Path(readmit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    @pytest.mark.parametrize("model_kind", ["logistic", "gbm"])
    def test_no_missing_values_ever(self, model_kind, monkeypatch):
        seen = []
        fit_name = f"fit_{model_kind}"
        predict_name = f"predict_proba_{model_kind}"
        real_fit = getattr(models, fit_name)
        real_predict = getattr(models, predict_name)

        def fit(data, config):
            seen.append(data.matrix)
            return real_fit(data, config)

        def predict(model, rows):
            seen.append(rows)
            return real_predict(model, rows)

        monkeypatch.setattr(models, fit_name, fit)
        monkeypatch.setattr(models, predict_name, predict)
        rng = np.random.default_rng(5)
        ages = [None if rng.random() < 0.3 else float(rng.integers(18, 80))
                for _ in range(60)]
        pipeline = self.fit(self.profiles(ages[:50]), model_kind, ratio=1.0)
        pipeline.predict(
            encode(self.profiles(ages[50:], start=50),
                   FeatureSchema()).dataset)
        assert len(seen) == 2
        assert all(np.all(np.isfinite(m)) for m in seen)


class TestFoldAgeImputation:
    """Each fold imputes missing ages with its own training rows' median.

    The reference takes np.median of each fold's known training ages,
    writes it into that fold's ageless profiles, encodes the fold's
    training and held-out rows, then standardizes, oversamples and fits
    exactly as a fold does.
    """

    SEED = 21
    N_FOLDS = 3
    SMOTE = SmoteConfig(ratio=1.0, k=3)
    CONFIG = TrainConfig(gbm=GbmParams(n_trees=8))

    def cohort(self):
        # Seed 2 gives three fold medians apart from the cohort's.
        rng = np.random.default_rng(2)
        return [
            make_profile(
                pid=f"P{i:03d}",
                age=None if rng.random() < 0.3
                else round(float(rng.uniform(18, 80)), 1),
                race=int(rng.integers(0, 4)),
                employment=int(rng.integers(0, 3)),
                n_episodes=1 + int(rng.random() < 0.35),
            )
            for i in range(90)
        ]

    def plan(self, profiles):
        labels = [p.readmit for p in profiles]
        return stratified_folds(labels, self.N_FOLDS,
                                derive_seed(self.SEED, "folds"))

    @staticmethod
    def median_age(profiles):
        return float(np.median([p.age for p in profiles if p.age is not None]))

    def reference_scores(self, profiles):
        schema = FeatureSchema()
        plan = self.plan(profiles)
        pooled = np.empty(len(profiles))
        medians = []
        for fold in range(self.N_FOLDS):
            train_idx = plan.train_indices(fold)
            test_idx = plan.test_indices(fold)
            median = self.median_age([profiles[i] for i in train_idx])

            def imputed(idx):
                return encode([replace(profiles[i], age=median)
                               if profiles[i].age is None else profiles[i]
                               for i in idx], schema).dataset

            std_train, stats = standardize(imputed(train_idx))
            std_test, _ = standardize(imputed(test_idx), stats)
            train_final = smote(std_train, replace(
                self.SMOTE, seed=derive_seed(self.SEED, "smote", fold)))
            model = fit_gbm(train_final, self.CONFIG)
            pooled[test_idx] = predict_proba_gbm(model, std_test.matrix)
            medians.append(median)
        return pooled, medians

    def test_pooled_scores_match_per_fold_encoding(self):
        profiles = self.cohort()
        expected, medians = self.reference_scores(profiles)
        cohort_median = self.median_age(profiles)
        assert all(m != cohort_median for m in medians)
        assert len(set(medians)) == self.N_FOLDS

        result = cv_evaluate(profiles, "gbm", self.SMOTE, self.CONFIG,
                             n_folds=self.N_FOLDS, seed=self.SEED)
        assert np.array_equal(result.pooled_scores, expected)

    def test_fold_without_training_ages_raises(self):
        profiles = self.cohort()
        # Every age is gone but those fold 1 holds out, so fold 1's
        # training rows have none; the other folds train on fold 1's rows.
        ageless = set(self.plan(profiles).train_indices(1).tolist())
        profiles = [replace(p, age=None) if i in ageless else p
                    for i, p in enumerate(profiles)]
        with pytest.raises(MissingAge):
            cv_evaluate(profiles, "gbm", self.SMOTE, self.CONFIG,
                        n_folds=self.N_FOLDS, seed=self.SEED)
