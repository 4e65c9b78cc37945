from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from readmit import models, synthgen
from readmit.errors import SingleClass, WidthMismatch
from readmit.features import (CATEGORIES, EncodedDataset, FeatureSchema,
                              encode, standardize)
from readmit.models import (
    GbmModel,
    GbmParams,
    LogisticParams,
    TrainConfig,
    fit_gbm,
    fit_logistic,
    load_model,
    log_loss,
    logistic_nll_grad,
    predict_proba_gbm,
    predict_proba_logistic,
    save_model,
    sigmoid,
)

from readmit.resample import SmoteConfig, smote

from tests.oracles.gbm_exact import _grow_tree as grow_exact
from tests.oracles.gbm_exact import fit_gbm_exact
from tests.oracles.logistic_gd import fit_logistic_gd
from tests.oracles.logistic_irls import fit_logistic_irls
from tests.oracles.stump import best_stump, stump_leaf_values
from tests.helpers import make_profile


def dataset_from(x, y):
    return EncodedDataset(
        matrix=np.asarray(x, dtype=np.float64),
        labels=np.asarray(y, dtype=np.int64),
        schema=FeatureSchema(),
    )


def logistic_like_dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = (rng.random(n) < sigmoid(x @ w)).astype(np.int64)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return dataset_from(x, y)


class TestLogistic:
    def test_separable_two_points(self):
        data = dataset_from([[1.0], [-1.0]], [1, 0])
        model = fit_logistic(data, TrainConfig())
        assert model.weights[0] > 0
        p = predict_proba_logistic(model, np.array([[1.0]]))
        assert p[0] > 0.99

    def test_single_class_rejected(self):
        data = dataset_from([[0.0], [1.0]], [0, 0])
        with pytest.raises(SingleClass):
            fit_logistic(data, TrainConfig())

    def test_matches_gradient_descent_oracle(self):
        data = logistic_like_dataset(50, 4, seed=12)
        config = TrainConfig()
        model = fit_logistic(data, config)
        oracle_b, oracle_w = fit_logistic_gd(
            data.matrix, data.labels.astype(float), config.logistic.ridge
        )
        assert abs(model.intercept - oracle_b) < 1e-6
        assert np.max(np.abs(model.weights - oracle_w)) < 1e-6

    def test_probabilities_match_oracle(self):
        data = logistic_like_dataset(50, 4, seed=12)
        config = TrainConfig()
        model = fit_logistic(data, config)
        oracle_b, oracle_w = fit_logistic_gd(
            data.matrix, data.labels.astype(float), config.logistic.ridge
        )
        z = oracle_b + data.matrix @ oracle_w
        oracle_p = 1.0 / (1.0 + np.exp(-z))
        assert np.max(np.abs(
            predict_proba_logistic(model, data.matrix) - oracle_p
        )) < 1e-9

    def test_gradient_small_at_convergence(self):
        for seed in range(5):
            data = logistic_like_dataset(80, 5, seed=seed)
            config = TrainConfig()
            model = fit_logistic(data, config)
            assert model.converged
            n = data.n_rows
            x_aug = np.hstack([np.ones((n, 1)), data.matrix])
            beta = np.concatenate([[model.intercept], model.weights])
            _, grad, _ = logistic_nll_grad(
                beta, x_aug, data.labels.astype(float), config.logistic.ridge
            )
            assert np.max(np.abs(grad)) < 1e-6

    def test_fit_no_worse_than_zero_model(self):
        for seed in range(5):
            data = logistic_like_dataset(60, 4, seed=100 + seed)
            model = fit_logistic(data, TrainConfig())
            fitted = log_loss(data.labels,
                              predict_proba_logistic(model, data.matrix))
            baseline = log_loss(data.labels, np.full(data.n_rows, 0.5))
            assert fitted <= baseline + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            data = logistic_like_dataset(30, 3, seed=200 + seed)
            n = data.n_rows
            x_aug = np.hstack([np.ones((n, 1)), data.matrix])
            y = data.labels.astype(float)
            beta = rng.normal(size=4)
            _, grad, _ = logistic_nll_grad(beta, x_aug, y, ridge=1e-3)
            eps = 1e-6
            for j in range(len(beta)):
                bump = np.zeros_like(beta)
                bump[j] = eps
                lo, _, _ = logistic_nll_grad(beta - bump, x_aug, y, ridge=1e-3)
                hi, _, _ = logistic_nll_grad(beta + bump, x_aug, y, ridge=1e-3)
                assert abs((hi - lo) / (2 * eps) - grad[j]) < 1e-5

    def test_zero_model_probability(self):
        model = fit_logistic(dataset_from([[1.0], [-1.0]], [1, 0]),
                             TrainConfig())
        model.weights[:] = 0.0
        model.intercept = 0.0
        assert predict_proba_logistic(model, np.array([[3.0]]))[0] == 0.5

    def test_sigmoid_saturation(self):
        model = fit_logistic(dataset_from([[1.0], [-1.0]], [1, 0]),
                             TrainConfig())
        model.weights[:] = 0.0
        model.intercept = 20.0
        assert predict_proba_logistic(model, np.array([[0.0]]))[0] > 0.999

    def test_width_mismatch(self):
        data = logistic_like_dataset(20, 3, seed=1)
        model = fit_logistic(data, TrainConfig())
        with pytest.raises(WidthMismatch):
            predict_proba_logistic(model, np.zeros((2, 5)))

    def test_deterministic(self):
        data = logistic_like_dataset(60, 4, seed=77)
        a = fit_logistic(data, TrainConfig())
        b = fit_logistic(data, TrainConfig())
        assert a.intercept == b.intercept
        assert np.array_equal(a.weights, b.weights)


def cauchy_dataset(seed):
    """10 rows of heavy-tailed features: separable, and for the seeds
    below some Newton steps raise the objective, so IRLS halves them."""
    x = np.random.default_rng(seed).standard_cauchy((10, 4))
    return dataset_from(x, np.arange(10) % 2)


def separable_dataset(seed):
    data = logistic_like_dataset(60, 3, seed)
    return dataset_from(data.matrix, data.matrix[:, 0] > 0)


def reference_coded_oracle_fit(data, config, groups):
    """fit_logistic_irls without each group's first column, its weights
    put back at full width (0 at those columns) and centred per group,
    the group's mean weight moved to the intercept."""
    d = data.matrix.shape[1]
    kept = np.delete(np.arange(d), [g.start for g in groups])
    # In C order, as fit_logistic's x_aug: a column-gathered matrix is in
    # F order, and the BLAS products' rounding depends on the layout.
    reduced = np.ascontiguousarray(data.matrix[:, kept])
    fit = fit_logistic_irls(dataclasses.replace(data, matrix=reduced), config)
    weights = np.zeros(d)
    weights[kept] = fit.weights
    intercept = fit.intercept
    for g in groups:
        mean = weights[g].mean()
        weights[g] -= mean
        intercept += mean
    return dataclasses.replace(fit, weights=weights, intercept=intercept)


class TestReferenceGroups:
    def test_other_widths_are_not_reduced(self):
        x = np.zeros((4, 21))
        x[:, 1] = x[:, 5] = x[:, 8] = x[:, 13] = x[:, 16] = 1.0
        assert models.reference_groups(x, FeatureSchema()) == []
        assert models.reference_groups(x[:, :8], FeatureSchema()) == []

    def test_a_group_off_one_on_any_row_is_not_reduced(self):
        x = np.zeros((4, 20))
        x[:, 1] = x[:, 5] = x[:, 8] = x[:, 13] = x[:, 16] = 1.0
        x[2, 8] = 1.0 - 2.0 ** -52
        groups = FeatureSchema().one_hot_groups
        assert (models.reference_groups(x, FeatureSchema())
                == [g for g in groups if g.start != 8])

    def test_random_matrix_of_schema_width_is_fitted_unreduced(self):
        """Without a reduced group, fit_logistic is the oracle's fit."""
        data = logistic_like_dataset(200, 20, seed=3)
        assert models.reference_groups(data.matrix, data.schema) == []
        got = fit_logistic(data, TrainConfig())
        want = fit_logistic_irls(data, TrainConfig())
        assert (np.r_[got.intercept, got.weights].tobytes()
                == np.r_[want.intercept, want.weights].tobytes())

    def test_centred_weights_match_the_full_design_fit(self):
        """Centring gives the weights of the full one-hot design's ridge
        optimum, not just its probabilities. The two penalties differ by
        O(ridge), so agreement is to that order."""
        rng = np.random.default_rng(4)
        codes = [rng.integers(len(CATEGORIES[f]), size=600)
                 for f in CATEGORIES]
        profiles = [make_profile(age=float(a), race=int(codes[0][i]),
                                 family_type=int(codes[1][i]),
                                 reason_homeless=int(codes[2][i]),
                                 employment=int(codes[3][i]),
                                 citizenship=int(codes[4][i]))
                    for i, a in enumerate(rng.integers(18, 70, size=600))]
        data = standardize(encode(profiles, FeatureSchema()).dataset)[0]
        data.labels[:] = rng.random(600) < sigmoid(
            data.matrix[:, 0] + data.matrix[:, 2] - data.matrix[:, 9])
        config = TrainConfig(logistic=LogisticParams(ridge=1e-3))
        got = fit_logistic(data, config)
        intercept, weights = fit_logistic_gd(
            data.matrix, data.labels.astype(np.float64), 1e-3)
        assert got.converged
        assert abs(got.intercept - intercept) < 1e-4
        assert np.max(np.abs(got.weights - weights)) < 1e-3
        assert np.max(np.abs(predict_proba_logistic(got, data.matrix)
                             - sigmoid(intercept + data.matrix @ weights))
                      ) < 1e-4


class TestLogisticMatchesIrlsOracle:
    """fit_logistic evaluates each step-halving candidate at one site;
    tests/oracles/logistic_irls.py is the former two-site loop. Fits and
    the number of objective evaluations must be equal."""

    def assert_same_fit(self, monkeypatch, data, config=TrainConfig(),
                        penalty=0.0, groups=()):
        """Fit both ways, counting objective evaluations; candidates
        (any non-zero beta) score ``penalty`` worse. The oracle fits
        ``groups`` reference-coded. Returns the number of halving
        evaluations fit_logistic made."""
        real = models.logistic_nll_grad
        calls = []

        def nll_grad(beta, x_aug, y, ridge):
            calls.append(1)
            nll, grad, p = real(beta, x_aug, y, ridge)
            return nll + (penalty if beta.any() else 0.0), grad, p

        monkeypatch.setattr(models, "logistic_nll_grad", nll_grad)
        got = fit_logistic(data, config)
        n_got = len(calls)
        calls.clear()
        want = reference_coded_oracle_fit(data, config, groups)
        assert (np.r_[got.intercept, got.weights].tobytes()
                == np.r_[want.intercept, want.weights].tobytes())
        assert (got.n_iter, got.converged) == (want.n_iter, want.converged)
        assert n_got == len(calls)
        return n_got - 1 - got.n_iter

    @pytest.mark.parametrize("seed", [21, 22, 43, 48, 228, 331, 358])
    def test_halving_steps(self, monkeypatch, seed):
        assert self.assert_same_fit(monkeypatch, cauchy_dataset(seed)) > 0

    @pytest.mark.parametrize("ridge", [0.0, 1e-6])
    def test_separable(self, monkeypatch, ridge):
        config = TrainConfig(logistic=LogisticParams(ridge=ridge))
        self.assert_same_fit(monkeypatch,
                             dataset_from([[1.0], [-1.0]], [1, 0]), config)
        for seed in range(3):
            self.assert_same_fit(monkeypatch, separable_dataset(seed), config)

    def test_oversampled_one_hot_design(self, monkeypatch,
                                        ratio_one_training_set):
        """Every one-hot group is reference-coded: the fit converges in
        a few steps and each group's weights sum to zero."""
        data = ratio_one_training_set
        groups = FeatureSchema().one_hot_groups
        assert models.reference_groups(data.matrix, data.schema) == groups
        self.assert_same_fit(monkeypatch, data, groups=groups)
        model = fit_logistic(data, TrainConfig())
        assert model.converged and model.n_iter <= 10
        for g in groups:
            assert abs(model.weights[g].sum()) <= 1e-12

    def test_keeps_last_candidate_when_none_is_accepted(self, monkeypatch):
        """Every candidate of the first step is rejected: 61 of them are
        evaluated and the one at step 2**-60 is kept."""
        data = logistic_like_dataset(50, 4, seed=12)
        halvings = self.assert_same_fit(monkeypatch, data, penalty=1e6)
        assert fit_logistic(data, TrainConfig()).n_iter == 1
        assert halvings == 60


class TestGbmStump:
    def stump_config(self):
        return TrainConfig(gbm=GbmParams(n_trees=1, max_depth=1))

    def test_matches_exhaustive_oracle(self):
        for seed in range(10):
            data = logistic_like_dataset(40, 4, seed=300 + seed)
            model = fit_gbm(data, self.stump_config())
            tree = model.trees[0]

            prevalence = data.labels.mean()
            residual = data.labels.astype(float) - prevalence
            oracle = best_stump(data.matrix, residual)
            assert oracle is not None
            column, threshold, _gain = oracle
            assert tree.feature[0] == column
            assert tree.threshold[0] == pytest.approx(threshold, abs=1e-12)
            left_value, right_value = stump_leaf_values(
                data.matrix, data.labels.astype(float), prevalence,
                column, threshold,
            )
            assert tree.value[tree.left[0]] == pytest.approx(left_value, abs=1e-9)
            assert tree.value[tree.right[0]] == pytest.approx(right_value, abs=1e-9)

    def test_single_stump_hand_computed_probability(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        data = dataset_from(x, y)
        model = fit_gbm(data, self.stump_config())

        # prevalence 0.5: base = 0, residuals +/-0.5, split at 1.5,
        # leaves sum(r)/sum(h) = -1.0/0.5 = -2 and +2, shrinkage 0.1.
        assert model.base_score == 0.0
        tree = model.trees[0]
        assert tree.threshold[0] == 1.5
        assert tree.value[tree.left[0]] == pytest.approx(-2.0)
        assert tree.value[tree.right[0]] == pytest.approx(2.0)
        probs = predict_proba_gbm(model, x)
        expected_low = 1.0 / (1.0 + np.exp(0.2))
        assert probs[0] == pytest.approx(expected_low, abs=1e-12)
        assert probs[3] == pytest.approx(1.0 - expected_low, abs=1e-12)


class TestGbm:
    def test_pure_children_never_split(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = fit_gbm(dataset_from(x, y),
                        TrainConfig(gbm=GbmParams(n_trees=1, max_depth=3)))
        # Root splits once; both children are pure, so the tree stays 3 nodes.
        assert model.trees[0].n_nodes == 3

    def test_zero_trees_predict_prevalence(self):
        model = GbmModel(trees=[], learning_rate=0.1,
                         base_score=float(np.log(0.19 / 0.81)),
                         n_trees=0, max_depth=3, n_features=2, train_loss=[])
        probs = predict_proba_gbm(model, np.zeros((3, 2)))
        assert np.allclose(probs, 0.19, atol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            fit_gbm(dataset_from([[0.0], [1.0]], [1, 1]), TrainConfig())

    def test_training_loss_non_increasing(self):
        data = logistic_like_dataset(400, 6, seed=55)
        model = fit_gbm(data, TrainConfig(gbm=GbmParams(n_trees=60)))
        diffs = np.diff(model.train_loss)
        assert len(model.train_loss) == 61
        assert np.all(diffs <= 0)

    def test_row_permutation_permutes_outputs(self):
        data = logistic_like_dataset(100, 5, seed=21)
        model = fit_gbm(data, TrainConfig(gbm=GbmParams(n_trees=10)))
        probs = predict_proba_gbm(model, data.matrix)
        perm = np.random.default_rng(0).permutation(100)
        assert np.array_equal(predict_proba_gbm(model, data.matrix[perm]),
                              probs[perm])

    @pytest.mark.parametrize(
        "kind", ["binary", "rounded", "duplicated", "nextafter", "nan"])
    def test_splits_do_not_depend_on_row_order(self, kind):
        # Every gain comes from exact fixed-point sums, so permuting the
        # training rows permutes nothing in the trees.
        for seed in range(6):
            rng = np.random.default_rng(seed)
            x = tie_heavy_matrix(kind, 90, 6, seed)
            y = (rng.random(90) < 0.3).astype(np.int64)
            y[:2] = (0, 1)
            perm = rng.permutation(90)
            for depth in (2, 4, 6):
                for leaf in (1, 3):
                    config = TrainConfig(gbm=GbmParams(
                        n_trees=1, max_depth=depth, min_samples_leaf=leaf))
                    a, b = (fit_gbm(dataset_from(x[rows], y[rows]),
                                    config).trees[0]
                            for rows in (slice(None), perm))
                    assert np.array_equal(a.feature, b.feature)
                    assert np.array_equal(a.threshold, b.threshold)

    def test_deterministic(self):
        data = logistic_like_dataset(150, 5, seed=33)
        config = TrainConfig(gbm=GbmParams(n_trees=20))
        a = fit_gbm(data, config)
        b = fit_gbm(data, config)
        assert a.train_loss == b.train_loss
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)
            assert np.array_equal(ta.value, tb.value)

    def test_width_mismatch(self):
        data = logistic_like_dataset(50, 4, seed=2)
        model = fit_gbm(data, TrainConfig(gbm=GbmParams(n_trees=2)))
        with pytest.raises(WidthMismatch):
            predict_proba_gbm(model, np.zeros((3, 7)))

    def test_depth_respected(self):
        data = logistic_like_dataset(300, 5, seed=8)
        model = fit_gbm(data, TrainConfig(gbm=GbmParams(n_trees=5,
                                                        max_depth=2)))
        for tree in model.trees:
            # depth 2 allows at most 1 + 2 + 4 = 7 nodes
            assert tree.n_nodes <= 7

    def test_min_samples_leaf(self):
        data = logistic_like_dataset(40, 3, seed=14)
        model = fit_gbm(
            data,
            TrainConfig(gbm=GbmParams(n_trees=1, max_depth=1,
                                      min_samples_leaf=15)),
        )
        tree = model.trees[0]
        if tree.n_nodes > 1:
            rows = data.matrix[:, tree.feature[0]] <= tree.threshold[0]
            assert 15 <= int(rows.sum()) <= 25


def tie_heavy_matrix(kind: str, n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "binary":
        return rng.integers(0, 2, size=(n, d)).astype(np.float64)
    if kind == "duplicated":
        base = rng.normal(size=(n // 4, d))
        return base[rng.integers(0, len(base), size=n)]
    rounded = np.round(rng.normal(size=(n, d)), 1)
    if kind == "nextafter":  # adjacent floats, whose midpoint rounds to one
        up = rng.random((n, d)) < 0.5
        return np.where(up, np.nextafter(rounded, np.inf), rounded)
    if kind == "nan":
        return np.where(rng.random((n, d)) < 0.1, np.nan, rounded)
    return rounded


def assert_same_fit(got: GbmModel, want: GbmModel) -> None:
    assert got.train_loss == want.train_loss
    assert len(got.trees) == len(want.trees)
    for a, b in zip(got.trees, want.trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def traced_peak(fit, data, config) -> int:
    tracemalloc.start()
    try:
        fit(data, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def build_ratio_one_training_set() -> EncodedDataset:
    """Like the training matrix of `train --ratio 1.0` on a 2,000-profile
    cohort: encoded, standardized and oversampled to 3,240 x 20."""
    spec = synthgen.load_spec(synthgen.default_spec_path())
    profiles = synthgen.generate(dataclasses.replace(spec, n=2000, seed=7))
    std, _ = standardize(encode(profiles, FeatureSchema()).dataset)
    return smote(std, SmoteConfig(ratio=1.0, seed=3))


@pytest.fixture(scope="module")
def ratio_one_training_set():
    data = build_ratio_one_training_set()
    assert data.matrix.shape == (3240, 20)
    return data


_FIT_BYTES_SCRIPT = """
from readmit.models import TrainConfig, fit_logistic
from tests.test_models import build_ratio_one_training_set
model = fit_logistic(build_ratio_one_training_set(), TrainConfig())
print(model.intercept.hex(), *(w.hex() for w in model.weights.tolist()))
"""


def test_logistic_fit_is_the_same_at_one_and_two_blas_threads():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(models.__file__).parents[1]), str(root)]))
    fits = [
        subprocess.run([sys.executable, "-c", _FIT_BYTES_SCRIPT], cwd=root,
                       env=dict(env, OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, text=True, check=True).stdout
        for threads in ("1", "2")
    ]
    assert len(fits[0].split()) == 21
    assert fits[0] == fits[1]


def fixed_point_flip() -> tuple[np.ndarray, np.ndarray, int]:
    """A stump whose two binary columns split 28 rows S+A | B+R and
    S+B | A+R. A's residuals sum higher than B's, but rounded to
    frac_bits fraction bits B's sum higher: the fixed-point gains order
    the columns opposite to float gains of g. Returns x, g and
    frac_bits."""
    s, k = 6, 8
    n = 2 * s + 2 * k
    frac_bits = 52 - (n * 2).bit_length()
    unit = 2.0 ** -frac_bits
    quarter = 2.0 ** (frac_bits - 2)  # 0.25 in units
    g = np.concatenate([
        np.full(s, 0.9),
        np.full(k, (quarter + 0.49) * unit),  # A: each rounds down
        np.full(k // 2, (quarter + 0.51) * unit),  # B: half round up
        np.full(k // 2, (quarter + 0.2) * unit),
        np.full(s, -0.9),
    ])
    x = np.zeros((n, 2))
    x[s + k:, 0] = 1.0
    x[s:s + k, 1] = 1.0
    x[s + 2 * k:, 1] = 1.0
    return x, g, frac_bits


drawn_values = st.sampled_from(
    [-1.5, -0.0, 0.0, 0.25, float(np.nextafter(0.25, 1.0)), 1.0, np.nan])


class TestGbmMatchesExactOracle:
    """fit_gbm splits each node on exact fixed-point histogram gains of
    the residuals; tests/oracles/gbm_exact.py is the former
    column-at-a-time search over sorted rows, run on the same
    fixed-point residuals. Trees and losses must be equal bit for bit."""

    @pytest.mark.parametrize("shuffle", [1, 40, 400, None])
    @pytest.mark.parametrize(
        "kind", ["binary", "rounded", "duplicated", "nextafter", "nan"])
    def test_tie_heavy_data(self, kind, shuffle):
        # shuffle seeds a permutation of the training rows (None keeps
        # them as drawn); both searches must agree in any row order.
        for seed in range(2):
            rng = np.random.default_rng(seed)
            x = tie_heavy_matrix(kind, 90, 6, seed)
            y = (rng.random(90) < 0.3).astype(np.int64)
            y[:2] = (0, 1)
            rows = (slice(None) if shuffle is None
                    else np.random.default_rng(shuffle).permutation(90))
            data = dataset_from(x[rows], y[rows])
            for depth in (1, 3, 6):
                for leaf in (1, 2, 7):
                    config = TrainConfig(gbm=GbmParams(
                        n_trees=4, max_depth=depth, min_samples_leaf=leaf))
                    assert_same_fit(fit_gbm(data, config),
                                    fit_gbm_exact(data, config))

    def test_cohort_scale_matrix(self, ratio_one_training_set):
        config = TrainConfig(gbm=GbmParams(n_trees=10))
        assert_same_fit(fit_gbm(ratio_one_training_set, config),
                        fit_gbm_exact(ratio_one_training_set, config))

    def test_copied_column_nudged_by_one_ulp(self):
        rng = np.random.default_rng(5)
        x = tie_heavy_matrix("rounded", 120, 3, 5)
        y = (x[:, 0] + rng.normal(size=120) > 0).astype(np.int64)
        copy = x[:, 0].copy()
        copy[7] = np.nextafter(copy[7], np.inf)
        data = dataset_from(np.column_stack([x, copy]), y)
        config = TrainConfig(gbm=GbmParams(n_trees=5))
        got = fit_gbm(data, config)
        assert_same_fit(got, fit_gbm_exact(data, config))
        assert got.trees[0].feature[0] in (0, 3)

    def test_duplicated_columns_split_on_the_lowest(self):
        rng = np.random.default_rng(6)
        x = tie_heavy_matrix("rounded", 120, 2, 6)
        y = (x.sum(axis=1) + rng.normal(size=120) > 0).astype(np.int64)
        data = dataset_from(np.column_stack([x, x, x[:, ::-1]]), y)
        config = TrainConfig(gbm=GbmParams(n_trees=5))
        got = fit_gbm(data, config)
        assert_same_fit(got, fit_gbm_exact(data, config))
        assert all(set(t.feature.tolist()) <= {-1, 0, 1} for t in got.trees)

    def test_node_without_a_positive_gain_stays_a_leaf(self):
        # Every split leaves both sides with the same share of positives.
        x = np.array([[0, 0], [0, 0], [0, 1], [0, 1],
                      [1, 0], [1, 0], [1, 1], [1, 1]], dtype=np.float64)
        data = dataset_from(x, [1, 0, 1, 0, 1, 0, 1, 0])
        config = TrainConfig(gbm=GbmParams(n_trees=3))
        got = fit_gbm(data, config)
        assert_same_fit(got, fit_gbm_exact(data, config))
        assert [t.n_nodes for t in got.trees] == [1, 1, 1]

    def test_signed_zeros_share_a_bin(self):
        rng = np.random.default_rng(7)
        x = rng.choice([-1.0, -0.0, 0.0, 2.0], size=(80, 3))
        y = (rng.random(80) < np.where(x[:, 0] == 0, 0.7, 0.3))
        data = dataset_from(x, y.astype(np.int64))
        assert len(models._Bins(x).values) == 3 * 4
        for depth in (1, 3):
            config = TrainConfig(gbm=GbmParams(n_trees=4, max_depth=depth))
            assert_same_fit(fit_gbm(data, config),
                            fit_gbm_exact(data, config))

    def test_nan_values(self):
        rng = np.random.default_rng(8)
        x = tie_heavy_matrix("nan", 100, 3, 8)
        x[:, 1] = np.nan
        x[:50, 2] = np.nan
        y = (rng.random(100) < 0.4).astype(np.int64)
        y[:2] = (0, 1)
        data = dataset_from(x, y)
        for leaf in (1, 3):
            config = TrainConfig(gbm=GbmParams(n_trees=4, max_depth=4,
                                               min_samples_leaf=leaf))
            assert_same_fit(fit_gbm(data, config),
                            fit_gbm_exact(data, config))

    @pytest.mark.parametrize("leaf", [2, 5, 13])
    def test_min_samples_leaf(self, leaf):
        rng = np.random.default_rng(leaf)
        x = tie_heavy_matrix("duplicated", 150, 4, leaf)
        y = (x[:, 0] + rng.normal(size=150) > 0).astype(np.int64)
        data = dataset_from(x, y)
        config = TrainConfig(gbm=GbmParams(n_trees=6, max_depth=4,
                                           min_samples_leaf=leaf))
        assert_same_fit(fit_gbm(data, config), fit_gbm_exact(data, config))

    def test_fixed_point_flip_splits_on_the_rounded_sums(self):
        x, g, frac_bits = fixed_point_flip()
        scale = 2.0 ** frac_bits
        q = np.rint(g * scale) / scale
        assert g[6:14].sum() > g[14:22].sum()
        assert q[6:14].sum() < q[14:22].sum()
        bins = models._Bins(x)
        h = np.full(len(x), 0.25)
        got, _ = models._grow_tree(x, bins, bins.root(1), g, h, 1, 1,
                                   frac_bits)
        want, _ = grow_exact(
            x, [np.argsort(x[:, j], kind="stable") for j in (0, 1)],
            g, q, h, 1, 1)
        assert got.feature.tolist() == want.feature.tolist() == [1, -1, -1]
        assert got.threshold.tolist() == want.threshold.tolist()
        assert np.array_equal(got.value, want.value)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drawn_data(self, data):
        n = data.draw(st.integers(4, 30))
        d = data.draw(st.integers(1, 4))
        x = np.array(data.draw(st.lists(drawn_values, min_size=n * d,
                                        max_size=n * d))).reshape(n, d)
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                        max_size=n)))
        y[:2] = (0, 1)
        config = TrainConfig(gbm=GbmParams(
            n_trees=2, max_depth=data.draw(st.integers(1, 4)),
            min_samples_leaf=data.draw(st.integers(1, 3))))
        fitted = dataset_from(x, y)
        assert_same_fit(fit_gbm(fitted, config),
                        fit_gbm_exact(fitted, config))

    def test_peak_memory_within_one_and_a_half_oracle(
        self, ratio_one_training_set
    ):
        config = TrainConfig(gbm=GbmParams(n_trees=3))
        peak = traced_peak(fit_gbm, ratio_one_training_set, config)
        oracle = traced_peak(fit_gbm_exact, ratio_one_training_set, config)
        assert peak <= 1.5 * oracle, peak / oracle


class TestConfigValidation:
    def test_bad_gbm_params(self):
        with pytest.raises(ValueError):
            GbmParams(n_trees=0)
        with pytest.raises(ValueError):
            GbmParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            GbmParams(learning_rate=1.5)
        with pytest.raises(ValueError):
            GbmParams(max_depth=0)

    def test_bad_logistic_params(self):
        with pytest.raises(ValueError):
            LogisticParams(ridge=-1.0)


class TestPersistence:
    def test_logistic_round_trip(self, tmp_path):
        data = logistic_like_dataset(60, 4, seed=91)
        model = fit_logistic(data, TrainConfig())
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(
            predict_proba_logistic(loaded, data.matrix),
            predict_proba_logistic(model, data.matrix),
        )

    def test_gbm_round_trip(self, tmp_path):
        data = logistic_like_dataset(120, 5, seed=92)
        model = fit_gbm(data, TrainConfig(gbm=GbmParams(n_trees=15)))
        path = tmp_path / "model.json"
        save_model(model, path, extra={"config": {"seed": 0}})
        loaded = load_model(path)
        assert np.array_equal(
            predict_proba_gbm(loaded, data.matrix),
            predict_proba_gbm(model, data.matrix),
        )

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 99, "kind": "gbm"}')
        with pytest.raises(ValueError):
            load_model(path)
