from __future__ import annotations

import numpy as np
import pytest

from readmit.errors import SingleClass, WidthMismatch
from readmit.features import EncodedDataset, FeatureSchema
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

from tests.oracles.logistic_gd import fit_logistic_gd
from tests.oracles.stump import best_stump, stump_leaf_values


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
