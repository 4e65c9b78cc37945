"""From-scratch binary classifiers emitting probabilities.

Two fitters share the EncodedDataset input contract:

* fit_logistic: ridge-penalized logistic regression solved by damped
  iteratively reweighted least squares (Newton steps with objective-
  based step halving, so near-separable data cannot diverge).
* fit_gbm: gradient-boosted regression trees on the binary log-loss.
  Each round fits a squared-error tree to the residuals y - p and sets
  leaf values by a Newton step sum(y-p)/sum(p(1-p)), then updates the
  margin with shrinkage. Splits are exact: every midpoint between
  consecutive distinct sorted values is considered, ties broken toward
  the lowest column index and then the lowest threshold.

Both fits are deterministic: no subsampling, no randomized tie-breaks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import Diverged, SingleClass, WidthMismatch
from .features import EncodedDataset

LEAF_VALUE_LIMIT = 10.0
LEAF_HESSIAN_FLOOR = 1e-12
PROB_EPS = 1e-12


@dataclass(frozen=True)
class GbmParams:
    n_trees: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}"
            )


@dataclass(frozen=True)
class LogisticParams:
    ridge: float = 1e-6
    tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        if self.ridge < 0:
            raise ValueError(f"ridge must be >= 0, got {self.ridge}")


@dataclass(frozen=True)
class TrainConfig:
    gbm: GbmParams = field(default_factory=GbmParams)
    logistic: LogisticParams = field(default_factory=LogisticParams)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def log_loss(labels: np.ndarray, probs: np.ndarray) -> float:
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _check_two_classes(labels: np.ndarray) -> None:
    if len(np.unique(labels)) < 2:
        raise SingleClass("training labels contain a single class")


# --- logistic regression ---------------------------------------------------

@dataclass
class LogisticModel:
    weights: np.ndarray
    intercept: float
    converged: bool
    n_iter: int


def logistic_nll_grad(
    beta: np.ndarray, x_aug: np.ndarray, y: np.ndarray, ridge: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Penalized negative log-likelihood, its gradient, and the fitted
    probabilities sigmoid(x_aug @ beta).

    beta stacks [intercept, weights]; x_aug carries a leading ones
    column; the ridge penalty excludes the intercept.
    """
    z = x_aug @ beta
    # log(1 + e^z) via logaddexp for stability at large |z|
    nll = float(np.sum(np.logaddexp(0.0, z) - y * z))
    nll += 0.5 * ridge * float(beta[1:] @ beta[1:])
    p = sigmoid(z)
    grad = x_aug.T @ (p - y)
    grad[1:] += ridge * beta[1:]
    return nll, grad, p


def fit_logistic(data: EncodedDataset, config: TrainConfig) -> LogisticModel:
    """Damped IRLS on the ridge-penalized Bernoulli likelihood.

    Each Newton step is halved until the objective stops increasing;
    convergence is declared when the largest parameter change drops
    below config.logistic.tol.
    """
    _check_two_classes(data.labels)
    params = config.logistic
    x = data.matrix
    y = data.labels.astype(np.float64)
    n, d = x.shape
    x_aug = np.hstack([np.ones((n, 1)), x])
    ridge_diag = np.full(d + 1, params.ridge)
    ridge_diag[0] = 0.0

    beta = np.zeros(d + 1)
    nll, grad, p = logistic_nll_grad(beta, x_aug, y, params.ridge)
    converged = False
    n_iter = 0
    for n_iter in range(1, params.max_iter + 1):
        w = np.clip(p * (1.0 - p), 1e-10, None)
        hess = (x_aug * w[:, None]).T @ x_aug
        hess[np.diag_indices_from(hess)] += ridge_diag
        delta = np.linalg.solve(hess, -grad)

        step = 1.0
        cand = beta + delta
        cand_nll, cand_grad, cand_p = logistic_nll_grad(
            cand, x_aug, y, params.ridge
        )
        for _ in range(60):
            if cand_nll <= nll + 1e-12 * (1.0 + abs(nll)):
                break
            step *= 0.5
            cand = beta + step * delta
            cand_nll, cand_grad, cand_p = logistic_nll_grad(
                cand, x_aug, y, params.ridge
            )

        if not np.all(np.isfinite(cand)):
            raise Diverged("IRLS produced non-finite parameters")
        change = float(np.max(np.abs(cand - beta)))
        beta, nll, grad, p = cand, cand_nll, cand_grad, cand_p
        if change < params.tol:
            converged = True
            break

    return LogisticModel(
        weights=beta[1:].copy(),
        intercept=float(beta[0]),
        converged=converged,
        n_iter=n_iter,
    )


def predict_proba_logistic(model: LogisticModel, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.weights.shape[0]:
        raise WidthMismatch(
            f"expected {model.weights.shape[0]} columns, got {rows.shape}"
        )
    p = sigmoid(model.intercept + rows @ model.weights)
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


# --- gradient boosted trees --------------------------------------------------

@dataclass
class Tree:
    """Axis-aligned regression tree in flat arrays; feature -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, rows: np.ndarray) -> np.ndarray:
        node = np.zeros(rows.shape[0], dtype=np.int64)
        while True:
            feat = self.feature[node]
            active = np.flatnonzero(feat >= 0)
            if active.size == 0:
                return self.value[node]
            cur = node[active]
            go_left = rows[active, self.feature[cur]] <= self.threshold[cur]
            node[active] = np.where(go_left, self.left[cur], self.right[cur])


@dataclass
class GbmModel:
    trees: list[Tree]
    learning_rate: float
    base_score: float
    n_trees: int
    max_depth: int
    n_features: int
    train_loss: list[float]  # loss before boosting, then after each round


def _best_split(
    x: np.ndarray,
    g: np.ndarray,
    col_orders: list[np.ndarray],
    min_leaf: int,
) -> tuple[int, float] | None:
    """Best (column, midpoint threshold) by squared-error reduction on g.

    Returns None when the node is pure in g or no valid position exists.
    np.argmax keeps the first maximum, so equal gains resolve to the
    lowest threshold; the strict > across columns keeps the lowest
    column index.
    """
    rows0 = col_orders[0]
    n_node = rows0.size
    if n_node < 2 or n_node < 2 * min_leaf:
        return None
    g_node = g[rows0]
    if g_node.max() == g_node.min():
        return None

    total = g_node.sum()
    base = total * total / n_node
    n_left = np.arange(1, n_node, dtype=np.float64)
    n_right = n_node - n_left

    best_gain = 0.0
    best = None
    for j, rows in enumerate(col_orders):
        vals = x[rows, j]
        valid = vals[:-1] < vals[1:]
        if min_leaf > 1:
            valid = valid.copy()
            valid[: min_leaf - 1] = False
            valid[n_node - min_leaf:] = False
        if not valid.any():
            continue
        cum = np.cumsum(g[rows])[:-1]
        gains = cum * cum / n_left + (total - cum) ** 2 / n_right - base
        gains[~valid] = -np.inf
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain = float(gains[i])
            best = (j, vals[i] + (vals[i + 1] - vals[i]) / 2.0)
    return best


def _grow_tree(
    x: np.ndarray,
    root_orders: list[np.ndarray],
    g: np.ndarray,
    h: np.ndarray,
    max_depth: int,
    min_leaf: int,
) -> tuple[Tree, np.ndarray]:
    """Level-wise greedy growth; returns the tree and each row's leaf id.

    root_orders holds, per column, the root rows sorted by that column;
    partitions inherit sortedness, so no per-node re-sorts are needed.
    """
    n = x.shape[0]
    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]
    leaf_of = np.zeros(n, dtype=np.int64)

    level = [(0, root_orders)]
    for _ in range(max_depth):
        nxt = []
        for node_id, col_orders in level:
            split = _best_split(x, g, col_orders, min_leaf)
            if split is None:
                continue
            j, thr = split
            li = len(feature)
            feature[node_id] = j
            threshold[node_id] = thr
            left[node_id] = li
            right[node_id] = li + 1
            feature.extend((-1, -1))
            threshold.extend((0.0, 0.0))
            left.extend((-1, -1))
            right.extend((-1, -1))

            rows = col_orders[j]
            goes_left = np.zeros(n, dtype=bool)
            goes_left[rows[x[rows, j] <= thr]] = True
            lorders = []
            rorders = []
            for arr in col_orders:
                mask = goes_left[arr]
                lorders.append(arr[mask])
                rorders.append(arr[~mask])
            leaf_of[lorders[0]] = li
            leaf_of[rorders[0]] = li + 1
            nxt.append((li, lorders))
            nxt.append((li + 1, rorders))
        level = nxt
        if not level:
            break

    n_nodes = len(feature)
    sum_g = np.bincount(leaf_of, weights=g, minlength=n_nodes)
    sum_h = np.bincount(leaf_of, weights=h, minlength=n_nodes)
    value = np.clip(
        sum_g / np.maximum(sum_h, LEAF_HESSIAN_FLOOR),
        -LEAF_VALUE_LIMIT, LEAF_VALUE_LIMIT,
    )
    feature_arr = np.asarray(feature, dtype=np.int64)
    value[feature_arr >= 0] = 0.0
    tree = Tree(
        feature=feature_arr,
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=value,
    )
    return tree, leaf_of


def fit_gbm(data: EncodedDataset, config: TrainConfig) -> GbmModel:
    _check_two_classes(data.labels)
    params = config.gbm
    x = np.ascontiguousarray(data.matrix, dtype=np.float64)
    y = data.labels.astype(np.float64)
    n, d = x.shape

    prevalence = float(y.mean())
    base_score = float(np.log(prevalence / (1.0 - prevalence)))
    margin = np.full(n, base_score)

    # One presort per fit; every tree re-partitions these orders.
    order = np.argsort(x, axis=0, kind="stable")
    root_orders = [order[:, j] for j in range(d)]

    trees: list[Tree] = []
    losses = [log_loss(y, sigmoid(margin))]
    for _ in range(params.n_trees):
        p = sigmoid(margin)
        g = y - p
        h = p * (1.0 - p)
        tree, leaf_of = _grow_tree(
            x, root_orders, g, h, params.max_depth, params.min_samples_leaf
        )
        margin = margin + params.learning_rate * tree.value[leaf_of]
        trees.append(tree)
        losses.append(log_loss(y, sigmoid(margin)))

    return GbmModel(
        trees=trees,
        learning_rate=params.learning_rate,
        base_score=base_score,
        n_trees=params.n_trees,
        max_depth=params.max_depth,
        n_features=d,
        train_loss=losses,
    )


def predict_proba_gbm(model: GbmModel, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.n_features:
        raise WidthMismatch(
            f"expected {model.n_features} columns, got {rows.shape}"
        )
    margin = np.full(rows.shape[0], model.base_score)
    for tree in model.trees:
        margin += model.learning_rate * tree.predict(rows)
    return np.clip(sigmoid(margin), PROB_EPS, 1.0 - PROB_EPS)


# --- persistence -------------------------------------------------------------

MODEL_FORMAT_VERSION = 1


def model_to_dict(model: LogisticModel | GbmModel) -> dict:
    if isinstance(model, LogisticModel):
        return {
            "kind": "logistic",
            "weights": model.weights.tolist(),
            "intercept": model.intercept,
            "converged": model.converged,
            "n_iter": model.n_iter,
        }
    if isinstance(model, GbmModel):
        return {
            "kind": "gbm",
            "learning_rate": model.learning_rate,
            "base_score": model.base_score,
            "n_trees": model.n_trees,
            "max_depth": model.max_depth,
            "n_features": model.n_features,
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "value": t.value.tolist(),
                }
                for t in model.trees
            ],
        }
    raise TypeError(f"unsupported model type {type(model)!r}")


def model_from_dict(payload: dict) -> LogisticModel | GbmModel:
    kind = payload["kind"]
    if kind == "logistic":
        return LogisticModel(
            weights=np.asarray(payload["weights"], dtype=np.float64),
            intercept=float(payload["intercept"]),
            converged=bool(payload["converged"]),
            n_iter=int(payload["n_iter"]),
        )
    if kind == "gbm":
        trees = [
            Tree(
                feature=np.asarray(t["feature"], dtype=np.int64),
                threshold=np.asarray(t["threshold"], dtype=np.float64),
                left=np.asarray(t["left"], dtype=np.int64),
                right=np.asarray(t["right"], dtype=np.int64),
                value=np.asarray(t["value"], dtype=np.float64),
            )
            for t in payload["trees"]
        ]
        return GbmModel(
            trees=trees,
            learning_rate=float(payload["learning_rate"]),
            base_score=float(payload["base_score"]),
            n_trees=int(payload["n_trees"]),
            max_depth=int(payload["max_depth"]),
            n_features=int(payload["n_features"]),
            train_loss=[],
        )
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(
    model: LogisticModel | GbmModel,
    path: str | Path,
    extra: dict | None = None,
) -> None:
    """Write model.json: format version, parameters, optional run metadata."""
    payload = {"format_version": MODEL_FORMAT_VERSION}
    payload.update(extra or {})
    payload.update(model_to_dict(model))
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_model(path: str | Path) -> LogisticModel | GbmModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format {payload.get('format_version')!r}"
        )
    return model_from_dict(payload)
