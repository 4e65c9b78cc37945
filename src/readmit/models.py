"""From-scratch binary classifiers emitting probabilities.

Two fitters share the EncodedDataset input contract:

* fit_logistic: ridge-penalized logistic regression solved by damped
  iteratively reweighted least squares (Newton steps with objective-
  based step halving, so near-separable data cannot diverge).

  A full one-hot group sums to 1 on every row, as the intercept column
  does, so the intercept plus all five groups has five exact linear
  dependencies. IRLS then never converges along them, and BLAS rounding
  (which depends on the thread count) moves the weights. The fit
  therefore uses reference coding: each group whose columns sum to
  exactly 1.0 on every row drops its first column, which leaves the
  column space unchanged. The solved weights are mapped back to the full
  width by centring: a group's reference weight is 0, then its mean
  weight moves from the group to the intercept. Each group's weights
  sum to zero, as at the full design's ridge optimum, and the
  probabilities are those of the reduced fit.
* fit_gbm: gradient-boosted regression trees on the binary log-loss.
  Each round fits a squared-error tree to the residuals y - p and sets
  leaf values by a Newton step sum(y-p)/sum(p(1-p)), then updates the
  margin with shrinkage. Splits are exact: every midpoint between
  consecutive distinct sorted values is considered, ties broken toward
  the lowest column index and then the lowest threshold.

  Each fit presorts every column once, as int32 row orders and dense
  value ranks (a rank step is a value step). A node searches its columns
  SPLIT_BLOCK elements at a time: one gather and one row-wise cumsum of
  the residuals per block, the same sequential sums as one column at a
  time, with gains computed only at rank steps. A split stably
  partitions the node's orders and ranks into its children's slices of
  the next level's buffer. Memory is the presort plus two such level
  buffers, 24 bytes per matrix element, and O(SPLIT_BLOCK) per block.

Both fits are deterministic: no subsampling, no randomized tie-breaks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import Diverged, SingleClass, WidthMismatch
from .features import EncodedDataset
from .schema import (  # noqa: F401
    FeatureSchema,
    GbmParams,
    LogisticParams,
    TrainConfig,
)

LEAF_VALUE_LIMIT = 10.0
LEAF_HESSIAN_FLOOR = 1e-12
PROB_EPS = 1e-12
IRLS_TOL = 1e-8  # converged once no parameter moves by this much
IRLS_MAX_ITER = 100
SPLIT_BLOCK = 16384  # (column, row) elements per split-search block


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


def reference_groups(x: np.ndarray, schema: FeatureSchema) -> list[slice]:
    """The one-hot groups of ``schema`` whose columns in x sum to exactly
    1.0 on every row; none unless x is as wide as the schema. Only these
    may drop a column: with the intercept, their first column is then a
    linear combination of the others."""
    if x.shape[1] != schema.n_columns:
        return []
    return [g for g in schema.one_hot_groups
            if np.all(x[:, g].sum(axis=1) == 1.0)]


def fit_logistic(data: EncodedDataset, config: TrainConfig) -> LogisticModel:
    """Damped IRLS on the ridge-penalized Bernoulli likelihood.

    Solved on the reference-coded columns (see the module docstring) and
    mapped back to the full width by centring each reduced group. Each
    Newton step is halved until the objective stops increasing;
    convergence is declared when the largest parameter change drops
    below IRLS_TOL, within IRLS_MAX_ITER steps.
    """
    _check_two_classes(data.labels)
    ridge = config.logistic.ridge
    x = data.matrix
    y = data.labels.astype(np.float64)
    n, d = x.shape
    groups = reference_groups(x, data.schema)
    refs = [g.start for g in groups]
    x_aug = np.empty((n, 1 + d - len(refs)))
    x_aug[:, 0] = 1.0
    at = 1  # copy each run of columns between two reference columns
    for start, stop in zip([0] + [r + 1 for r in refs], refs + [d]):
        x_aug[:, at:at + stop - start] = x[:, start:stop]
        at += stop - start
    ridge_diag = np.full(x_aug.shape[1], ridge)
    ridge_diag[0] = 0.0

    beta = np.zeros(x_aug.shape[1])
    nll, grad, p = logistic_nll_grad(beta, x_aug, y, ridge)
    converged = False
    n_iter = 0
    for n_iter in range(1, IRLS_MAX_ITER + 1):
        w = np.clip(p * (1.0 - p), 1e-10, None)
        hess = (x_aug * w[:, None]).T @ x_aug
        hess[np.diag_indices_from(hess)] += ridge_diag
        delta = np.linalg.solve(hess, -grad)

        # Steps 1, 1/2, ..., 2**-60; the last is kept if none is accepted.
        step = 1.0
        for _ in range(61):
            cand = beta + step * delta
            cand_nll, cand_grad, cand_p = logistic_nll_grad(cand, x_aug, y,
                                                            ridge)
            if cand_nll <= nll + 1e-12 * (1.0 + abs(nll)):
                break
            step *= 0.5

        if not np.all(np.isfinite(cand)):
            raise Diverged("IRLS produced non-finite parameters")
        change = float(np.max(np.abs(cand - beta)))
        beta, nll, grad, p = cand, cand_nll, cand_grad, cand_p
        if change < IRLS_TOL:
            converged = True
            break

    weights = np.zeros(d)
    weights[np.delete(np.arange(d), refs)] = beta[1:]
    intercept = float(beta[0])
    for g in groups:
        mean = weights[g].mean()
        weights[g] -= mean
        intercept += mean
    return LogisticModel(
        weights=weights,
        intercept=float(intercept),
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
    g: np.ndarray, orders: np.ndarray, ranks: np.ndarray, min_leaf: int
) -> tuple[int, int] | None:
    """Best (column, i) by squared-error reduction on g, splitting one
    node between positions i and i+1 of that column's order; None when
    the node is pure in g or has no valid position. orders and ranks are
    the node's (d, m) rows per column. argmax keeps the first maximum in
    (column, position) order and the strict > the earlier block, so ties
    go to the lowest column, then the lowest threshold."""
    d, m = orders.shape
    if m < 2 * min_leaf:
        return None
    g_node = g.take(orders[0])
    if g_node.max() == g_node.min():
        return None
    # Summed in column 0's order: a pairwise sum depends on the order.
    total = g_node.sum()
    base = total * total / m

    best_gain = 0.0
    best = None
    width = max(1, SPLIT_BLOCK // m)
    for c0 in range(0, d, width):
        r = ranks[c0:c0 + width]
        valid = np.empty(r.shape, dtype=bool)  # a value step after i
        np.greater(r[:, 1:], r[:, :-1], out=valid[:, :-1])
        valid[:, : min_leaf - 1] = False
        valid[:, m - min_leaf:] = False
        at = np.flatnonzero(valid)
        if at.size == 0:
            continue
        cum = np.cumsum(g.take(orders[c0:c0 + width]), axis=1).take(at)
        n_left = at % m + 1.0
        gains = cum * cum / n_left + (total - cum) ** 2 / (m - n_left) - base
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain = float(gains[i])
            best = divmod(c0 * m + int(at[i]), m)
    return best


def _partition(src, dst, d: int, s: int, e: int, k: int, goes_left) -> None:
    """Stably partition node [s, e)'s (orders, ranks) from src into dst:
    per column, its k rows with goes_left first, so both stay sorted."""
    m = e - s
    width = max(1, SPLIT_BLOCK // m)
    for c0 in range(0, d, width):
        c1 = min(c0 + width, d)
        mask = goes_left.take(src[0][d * s + c0 * m:d * s + c1 * m])
        for sel, start, size in ((np.flatnonzero(mask), d * s, k),
                                 (np.flatnonzero(~mask), d * (s + k), m - k)):
            for a, b in zip(src, dst):
                np.take(a[d * s + c0 * m:d * s + c1 * m], sel, mode="clip",
                        out=b[start + c0 * size:start + c1 * size])


def _grow_tree(
    x: np.ndarray,
    levels: list[tuple[np.ndarray, np.ndarray]],
    g: np.ndarray,
    h: np.ndarray,
    max_depth: int,
    min_leaf: int,
) -> tuple[Tree, np.ndarray]:
    """Level-wise greedy growth; returns the tree and each row's leaf id.

    levels[0] holds the root's presorted (orders, ranks); the others are
    level buffers. A node owns rows [s, e) of its level, stored as flat
    elements [d*s, d*e) in (column, position) order, and its children
    own [s, s + k) and [s + k, e) of the next. The last level is not
    partitioned."""
    n, d = x.shape
    leaf_of = np.zeros(n, dtype=np.int64)
    goes_left = np.zeros(n, dtype=bool)
    splits = []  # (node, column, threshold); split i's children: 2i+1, 2i+2
    level, src = [(0, 0, n)], levels[0]
    for depth in range(max_depth):
        dst = levels[1 + depth % 2] if depth + 1 < max_depth else None
        nxt = []
        for node, s, e in level:
            orders, ranks = (a[d * s:d * e].reshape(d, e - s) for a in src)
            split = _best_split(g, orders, ranks, min_leaf)
            if split is None:
                continue
            j, i = split
            rows = orders[j]
            lo, hi = x[rows[i], j], x[rows[i + 1], j]
            thr = lo + (hi - lo) / 2.0
            # On values, not ranks: the midpoint of adjacent floats can
            # round up to hi.
            goes = x[rows, j] <= thr
            k = int(np.count_nonzero(goes))
            child = 2 * len(splits) + 1
            splits.append((node, j, thr))
            leaf_of[rows[:k]] = child
            leaf_of[rows[k:]] = child + 1
            nxt += [(child, s, s + k), (child + 1, s + k, e)]
            if dst is not None:
                goes_left[rows] = goes
                _partition(src, dst, d, s, e, k, goes_left)
        level, src = nxt, dst

    n_nodes = 1 + 2 * len(splits)
    feature = np.full(n_nodes, -1, dtype=np.int64)
    threshold = np.zeros(n_nodes)
    left = np.full(n_nodes, -1, dtype=np.int64)
    for i, (node, j, thr) in enumerate(splits):
        feature[node], threshold[node], left[node] = j, thr, 2 * i + 1
    sum_g = np.bincount(leaf_of, weights=g, minlength=n_nodes)
    sum_h = np.bincount(leaf_of, weights=h, minlength=n_nodes)
    value = np.clip(
        sum_g / np.maximum(sum_h, LEAF_HESSIAN_FLOOR),
        -LEAF_VALUE_LIMIT, LEAF_VALUE_LIMIT,
    )
    value[feature >= 0] = 0.0
    right = np.where(left >= 0, left + 1, -1)
    return Tree(feature, threshold, left, right, value), leaf_of


def fit_gbm(data: EncodedDataset, config: TrainConfig) -> GbmModel:
    _check_two_classes(data.labels)
    params = config.gbm
    x = np.ascontiguousarray(data.matrix, dtype=np.float64)
    y = data.labels.astype(np.float64)
    n, d = x.shape

    prevalence = float(y.mean())
    base_score = float(np.log(prevalence / (1.0 - prevalence)))
    margin = np.full(n, base_score)

    # Per column: rows in stable value order and dense ranks, 0 for the
    # smallest value; NaN sorts last and ranks -1, so no step touches it.
    levels = [(np.empty(d * n, dtype=np.int32), np.zeros(d * n, dtype=np.int32))
              for _ in range(min(3, params.max_depth))]
    orders, ranks = (a.reshape(d, n) for a in levels[0])
    for j in range(d):
        orders[j] = np.argsort(x[:, j], kind="stable")
        vals = x[orders[j], j]
        np.cumsum(vals[1:] > vals[:-1], out=ranks[j, 1:])
        ranks[j, np.isnan(vals)] = -1

    trees: list[Tree] = []
    p = sigmoid(margin)
    losses = [log_loss(y, p)]
    for _ in range(params.n_trees):
        tree, leaf_of = _grow_tree(x, levels, y - p, p * (1.0 - p),
                                   params.max_depth, params.min_samples_leaf)
        margin = margin + params.learning_rate * tree.value[leaf_of]
        p = sigmoid(margin)
        trees.append(tree)
        losses.append(log_loss(y, p))

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
_TREE_DTYPES = {"feature": np.int64, "threshold": np.float64,
               "left": np.int64, "right": np.int64, "value": np.float64}


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
            "trees": [{f: getattr(t, f).tolist() for f in _TREE_DTYPES}
                      for t in model.trees],
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
        trees = [Tree(**{f: np.asarray(t[f], dtype=dtype)
                         for f, dtype in _TREE_DTYPES.items()})
                 for t in payload["trees"]]
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str | Path) -> LogisticModel | GbmModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format {payload.get('format_version')!r}"
        )
    return model_from_dict(payload)
