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
  Each round fits a squared-error tree to the residuals g = y - p and
  sets leaf values by a Newton step sum(g)/sum(p(1-p)), then updates the
  margin with shrinkage.

  Splits are exact on fixed-point residuals. Each tree rounds g to
  q = rint(g * 2**K) * 2**-K, K = 52 - bitlen(n*d), so every sum of q
  that the search takes (at most n*d terms of |q| <= 1) is a float
  exactly, in any order. A node's gain at a position is
  a**2/l + (t-a)**2/r - t**2/m, from the exact sum a of q over the l
  rows left of it and the exact total t over the node's m rows. Every
  midpoint between consecutive distinct values is a position. The
  first maximum in (column, threshold) order splits the node, if its
  gain is > 0 and q is not constant on the node. So a split depends on
  which rows a node holds, never on their order. Leaf values come from
  the float g.

  Each fit bins every column once: one bin per distinct value (-0.0
  and 0.0 share one) and one NaN bin, numbered globally, with each
  element's bin key held as an intp. A node's histogram, the sum of q
  and the row count per bin, is one np.bincount of its rows' keys, and
  its sibling's is the parent's minus it (Ke et al. 2017). A node keeps
  only its non-empty bins. Column j's left sums are the flat cumsum of
  the node's histogram less j times the node's total.

  Memory is the bin keys, 8 bytes per matrix element; 32 bytes per bin
  for the bin tables (at most n*d + d bins; about 2n + 3d on a cohort,
  where only age and income take many values); up to 16 bytes per
  element of a node's rows while the node is binned; and 24 bytes per
  non-empty bin of each node held.

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
    if not labels.size or labels.min() == labels.max():
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


class _Bins:
    """A fit's presort. Column j's bins are its distinct values in
    ascending order (a bin per value, so -0.0 and 0.0 share one), then
    one NaN bin; bins are numbered globally, column by column.

    keys (n, d) holds each element's bin, as the intp np.bincount
    takes; values, column and counts hold each bin's value (NaN for a
    NaN bin), column and rows; slot is scratch for a node's bins."""

    def __init__(self, x: np.ndarray):
        n, d = x.shape
        self.keys = np.empty((n, d), dtype=np.intp)
        values, column, counts = [], [], []
        start = 0
        for j in range(d):
            order = np.argsort(x[:, j], kind="stable")
            vals = x[order, j]
            num = vals[:n - int(np.count_nonzero(np.isnan(vals)))]  # NaN last
            new = np.ones(len(num), dtype=bool)  # a value step before a row
            np.greater(num[1:], num[:-1], out=new[1:])
            firsts = np.flatnonzero(new)
            bins = np.full(n, start + len(firsts))  # NaN rows: the NaN bin
            bins[:len(num)] = start - 1 + np.cumsum(new)
            self.keys[order, j] = bins
            values += [num[firsts], [np.nan]]
            column.append(np.full(len(firsts) + 1, j))
            counts += [np.diff(firsts, append=len(num)), [n - len(num)]]
            start += len(firsts) + 1
        self.values = np.concatenate(values)
        self.column = np.concatenate(column)
        self.counts = np.concatenate(counts)
        self.slot = np.zeros(start, dtype=np.intp)

    def root(self, min_leaf: int) -> tuple:
        """The root's non-empty bins, its rows in each, its _positions."""
        support = np.flatnonzero(self.counts)
        counts = self.counts.take(support)
        return support, counts, _positions(self, support, counts,
                                           len(self.keys), min_leaf)

    def sums(self, q: np.ndarray, rows: np.ndarray, support: np.ndarray):
        """Per bin of support (ascending, holding every bin of rows), the
        sum of q and the number of rows, over rows. The sums are exact:
        q is fixed-point."""
        self.slot[support] = np.arange(len(support))
        local = self.slot.take(self.keys.take(rows, axis=0)).ravel()
        return (np.bincount(local, weights=np.repeat(q.take(rows),
                                                     self.keys.shape[1]),
                            minlength=len(support)),
                np.bincount(local, minlength=len(support)))


def _positions(bins: _Bins, support: np.ndarray, counts: np.ndarray,
               m: int, min_leaf: int):
    """A node's split positions, from its non-empty bins (support,
    ascending) and its rows in each: their columns, and which bins a
    split may follow (min_leaf rows each side, and a valued bin next in
    the column), with the rows that go left of each."""
    column = bins.column.take(support)
    n_left = np.cumsum(counts)
    n_left -= column * m  # less the earlier columns, m rows each
    valid = n_left >= min_leaf
    valid &= n_left <= m - min_leaf
    valid[-1:] = False  # no bin follows the last (a node may be empty)
    valid[:-1] &= column[1:] == column[:-1]
    valid[:-1] &= ~np.isnan(bins.values.take(support[1:]))
    at = np.flatnonzero(valid)
    return column, at, n_left[at].astype(np.float64)


def _best_split(bins: _Bins, q, support, hist, positions, rows):
    """Best (column, threshold) for one node, or None: no valid position,
    the node is pure in q, or no gain is > 0. hist is the node's
    fixed-point sum per bin of support, and positions its _positions.
    Every sum is exact, so the gains depend on the node's rows alone,
    not on their order; the first maximum wins."""
    column, at, n_left = positions
    if at.size == 0:
        return None
    m = len(rows)
    q_node = q.take(rows)
    if q_node.max() == q_node.min():
        return None
    total = hist[:np.searchsorted(column, 1)].sum()  # column 0's; exact
    cum = np.cumsum(hist)[at]
    cum -= column[at] * total  # less the earlier columns' totals; exact
    gains = cum * cum / n_left + (total - cum) ** 2 / (m - n_left) \
        - total * total / m
    i = int(np.argmax(gains))
    if gains[i] <= 0:
        return None
    i = int(at[i])
    lo, hi = bins.values[support[i]], bins.values[support[i + 1]]
    return int(column[i]), lo + (hi - lo) / 2.0


def _grow_tree(
    x: np.ndarray,
    bins: _Bins,
    root: tuple,
    g: np.ndarray,
    h: np.ndarray,
    max_depth: int,
    min_leaf: int,
    frac_bits: int,
) -> tuple[Tree, np.ndarray]:
    """Level-wise greedy growth; returns the tree and each row's leaf id.

    root holds the root's non-empty bins, its rows per bin and its
    _positions. Each node carries its rows, its non-empty bins, and per
    bin its fixed-point sum of g and its rows. A split bins its smaller
    child over the parent's bins and takes the other as the parent
    minus it; the last level is not binned."""
    n, d = x.shape
    scale = 2.0 ** frac_bits
    q = np.rint(g * scale) / scale
    leaf_of = np.zeros(n, dtype=np.int64)
    splits = []  # (node, column, threshold); split i's children: 2i+1, 2i+2
    support, counts, positions = root
    hist = np.bincount(bins.keys.ravel(), weights=np.repeat(q, d),
                       minlength=len(bins.values)).take(support)
    level = [(0, np.arange(n), support, hist, counts)]
    for depth in range(max_depth):
        if not level:  # every node of the last level stayed a leaf
            break
        last = depth + 1 == max_depth
        nxt = []
        for node, rows, support, hist, counts in level:
            if node:
                positions = _positions(bins, support, counts, len(rows),
                                       min_leaf)
            split = _best_split(bins, q, support, hist, positions, rows)
            if split is None:
                continue
            j, thr = split
            # On values, not bins: the midpoint of adjacent floats can
            # round up to hi.
            goes = x[rows, j] <= thr
            child = 2 * len(splits) + 1
            splits.append((node, j, thr))
            kids = [rows[goes], rows[~goes]]
            leaf_of[kids[0]] = child
            leaf_of[kids[1]] = child + 1
            if last:
                continue
            small = int(len(kids[1]) < len(kids[0]))
            sums = [None, None]
            sums[small] = bins.sums(q, kids[small], support)
            sums[1 - small] = (hist - sums[small][0],
                               counts - sums[small][1])
            for i, (kid_hist, kid_counts) in enumerate(sums):
                keep = kid_counts > 0
                nxt.append((child + i, kids[i], support[keep],
                            kid_hist[keep], kid_counts[keep]))
        level = nxt

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

    bins = _Bins(x)
    root = bins.root(params.min_samples_leaf)
    # Every sum of up to n*d values of |q| <= 1 is then a float exactly.
    frac_bits = 52 - (n * d).bit_length()

    trees: list[Tree] = []
    p = sigmoid(margin)
    losses = [log_loss(y, p)]
    for _ in range(params.n_trees):
        tree, leaf_of = _grow_tree(x, bins, root, y - p, p * (1.0 - p),
                                   params.max_depth, params.min_samples_leaf,
                                   frac_bits)
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
