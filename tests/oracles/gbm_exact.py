"""Reference exact-greedy boosted-tree fitter: one column at a time.

The former implementation of readmit.models.fit_gbm, kept to check its
histogram split search bit for bit. Each node scans its columns one by
one over per-column row orders, takes a sequential cumsum of the
residuals in each, and every split re-partitions all of them. It
searches on the same fixed-point residuals q as fit_gbm (see the
readmit.models docstring), so each of its sums is exact, as the
histogram sums are; leaf values come from the float residuals. Trees
and train_loss must equal fit_gbm's exactly; memory is the baseline the
production fitter is bounded against.
"""

from __future__ import annotations

import numpy as np

from readmit.features import EncodedDataset
from readmit.models import (
    LEAF_HESSIAN_FLOOR,
    LEAF_VALUE_LIMIT,
    GbmModel,
    TrainConfig,
    Tree,
    log_loss,
    sigmoid,
)


def _best_split(
    x: np.ndarray,
    q: np.ndarray,
    col_orders: list[np.ndarray],
    min_leaf: int,
) -> tuple[int, float] | None:
    """Best (column, midpoint threshold) by squared-error reduction on q.

    Returns None when the node is pure in q or no valid position exists.
    np.argmax keeps the first maximum, so equal gains resolve to the
    lowest threshold; the strict > across columns keeps the lowest
    column index.
    """
    rows0 = col_orders[0]
    n_node = rows0.size
    if n_node < 2 or n_node < 2 * min_leaf:
        return None
    q_node = q[rows0]
    if q_node.max() == q_node.min():
        return None

    total = q_node.sum()
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
        cum = np.cumsum(q[rows])[:-1]
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
    q: np.ndarray,
    h: np.ndarray,
    max_depth: int,
    min_leaf: int,
) -> tuple[Tree, np.ndarray]:
    """Level-wise greedy growth; returns the tree and each row's leaf id.

    Splits are searched on q, g rounded to fixed point; leaf values come
    from g. root_orders holds, per column, the root rows sorted by that
    column; partitions inherit sortedness, so no per-node re-sorts are
    needed.
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
            split = _best_split(x, q, col_orders, min_leaf)
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


def fit_gbm_exact(data: EncodedDataset, config: TrainConfig) -> GbmModel:
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
    # fit_gbm's fixed point: any sum of up to n*d values of q is exact.
    scale = 2.0 ** (52 - (n * d).bit_length())

    trees: list[Tree] = []
    losses = [log_loss(y, sigmoid(margin))]
    for _ in range(params.n_trees):
        p = sigmoid(margin)
        g = y - p
        h = p * (1.0 - p)
        tree, leaf_of = _grow_tree(
            x, root_orders, g, np.rint(g * scale) / scale, h,
            params.max_depth, params.min_samples_leaf
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
