"""Stratified fold construction and synthetic minority oversampling.

The oversampler follows Chawla-style SMOTE: each synthetic minority row
is a uniform interpolation between a minority row and one of its k
nearest minority neighbors (Euclidean over all encoded columns). The
target is expressed as a minority/majority count ratio after
oversampling; the sentinel "original" leaves the data untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassTooSmall, MinorityTooSmall
from .features import EncodedDataset
from .schema import ORIGINAL, SmoteConfig

NEIGHBOR_BLOCK = 256  # minority rows per neighbor-selection block


@dataclass(frozen=True)
class FoldPlan:
    assignments: np.ndarray  # (n_rows,) fold index per row

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def stratified_folds(labels, n_folds: int, seed: int) -> FoldPlan:
    """Assign rows to folds, preserving the class mix in every fold.

    Per class: seeded shuffle, then round-robin over folds. Deterministic
    given (labels, n_folds, seed).
    """
    labels = np.asarray(labels)
    if n_folds < 2:
        raise ValueError(f"n_folds must be >= 2, got {n_folds}")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be binary (0/1)")
    assignments = np.empty(len(labels), dtype=np.int64)
    rng = np.random.default_rng(seed)
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < n_folds:
            raise ClassTooSmall(
                f"class {cls} has {len(idx)} rows, fewer than {n_folds} folds"
            )
        rng.shuffle(idx)
        assignments[idx] = np.arange(len(idx)) % n_folds
    return FoldPlan(assignments=assignments)


def synthetic_count(minority: int, majority: int, ratio: float | str) -> int:
    """Rows to synthesize so minority/majority reaches ratio (never negative)."""
    if ratio == ORIGINAL:
        return 0
    return max(0, math.ceil(float(ratio) * majority) - minority)


def _nearest_minority_neighbors(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of each minority row's k nearest minority rows (self excluded).

    Squared distances use the expanded form ||a||^2 + ||b||^2 - 2 a.b,
    so rounding can make two distances that are equal in exact
    arithmetic differ in the last bits. Each row's neighbors are ordered
    by computed value; among equal computed values the lower row index
    comes first. Rows are selected NEIGHBOR_BLOCK at a time, so memory
    is the one m x m product a.b plus O(NEIGHBOR_BLOCK * m).
    """
    m = len(points)
    sq = np.sum(points**2, axis=1)
    # One product for all rows: per-block products would run different
    # BLAS kernels (gemv for a 1-row block) with different rounding.
    gram = points @ points.T
    out = np.empty((m, k), dtype=np.int64)
    for a in range(0, m, NEIGHBOR_BLOCK):
        b = min(a + NEIGHBOR_BLOCK, m)
        rows = np.arange(b - a)
        d2 = sq[a:b, None] + sq[None, :] - 2.0 * gram[a:b]
        d2[rows, rows + a] = np.inf
        kth = np.partition(d2, k - 1, axis=1)[:, [k - 1]]
        below = d2 < kth
        at_kth = d2 == kth
        # Of the entries tied at the k-th value, keep the lowest-index ones.
        room = k - np.count_nonzero(below, axis=1, keepdims=True)
        keep = below | (at_kth & (np.cumsum(at_kth, axis=1) <= room))
        cols = np.nonzero(keep)[1].reshape(b - a, k)  # ascending per row
        by_value = np.argsort(d2[rows[:, None], cols], axis=1, kind="stable")
        out[a:b] = np.take_along_axis(cols, by_value, axis=1)
    return out


@dataclass(frozen=True)
class SmoteTrace:
    """Provenance of each synthetic row: the dataset-row indices of its
    base parent and interpolation partner."""

    parent_rows: np.ndarray
    partner_rows: np.ndarray


def smote_with_trace(
    data: EncodedDataset, config: SmoteConfig
) -> tuple[EncodedDataset, SmoteTrace]:
    """Append interpolated minority rows until the target ratio is met.

    Original rows come first, bitwise unchanged; synthetic rows carry
    label 1. Each minority row receives an equal share of the synthetic
    budget; the remainder goes to a seeded draw of rows. Deterministic
    given (data, config).
    """
    empty = SmoteTrace(parent_rows=np.empty(0, dtype=np.int64),
                       partner_rows=np.empty(0, dtype=np.int64))
    if config.ratio == ORIGINAL:
        return data, empty

    labels = data.labels
    minority_idx = np.flatnonzero(labels == 1)
    m = len(minority_idx)
    majority = int(np.sum(labels == 0))
    if m <= config.k:
        raise MinorityTooSmall(
            f"minority has {m} rows; need more than k={config.k}"
        )

    n_syn = synthetic_count(m, majority, config.ratio)
    if n_syn == 0:
        return data, empty

    rng = np.random.default_rng(config.seed)
    points = data.matrix[minority_idx]
    neighbors = _nearest_minority_neighbors(points, config.k)

    counts = np.full(m, n_syn // m, dtype=np.int64)
    remainder = n_syn % m
    if remainder:
        counts[rng.choice(m, size=remainder, replace=False)] += 1

    parents = np.repeat(np.arange(m), counts)
    picked = rng.integers(0, config.k, size=n_syn)
    u = rng.random(n_syn)

    base = points[parents]
    partner = points[neighbors[parents, picked]]
    synthetic = base + u[:, None] * (partner - base)

    matrix = np.vstack([data.matrix, synthetic])
    out_labels = np.concatenate([labels, np.ones(n_syn, dtype=labels.dtype)])
    out = EncodedDataset(matrix=matrix, labels=out_labels, schema=data.schema)
    trace = SmoteTrace(
        parent_rows=minority_idx[parents],
        partner_rows=minority_idx[neighbors[parents, picked]],
    )
    return out, trace


def smote(data: EncodedDataset, config: SmoteConfig) -> EncodedDataset:
    """smote_with_trace without the provenance."""
    return smote_with_trace(data, config)[0]
