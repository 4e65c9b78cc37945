"""Stratified fold construction and synthetic minority oversampling.

The oversampler follows Chawla-style SMOTE: each synthetic minority row
is a uniform interpolation between a minority row and one of its k
nearest minority neighbors (Euclidean over all encoded columns, exact
and with no BLAS call; see _distance_blocks). The target is expressed as a minority/majority count ratio after
oversampling; the sentinel "original" leaves the data untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassTooSmall, MinorityTooSmall
from .features import EncodedDataset
from .schema import ORIGINAL, SmoteConfig

NEIGHBOR_BLOCK = 64  # minority rows per neighbor-selection block


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


def _distance_blocks(points: np.ndarray):
    """Yield (start, d2, spare) for each NEIGHBOR_BLOCK rows of points,
    where d2[i, j] is the squared distance from row start + i to row j
    and spare is a free buffer of d2's shape.

    Both are reused buffers: the next block overwrites them. A column
    whose values are all exactly 0.0 or 1.0 is binary (the one-hot
    columns of encoded rows). The distance starts from the binary
    part, the number of binary columns where the rows differ, counted
    by XOR and popcount over the columns packed into 64-bit words.
    It then adds (a_c - b_c)**2 for each other column c in column
    order, each a correctly rounded elementwise operation. No step
    calls BLAS, so every distance is fixed by the points alone,
    d2(a, b) and d2(b, a) are the same bits, and duplicated rows are
    at distance exactly 0. A matrix with no binary column gets the
    plain sum of squared differences.
    """
    m = len(points)
    binary = np.all((points == 0.0) | (points == 1.0), axis=0)
    n_bits = np.count_nonzero(binary)
    bits = np.zeros((m, 64 * max(1, -(-n_bits // 64))), dtype=bool)
    bits[:, :n_bits] = (points == 1.0)[:, binary]
    words = np.ascontiguousarray(np.packbits(bits, axis=1).view(np.uint64).T)
    other = np.ascontiguousarray(points[:, ~binary].T)
    d2_buf = np.empty((min(NEIGHBOR_BLOCK, m), m))
    spare_buf = np.empty_like(d2_buf)
    for a in range(0, m, NEIGHBOR_BLOCK):
        b = min(a + NEIGHBOR_BLOCK, m)
        d2 = d2_buf[: b - a]
        spare = spare_buf[: b - a]
        differ = spare.view(np.uint64)
        for w, word in enumerate(words):
            np.bitwise_xor(word[a:b, None], word, out=differ)
            if w == 0:
                np.bitwise_count(differ, out=d2)
            else:
                d2 += np.bitwise_count(differ, out=differ)
        for col in other:
            np.subtract(col[a:b, None], col, out=spare)
            np.square(spare, out=spare)
            d2 += spare
        yield a, d2, spare


def _nearest_minority_neighbors(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of each minority row's k nearest minority rows (self excluded).

    Distances follow _distance_blocks, so they are exact in the sense
    given there and never depend on the CPU. Each row's neighbors are
    the k smallest distances, ordered by value; among equal values the
    lower row index comes first. Rows are handled NEIGHBOR_BLOCK at a
    time: one partition finds each row's k-th smallest distance, one
    compare takes the candidates at or below it, and where more than k
    tie, the highest-index ties are dropped. So memory is
    O(NEIGHBOR_BLOCK * m) even when every distance ties.
    """
    m = len(points)
    out = np.empty((m, k), dtype=np.int64)
    for a, d2, spare in _distance_blocks(points):
        n = len(d2)
        rows = np.arange(n)
        d2[rows, rows + a] = np.inf
        np.copyto(spare, d2)
        spare.partition(k - 1, axis=1)
        kth = spare[:, k - 1]
        keep = d2 <= kth[:, None]
        excess = np.count_nonzero(keep, axis=1) - k
        for i in np.flatnonzero(excess):
            # Only entries equal to the k-th value can be in excess.
            ties = np.flatnonzero(d2[i] == kth[i])
            keep[i, ties[len(ties) - excess[i]:]] = False
        # Flat indices, ascending per row; much faster than 2-d nonzero.
        cols = np.flatnonzero(keep).reshape(n, k) - (m * rows)[:, None]
        by_value = np.argsort(d2[rows[:, None], cols], axis=1, kind="stable")
        out[a : a + n] = np.take_along_axis(cols, by_value, axis=1)
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
    n_syn = synthetic_count(m, majority, config.ratio)
    if n_syn == 0:
        return data, empty
    if m <= config.k:
        raise MinorityTooSmall(
            f"minority has {m} rows; need more than k={config.k}"
        )

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
