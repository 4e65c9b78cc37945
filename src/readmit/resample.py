"""Stratified fold construction and synthetic minority oversampling.

The oversampler follows Chawla-style SMOTE: each synthetic minority row
is a uniform interpolation between a minority row and one of its k
nearest minority neighbors (Euclidean over all encoded columns, exact
and with no BLAS call; see _distance_blocks), searched on every CPU
the process may use. The target is expressed as a minority/majority
count ratio after oversampling; the sentinel "original" leaves the data
untouched.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ClassTooSmall, MinorityTooSmall, NonFiniteRow, SingleClass
from .features import EncodedDataset
from .schema import ORIGINAL, SmoteConfig

NEIGHBOR_BLOCK = 64  # minority rows per neighbor-selection block, at most
# Threads the neighbour search shares each NEIGHBOR_BLOCK rows among;
# None means one per CPU (cpu_count). A sweep's pool workers set it to
# 1, so that they do not contend for the CPUs (evaluate._start_worker).
SEARCH_THREADS: int | None = None
# A search thread's two m-wide float64 block buffers, together, stay
# within this many bytes (a block has at least one row), so that they
# stay in the CPU's cache as m grows.
SEARCH_BUFFER_BYTES = 1 << 20


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
    given (labels, n_folds, seed). Labels of one class raise SingleClass,
    and a class of fewer than n_folds rows raises ClassTooSmall.
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
        if not len(idx):
            raise SingleClass(f"labels hold no row of class {cls}")
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


def _packed_columns(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(words, other): the binary columns of points packed into 64-bit
    words, one contiguous row of m words per 64 columns (at least one
    row), and each other column as one contiguous row of m values.

    A column whose values are all exactly 0.0 or 1.0 is binary (the
    one-hot columns of encoded rows).
    """
    binary = np.all((points == 0.0) | (points == 1.0), axis=0)
    n_bits = np.count_nonzero(binary)
    bits = np.zeros((len(points), 64 * max(1, -(-n_bits // 64))), dtype=bool)
    bits[:, :n_bits] = (points == 1.0)[:, binary]
    words = np.ascontiguousarray(np.packbits(bits, axis=1).view(np.uint64).T)
    return words, np.ascontiguousarray(points[:, ~binary].T)


def _distance_blocks(words: np.ndarray, other: np.ndarray, starts,
                     buffers: tuple[np.ndarray, np.ndarray]):
    """Yield (start, d2) for each start in starts, where d2[i, j] is the
    squared distance from row start + i to row j, for size rows (fewer
    where the m rows end).

    words and other are _packed_columns' split of the points. buffers
    is the caller's pair of (size, m) arrays: d2 is a view of the first,
    which the next block overwrites, and the second is scratch. So the
    blocks allocate nothing, on whichever thread they run (a thread's
    own malloc arena would keep the pages). The distance starts from
    the binary part, the number of binary columns where the rows
    differ, counted by XOR and popcount over the packed words. It then
    adds (a_c - b_c)**2 for each other column c in column order, each a
    correctly rounded elementwise operation. No step calls BLAS, so
    every distance is fixed by the points alone, d2(a, b) and d2(b, a)
    are the same bits, and duplicated rows are at distance exactly 0.
    A matrix with no binary column gets the plain sum of squared
    differences.
    """
    m = words.shape[1]
    d2_buf, spare_buf = buffers
    size = len(d2_buf)
    for a in starts:
        b = min(a + size, m)
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
        yield a, d2


def _nearest_minority_neighbors(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of each minority row's k nearest minority rows (self excluded).

    points must be finite. Distances follow _distance_blocks, so they
    are exact in the sense given there and never depend on the CPU.
    Each row's neighbors are the k smallest distances, ordered by
    value; among equal values the lower row index comes first. A block
    of rows takes them by k passes of argmin along its rows, which
    returns the first index of the smallest value: the row itself is
    set to inf first, and each pass's pick after it. So the cost grows
    with k, and even when every distance ties, no pass does more than
    read the block once.

    The blocks are shared out among SEARCH_THREADS threads (one per
    CPU when it is None), at most one per NEIGHBOR_BLOCK rows. Each
    thread has its own two buffers of NEIGHBOR_BLOCK // threads rows,
    or fewer where m is large, so that they hold at most
    SEARCH_BUFFER_BYTES together; memory stays O(NEIGHBOR_BLOCK * m)
    in all. They are allocated here, on the calling thread. Each block
    writes only its own rows of the result, which is therefore the same
    for any number of threads and any block size.
    """
    m = len(points)
    out = np.empty((m, k), dtype=np.int64)
    words, other = _packed_columns(points)
    threads = min(SEARCH_THREADS or cpu_count(), NEIGHBOR_BLOCK,
                  -(-m // NEIGHBOR_BLOCK))
    size = max(1, min(NEIGHBOR_BLOCK // threads,
                      SEARCH_BUFFER_BYTES // (2 * 8 * m)))
    starts = range(0, m, size)
    buffers = [(np.empty((min(size, m), m)), np.empty((min(size, m), m)))
               for _ in range(threads)]

    def search(t: int) -> None:
        for a, d2 in _distance_blocks(words, other, starts[t::threads],
                                      buffers[t]):
            rows = np.arange(len(d2))
            d2[rows, rows + a] = np.inf
            picks = out[a : a + len(d2)].T
            for j, pick in enumerate(picks):
                d2.argmin(axis=1, out=pick)
                if j < k - 1:
                    d2[rows, pick] = np.inf

    _run_in_threads(search, list(range(threads)))
    return out


def cpu_count() -> int:
    """CPUs this process may use: its affinity mask, so ``taskset``
    limits it; one where the mask cannot be read."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _run_in_threads(work, shares: list) -> None:
    """work(share) for each share: the first on this thread, each other
    on a thread of its own. Returns once every thread has ended, then
    re-raises the first error a started thread raised."""
    errors: list[BaseException] = []

    def guarded(share) -> None:
        try:
            work(share)
        except BaseException as exc:  # re-raised below, in this thread
            errors.append(exc)

    started = [threading.Thread(target=guarded, args=(share,))
               for share in shares[1:]]
    for thread in started:
        thread.start()
    try:
        work(shares[0])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


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
    given (data, config). A minority row holding a NaN or infinite
    value is a NonFiniteRow error, raised before any distance is taken.
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
    if not np.isfinite(points).all():
        i, col = np.argwhere(~np.isfinite(points))[0]
        raise NonFiniteRow(
            f"row {minority_idx[i]}, column {col}: minority value "
            f"{float(points[i, col])!r} has no distance to other rows"
        )
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
