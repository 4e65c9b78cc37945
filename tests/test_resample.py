from __future__ import annotations

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from readmit import resample
from readmit.errors import (ClassTooSmall, MinorityTooSmall, NonFiniteRow,
                            SingleClass)
from readmit.features import EncodedDataset, FeatureSchema
from readmit.resample import (
    ORIGINAL,
    SmoteConfig,
    smote,
    smote_with_trace,
    stratified_folds,
    synthetic_count,
)


def imbalanced_dataset(minority: int, majority: int, d: int, seed: int):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(minority + majority, d))
    labels = np.concatenate([
        np.ones(minority, dtype=np.int64),
        np.zeros(majority, dtype=np.int64),
    ])
    perm = rng.permutation(len(labels))
    return EncodedDataset(
        matrix=matrix[perm],
        labels=labels[perm],
        schema=FeatureSchema(),
    )


class TestStratifiedFolds:
    def test_exact_divisibility(self):
        labels = [1] * 5 + [0] * 5
        plan = stratified_folds(labels, 5, seed=1)
        for fold in range(5):
            test = plan.test_indices(fold)
            assert len(test) == 2
            assert sum(labels[i] for i in test) == 1

    def test_same_seed_identical(self):
        labels = np.random.default_rng(0).integers(0, 2, 200)
        a = stratified_folds(labels, 4, seed=9)
        b = stratified_folds(labels, 4, seed=9)
        assert np.array_equal(a.assignments, b.assignments)

    def test_every_row_in_exactly_one_fold(self):
        labels = np.random.default_rng(1).integers(0, 2, 137)
        plan = stratified_folds(labels, 5, seed=2)
        seen = np.concatenate([plan.test_indices(f) for f in range(5)])
        assert sorted(seen.tolist()) == list(range(137))

    def test_class_too_small(self):
        with pytest.raises(ClassTooSmall):
            stratified_folds([1, 1, 0, 0, 0, 0], 3, seed=0)

    @pytest.mark.parametrize("labels", [[0] * 6, [1] * 6])
    def test_one_class_is_not_a_fold_count_problem(self, labels):
        with pytest.raises(SingleClass, match="no row of class"):
            stratified_folds(labels, 2, seed=0)

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValueError):
            stratified_folds([0, 1, 2, 0, 1, 2], 2, seed=0)

    def test_cohort_scale_minority_fraction_bounds(self):
        # 19% minority at cohort scale: every fold within +/-2 points.
        rng = np.random.default_rng(42)
        labels = (rng.random(6779) < 0.19).astype(np.int64)
        plan = stratified_folds(labels, 5, seed=7)
        for fold in range(5):
            test = plan.test_indices(fold)
            frac = labels[test].mean()
            assert 0.17 <= frac <= 0.21


class TestSyntheticCount:
    def test_balanced_target(self):
        assert synthetic_count(20, 80, 1.0) == 60

    def test_clamped_at_zero(self):
        assert synthetic_count(20, 80, 0.2) == 0

    def test_original_sentinel(self):
        assert synthetic_count(1289, 5490, ORIGINAL) == 0

    def test_monotone_in_ratio(self):
        counts = [synthetic_count(37, 163, r)
                  for r in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
        assert counts == sorted(counts)


class TestSmote:
    def test_original_passthrough(self):
        data = imbalanced_dataset(1289, 5490, 4, seed=0)
        out = smote(data, SmoteConfig(ratio=ORIGINAL, seed=1))
        assert out is data

    def test_balanced_counts(self):
        data = imbalanced_dataset(20, 80, 3, seed=1)
        out = smote(data, SmoteConfig(ratio=1.0, seed=2))
        assert out.n_rows == 160
        assert int(np.sum(out.labels == 1)) == 80
        assert int(np.sum(out.labels == 0)) == 80

    def test_ratio_below_current_is_noop(self):
        data = imbalanced_dataset(20, 80, 3, seed=2)
        out = smote(data, SmoteConfig(ratio=0.2, seed=3))
        assert out.n_rows == 100

    def test_minority_too_small(self):
        data = imbalanced_dataset(5, 50, 3, seed=3)
        with pytest.raises(MinorityTooSmall):
            smote(data, SmoteConfig(ratio=1.0, k=5, seed=0))

    def test_small_minority_already_at_ratio_is_a_no_op(self):
        # 5 / 50 already meets 0.05, so no neighbours are needed.
        data = imbalanced_dataset(5, 50, 3, seed=3)
        out, trace = smote_with_trace(data, SmoteConfig(ratio=0.05, k=5))
        assert out is data
        assert len(trace.parent_rows) == 0

    def test_original_rows_unchanged_and_first(self):
        data = imbalanced_dataset(15, 60, 4, seed=4)
        out = smote(data, SmoteConfig(ratio=0.8, seed=5))
        assert np.array_equal(out.matrix[:75], data.matrix)
        assert np.array_equal(out.labels[:75], data.labels)

    def test_synthetic_rows_inside_parent_box(self):
        for seed in range(20):
            data = imbalanced_dataset(12, 40, 5, seed=seed)
            config = SmoteConfig(ratio=1.0, k=3, seed=seed + 100)
            out, trace = smote_with_trace(data, config)
            synthetic = out.matrix[data.n_rows:]
            lo = np.minimum(data.matrix[trace.parent_rows],
                            data.matrix[trace.partner_rows])
            hi = np.maximum(data.matrix[trace.parent_rows],
                            data.matrix[trace.partner_rows])
            assert np.all(synthetic >= lo - 1e-12)
            assert np.all(synthetic <= hi + 1e-12)

    def test_parents_are_minority_neighbors(self):
        data = imbalanced_dataset(10, 30, 3, seed=6)
        out, trace = smote_with_trace(data, SmoteConfig(ratio=1.0, k=2, seed=7))
        assert np.all(data.labels[trace.parent_rows] == 1)
        assert np.all(data.labels[trace.partner_rows] == 1)
        assert np.all(trace.parent_rows != trace.partner_rows)
        assert np.all(out.labels[data.n_rows:] == 1)

    def test_deterministic(self):
        data = imbalanced_dataset(25, 75, 6, seed=8)
        config = SmoteConfig(ratio=0.9, seed=11)
        a = smote(data, config)
        b = smote(data, config)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.labels, b.labels)

    def test_post_ratio_reaches_target(self):
        data = imbalanced_dataset(23, 91, 4, seed=9)
        for ratio in (0.3, 0.55, 1.0):
            out = smote(data, SmoteConfig(ratio=ratio, seed=1))
            m = int(np.sum(out.labels == 1))
            assert m / 91 >= ratio
            assert m == 23 + synthetic_count(23, 91, ratio)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SmoteConfig(ratio=1.5)
        with pytest.raises(ValueError):
            SmoteConfig(ratio=0.0)
        with pytest.raises(ValueError):
            SmoteConfig(ratio=0.5, k=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_minority_row_is_named(self, bad):
        # 12 minority rows of 4 columns; the first bad cell is named.
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(36, 4))
        labels = np.repeat(np.array([0, 1, 0]), 12)  # minority rows 12..23
        matrix[30, 0] = np.nan  # a majority row is never searched
        matrix[17, 2] = bad
        matrix[20, 0] = bad
        data = EncodedDataset(matrix=matrix, labels=labels,
                              schema=FeatureSchema())
        want = f"^row 17, column 2: minority value {bad!r} "
        with pytest.raises(NonFiniteRow, match=want):
            smote_with_trace(data, SmoteConfig(ratio=1.0, k=3))


def brute_force_sq_distances(points):
    """Reference distance rule, one pair at a time: the binary columns
    (every value exactly 0.0 or 1.0) give the integer
    ones_a + ones_b - 2 bits_a.bits_b, then each other column c adds
    (a_c - b_c)**2 in column order."""
    binary = [c for c in range(points.shape[1])
              if all(v in (0.0, 1.0) for v in points[:, c])]
    other = [c for c in range(points.shape[1]) if c not in binary]
    rows = points.tolist()
    d2 = np.empty((len(rows), len(rows)))
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            ones_a = sum(a[c] == 1.0 for c in binary)
            ones_b = sum(b[c] == 1.0 for c in binary)
            both = sum(a[c] == b[c] == 1.0 for c in binary)
            total = float(ones_a + ones_b - 2 * both)
            for c in other:
                diff = a[c] - b[c]
                total += diff * diff
            d2[i, j] = total
    return d2


def stable_argsort_neighbors(points, k):
    """Reference selection: brute-force distances, stable argsort."""
    d2 = brute_force_sq_distances(points)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def tie_heavy_points(kind: str, m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "binary":
        return rng.integers(0, 2, size=(m, 4)).astype(np.float64)
    if kind == "rounded":
        return np.round(rng.normal(size=(m, 3)), 1)
    if kind == "mixed":  # like encoded rows: continuous, then one-hot
        return np.hstack([np.round(rng.normal(size=(m, 2)), 1),
                          rng.integers(0, 2, size=(m, 3)).astype(np.float64)])
    if kind == "wide":  # binary columns span two 64-bit words
        return np.hstack([rng.integers(0, 2, size=(m, 70)).astype(np.float64),
                          np.round(rng.normal(size=(m, 1)), 1)])
    base = rng.normal(size=(max(1, m // 3), 3))  # duplicated rows
    return base[rng.integers(0, len(base), size=m)]


KINDS = ["binary", "rounded", "duplicated", "mixed", "wide"]


# The neighbour search's result must not depend on how many threads it
# shares its blocks out to.
THREAD_BUDGETS = (1, 2, 3)


def assert_matches_stable_argsort(monkeypatch, points, k):
    want = stable_argsort_neighbors(points, k)
    for threads in THREAD_BUDGETS:
        monkeypatch.setattr(resample, "SEARCH_THREADS", threads)
        got = resample._nearest_minority_neighbors(points, k)
        assert np.array_equal(got, want), (threads, len(points), k)


class TestNearestNeighbors:
    @pytest.mark.parametrize("block", [2, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_blocks_match_stable_argsort(self, monkeypatch, block, kind):
        monkeypatch.setattr(resample, "NEIGHBOR_BLOCK", block)
        for m in (block - 1, block, block + 1, 2 * block + 1, 4 * block + 1):
            if m < 2:
                continue
            points = tie_heavy_points(kind, m, seed=10 * block + m)
            for k in sorted({1, min(2, m - 1), m - 1}):
                assert_matches_stable_argsort(monkeypatch, points, k)

    @pytest.mark.parametrize("kind", KINDS)
    def test_many_blocks_match_stable_argsort(self, monkeypatch, kind):
        monkeypatch.setattr(resample, "NEIGHBOR_BLOCK", 3)
        for seed in range(20):
            points = tie_heavy_points(kind, 40, seed=seed)
            for k in (1, 5, 11, 39):
                assert_matches_stable_argsort(monkeypatch, points, k)

    def test_threads_switching_often_match_stable_argsort(self,
                                                          monkeypatch):
        # Up to three threads, handing the interpreter lock over as often
        # as they can: each block still writes only its own rows.
        monkeypatch.setattr(resample, "NEIGHBOR_BLOCK", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(5):
                points = tie_heavy_points("mixed", 60, seed=seed)
                assert_matches_stable_argsort(monkeypatch, points, 7)
        finally:
            sys.setswitchinterval(interval)

    def test_default_block_matches_stable_argsort(self, monkeypatch):
        m = resample.NEIGHBOR_BLOCK * 2 + 1
        for kind in KINDS:
            points = tie_heavy_points(kind, m, seed=1)
            for k in (1, 5, m - 1):
                assert_matches_stable_argsort(monkeypatch, points, k)

    @pytest.mark.parametrize("block", [3, 64])
    def test_identical_rows_take_the_lowest_indices(self, monkeypatch, block):
        monkeypatch.setattr(resample, "NEIGHBOR_BLOCK", block)
        for m, k in ((6, 5), (10, 3), (150, 5), (3000, 5)):
            points = np.tile([0.25, 1.0, 0.0], (m, 1))
            want = [[j for j in range(k + 1) if j != i][:k] for i in range(m)]
            for threads in THREAD_BUDGETS:
                monkeypatch.setattr(resample, "SEARCH_THREADS", threads)
                got = resample._nearest_minority_neighbors(points, k)
                assert got.tolist() == want, (threads, m, k)

    @pytest.mark.parametrize("kind", KINDS)
    def test_block_distances_are_exact_and_symmetric(self, kind):
        points = tie_heavy_points(kind, 31, seed=4)  # last block: 1 row
        words, other = resample._packed_columns(points)
        d2 = np.vstack([block.copy() for _, block in resample._distance_blocks(
            words, other, range(0, len(points), 3), 3)])
        want = brute_force_sq_distances(points)
        assert d2.tobytes() == want.tobytes()
        assert d2.tobytes() == np.ascontiguousarray(d2.T).tobytes()
        same = (points[:, None, :] == points[None, :, :]).all(axis=2)
        if kind == "duplicated":
            assert same.sum() > len(points)  # some rows repeat
        assert np.all(d2[same] == 0.0)

    @pytest.mark.parametrize("m, kind", [
        (3000, "mixed"), (6000, "mixed"),
        (3000, "identical"), (3000, "two-binary"),
    ], ids=["3000", "6000", "identical-3000", "two-binary-3000"])
    def test_peak_memory_linear_in_rows(self, monkeypatch, m, kind):
        rng = np.random.default_rng(0)
        if kind == "mixed":
            points = np.hstack([
                np.round(rng.normal(size=(m, 3)), 1),
                rng.integers(0, 2, size=(m, 17)).astype(np.float64),
            ])
        elif kind == "identical":  # every distance ties at 0
            points = np.full((m, 4), 0.5)
        else:  # four distinct rows: every row ties with about m/4 others
            points = rng.integers(0, 2, size=(m, 2)).astype(np.float64)
        block_bytes = resample.NEIGHBOR_BLOCK * m * 8
        for threads in (1, 2):
            monkeypatch.setattr(resample, "SEARCH_THREADS", threads)
            tracemalloc.start()
            try:
                resample._nearest_minority_neighbors(points, 5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * block_bytes, (threads, peak / block_bytes)

    def test_search_threads_share_out_the_blocks(self, monkeypatch):
        # Each block is searched on exactly one thread, and each thread
        # searches its own blocks: blocks of NEIGHBOR_BLOCK // threads rows.
        seen = []
        distance_blocks = resample._distance_blocks

        def recording_blocks(words, other, starts, size):
            seen.append((threading.current_thread(), list(starts), size))
            return distance_blocks(words, other, starts, size)

        monkeypatch.setattr(resample, "_distance_blocks", recording_blocks)
        monkeypatch.setattr(resample, "NEIGHBOR_BLOCK", 8)
        points = tie_heavy_points("mixed", 30, seed=2)
        # 30 rows make four blocks of 8, so at most four threads start.
        for threads, size, n_threads in ((1, 8, 1), (2, 4, 2), (3, 2, 3),
                                         (9, 2, 4)):
            monkeypatch.setattr(resample, "SEARCH_THREADS", threads)
            seen.clear()
            resample._nearest_minority_neighbors(points, 3)
            assert len({thread for thread, _, _ in seen}) == n_threads
            assert {s for _, _, s in seen} == {size}
            starts = sorted(a for _, share, _ in seen for a in share)
            assert starts == list(range(0, 30, size))

    def test_search_error_in_a_thread_is_raised(self, monkeypatch):
        distance_blocks = resample._distance_blocks

        def failing_blocks(words, other, starts, size):
            if starts[0] != 0:  # not the calling thread's share
                raise MemoryError("block search failed")
            return distance_blocks(words, other, starts, size)

        monkeypatch.setattr(resample, "_distance_blocks", failing_blocks)
        monkeypatch.setattr(resample, "SEARCH_THREADS", 2)
        points = tie_heavy_points("mixed", 3 * resample.NEIGHBOR_BLOCK,
                                  seed=3)
        threads_before = threading.active_count()
        with pytest.raises(MemoryError, match="block search failed"):
            resample._nearest_minority_neighbors(points, 3)
        assert threading.active_count() == threads_before


@pytest.mark.skipif(not hasattr(os, "fork")
                    or not os.path.isdir("/proc/self/task"),
                    reason="needs os.fork and /proc/self/task")
def test_oversampling_in_a_forked_worker_starts_no_thread():
    """A GBM sweep's workers are forked; SMOTE in one must not wake a
    BLAS thread pool, which would contend with the other workers. (The
    search's own threads end with the call; that a sweep's workers
    start none is checked in tests/test_parallel.py.)"""
    rng = np.random.default_rng(3)
    minority, majority = 400, 1200
    matrix = np.hstack([
        rng.normal(size=(minority + majority, 1)),
        rng.integers(0, 2, size=(minority + majority, 17)).astype(np.float64),
    ])
    labels = np.repeat(np.array([1, 0]), [minority, majority])
    data = EncodedDataset(matrix=matrix, labels=labels,
                          schema=FeatureSchema())
    pid = os.fork()
    if pid == 0:  # child: report through the exit code only
        code = 3
        try:
            before = len(os.listdir("/proc/self/task"))
            out = smote(data, SmoteConfig(ratio=1.0, seed=1))
            after = len(os.listdir("/proc/self/task"))
            code = 0 if (before == after
                         and out.n_rows == 2 * majority) else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
