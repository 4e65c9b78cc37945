from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from readmit import resample
from readmit.errors import ClassTooSmall, MinorityTooSmall
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
    base = rng.normal(size=(max(1, m // 3), 3))  # duplicated rows
    return base[rng.integers(0, len(base), size=m)]


KINDS = ["binary", "rounded", "duplicated", "mixed"]


class TestNearestNeighbors:
    @pytest.mark.parametrize("block", [2, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_blocks_match_stable_argsort(self, monkeypatch, block, kind):
        monkeypatch.setattr(resample, "NEIGHBOR_BLOCK", block)
        for m in (block - 1, block, block + 1, 2 * block + 1):
            if m < 2:
                continue
            points = tie_heavy_points(kind, m, seed=10 * block + m)
            for k in sorted({1, min(2, m - 1), m - 1}):
                got = resample._nearest_minority_neighbors(points, k)
                want = stable_argsort_neighbors(points, k)
                assert np.array_equal(got, want), (m, k)

    @pytest.mark.parametrize("kind", KINDS)
    def test_many_blocks_match_stable_argsort(self, monkeypatch, kind):
        monkeypatch.setattr(resample, "NEIGHBOR_BLOCK", 3)
        for seed in range(20):
            points = tie_heavy_points(kind, 40, seed=seed)
            for k in (1, 5, 11, 39):
                got = resample._nearest_minority_neighbors(points, k)
                want = stable_argsort_neighbors(points, k)
                assert np.array_equal(got, want), (seed, k)

    def test_default_block_matches_stable_argsort(self):
        m = resample.NEIGHBOR_BLOCK * 2 + 1
        points = tie_heavy_points("binary", m, seed=1)
        got = resample._nearest_minority_neighbors(points, 5)
        assert np.array_equal(got, stable_argsort_neighbors(points, 5))

    @pytest.mark.parametrize("kind", KINDS)
    def test_block_distances_are_exact_and_symmetric(self, monkeypatch,
                                                      kind):
        monkeypatch.setattr(resample, "NEIGHBOR_BLOCK", 3)
        points = tie_heavy_points(kind, 31, seed=4)  # last block: 1 row
        d2 = np.vstack([block.copy() for _, block
                        in resample._distance_blocks(points)])
        want = brute_force_sq_distances(points)
        assert d2.tobytes() == want.tobytes()
        assert d2.tobytes() == np.ascontiguousarray(d2.T).tobytes()
        same = (points[:, None, :] == points[None, :, :]).all(axis=2)
        if kind == "duplicated":
            assert same.sum() > len(points)  # some rows repeat
        assert np.all(d2[same] == 0.0)

    @pytest.mark.parametrize("m", [3000, 6000])
    def test_peak_memory_linear_in_rows(self, m):
        rng = np.random.default_rng(0)
        points = np.hstack([
            np.round(rng.normal(size=(m, 3)), 1),
            rng.integers(0, 2, size=(m, 17)).astype(np.float64),
        ])
        tracemalloc.start()
        try:
            resample._nearest_minority_neighbors(points, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = resample.NEIGHBOR_BLOCK * m * 8
        assert peak < 6 * block_bytes, peak / block_bytes
