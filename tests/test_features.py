from __future__ import annotations

import numpy as np
import pytest

from readmit.errors import (
    EmptyAfterFiltering,
    MissingAge,
    UnmappableFamilyType,
    WidthMismatch,
)
from readmit.features import (
    CATEGORIES,
    CATEGORICAL_FIELDS,
    ColumnStats,
    FeatureSchema,
    canonicalize,
    category_label,
    encode,
    standardize,
)

from tests.helpers import FIXTURES, make_profile


class TestCanonicalize:
    def test_reason_eviction(self):
        assert canonicalize("eviction", "reason_homeless") == 0

    def test_employment_upper_case(self):
        assert canonicalize("EMPLOYED", "employment") == 1

    def test_race_residual(self):
        assert canonicalize("martian", "race") == 3

    def test_reason_residual(self):
        assert canonicalize("meteor strike", "reason_homeless") == 4

    def test_employment_residual(self):
        assert canonicalize("", "employment") == 2

    def test_citizenship_residual(self):
        assert canonicalize("unclear", "citizenship") == 0

    def test_family_type_has_no_residual(self):
        with pytest.raises(UnmappableFamilyType):
            canonicalize("commune", "family_type")

    def test_round_trip_all_categories(self):
        total = 0
        for fname in CATEGORICAL_FIELDS:
            for code in CATEGORIES[fname]:
                assert canonicalize(category_label(fname, code), fname) == code
                total += 1
        assert total == 19

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            canonicalize("x", "shoe_size")


class TestSchema:
    def test_column_count(self):
        assert FeatureSchema().n_columns == 20
        assert FeatureSchema(include_income=True).n_columns == 21

    def test_matches_golden_file(self):
        golden = (FIXTURES / "schema_golden.json").read_text()
        assert FeatureSchema().to_json() == golden

    def test_column_order_fixed(self):
        cols = FeatureSchema().columns
        assert cols[0] == "age"
        assert cols[1] == "race=White"
        assert cols[-1] == "citizenship=Undocumented"


class TestEncode:
    def test_single_profile_one_hot_arithmetic(self):
        profile = make_profile(age=30.0, race=1, family_type=2,
                               reason_homeless=0, employment=1, citizenship=1)
        result = encode([profile], FeatureSchema())
        matrix = result.dataset.matrix
        assert matrix.shape == (1, 20)
        assert matrix[0, 0] == 30.0
        assert int(np.sum(matrix[0, 1:] == 1.0)) == 5

    def test_one_hot_groups_sum_to_one(self):
        profiles = [
            make_profile(pid=f"P{i}", race=i % 4, family_type=i % 3,
                         reason_homeless=i % 5, employment=i % 3,
                         citizenship=i % 4)
            for i in range(12)
        ]
        matrix = encode(profiles, FeatureSchema()).dataset.matrix
        offset = 1
        for fname in CATEGORICAL_FIELDS:
            width = len(CATEGORIES[fname])
            group = matrix[:, offset:offset + width]
            assert np.all(group.sum(axis=1) == 1.0)
            offset += width

    def test_identical_profiles_identical_rows(self):
        profile = make_profile()
        matrix = encode([profile, profile], FeatureSchema()).dataset.matrix
        assert np.array_equal(matrix[0], matrix[1])

    def test_missing_income_rows_dropped_with_count(self):
        profiles = [
            make_profile(pid="A", income=1200.0),
            make_profile(pid="B", income=None),
        ]
        result = encode(profiles, FeatureSchema(include_income=True))
        assert result.dropped_missing_income == 1
        assert result.dataset.n_rows == 1
        assert result.dataset.matrix[0, -1] == 1200.0

    def test_all_rows_dropped_raises(self):
        with pytest.raises(EmptyAfterFiltering):
            encode([make_profile(income=None)],
                   FeatureSchema(include_income=True))

    def test_missing_age_imputed_with_fit_median(self):
        profiles = [
            make_profile(pid="A", age=20.0),
            make_profile(pid="B", age=40.0),
            make_profile(pid="C", age=None),
        ]
        result = encode(profiles, FeatureSchema())
        assert result.age_median == 30.0
        assert result.dataset.matrix[2, 0] == 30.0

    def test_missing_age_uses_supplied_median(self):
        result = encode([make_profile(age=None)], FeatureSchema(),
                        age_median=37.0)
        assert result.dataset.matrix[0, 0] == 37.0

    def test_no_known_age_raises(self):
        with pytest.raises(MissingAge):
            encode([make_profile(age=None)], FeatureSchema())

    def test_nan_median_leaves_missing_ages_nan(self):
        result = encode([make_profile(pid="A", age=None),
                         make_profile(pid="B", age=41.0)], FeatureSchema(),
                        age_median=float("nan"))
        assert np.isnan(result.dataset.matrix[0, 0])
        assert result.dataset.matrix[1, 0] == 41.0

    def test_no_missing_values_ever(self):
        rng = np.random.default_rng(5)
        profiles = [
            make_profile(
                pid=f"P{i}",
                age=None if rng.random() < 0.3 else float(rng.integers(18, 80)),
                race=int(rng.integers(0, 4)),
                family_type=int(rng.integers(0, 3)),
                reason_homeless=int(rng.integers(0, 5)),
                employment=int(rng.integers(0, 3)),
                citizenship=int(rng.integers(0, 4)),
            )
            for i in range(50)
        ]
        matrix = encode(profiles, FeatureSchema()).dataset.matrix
        assert np.all(np.isfinite(matrix))

    def test_labels_follow_readmit(self):
        profiles = [make_profile(pid="A"), make_profile(pid="B", n_episodes=2)]
        labels = encode(profiles, FeatureSchema()).dataset.labels
        assert labels.tolist() == [0, 1]


class TestStandardize:
    def test_fit_hand_arithmetic(self):
        profiles = [make_profile(pid=f"P{i}", age=a)
                    for i, a in enumerate((20.0, 30.0, 40.0))]
        dataset = encode(profiles, FeatureSchema()).dataset
        out, stats = standardize(dataset)
        assert stats.mean[0] == 30.0
        assert stats.scale[0] == 10.0  # sample sd, n-1 denominator
        assert out.matrix[:, 0].tolist() == [-1.0, 0.0, 1.0]

    def test_apply_supplied_stats(self):
        dataset = encode([make_profile(age=50.0)], FeatureSchema()).dataset
        stats = ColumnStats(mean=np.array([30.0] + [0.0] * 19),
                            scale=np.array([10.0] + [1.0] * 19))
        out, _ = standardize(dataset, stats)
        assert out.matrix[0, 0] == 2.0

    def test_constant_column_unchanged(self):
        profiles = [make_profile(pid=f"P{i}", age=33.0) for i in range(4)]
        dataset = encode(profiles, FeatureSchema()).dataset
        out, _ = standardize(dataset)
        assert np.all(out.matrix[:, 0] == 33.0)

    def test_one_hot_columns_untouched(self):
        profiles = [make_profile(pid=f"P{i}", age=float(20 + i), race=i % 4)
                    for i in range(8)]
        dataset = encode(profiles, FeatureSchema()).dataset
        out, _ = standardize(dataset)
        assert np.array_equal(out.matrix[:, 1:], dataset.matrix[:, 1:])

    def test_width_mismatch(self):
        dataset = encode([make_profile()], FeatureSchema()).dataset
        stats = ColumnStats(mean=np.zeros(3), scale=np.ones(3))
        with pytest.raises(WidthMismatch):
            standardize(dataset, stats)
