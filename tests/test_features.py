from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from readmit.cohort import ProfileTable, read_profiles, write_profiles
from readmit.errors import (
    EmptyAfterFiltering,
    MissingAge,
    UnmappableFamilyType,
    WidthMismatch,
)
from readmit import features
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

    @pytest.mark.parametrize("include_income", [False, True])
    def test_one_hot_groups_cover_each_field(self, include_income):
        schema = FeatureSchema(include_income=include_income)
        cols = schema.columns
        groups = schema.one_hot_groups
        assert [cols[g][0].split("=")[0] for g in groups] == \
            list(CATEGORICAL_FIELDS)
        assert all(c.startswith(cols[g][0].split("=")[0] + "=")
                   for g in groups for c in cols[g])
        assert sum(g.stop - g.start for g in groups) == 19


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

    def test_missing_ages_stay_nan(self):
        result = encode([make_profile(pid="A", age=None),
                         make_profile(pid="B", age=41.0)], FeatureSchema())
        assert np.isnan(result.dataset.matrix[0, 0])
        assert result.dataset.matrix[1, 0] == 41.0

    def test_labels_follow_readmit(self):
        profiles = [make_profile(pid="A"), make_profile(pid="B", n_episodes=2)]
        labels = encode(profiles, FeatureSchema()).dataset.labels
        assert labels.tolist() == [0, 1]


def cohort_profiles(kind: str) -> list:
    """30 profiles over every category code. "blank-ages": every third
    age blank and every other income; "late-incomes": only the last two
    profiles have an income."""
    return [
        make_profile(pid=f"P{i:02d}",
                     age=(None if kind == "blank-ages" and i % 3 == 0
                          else 18.5 + i),
                     race=i % 4, family_type=i % 3, reason_homeless=i % 5,
                     employment=i % 3, citizenship=(i // 2) % 4,
                     income=(0.1 * i if (i >= 28 if kind == "late-incomes"
                                         else i % 2 == 0) else None),
                     n_episodes=1 + i % 3)
        for i in range(30)
    ]


class TestEncodeInputs:
    """A ProfileTable and a list of the same records encode alike."""

    @pytest.mark.parametrize("include_income", [False, True],
                             ids=["no-income", "income"])
    @pytest.mark.parametrize("kind", ["blank-ages", "late-incomes"])
    def test_table_and_records_agree_bit_for_bit(self, tmp_path, kind,
                                                 include_income):
        path = tmp_path / "profiles.csv"
        write_profiles(cohort_profiles(kind), path)
        table = read_profiles(path)
        schema = FeatureSchema(include_income=include_income)
        a, b = encode(table, schema), encode(list(table), schema)
        assert a.dropped_missing_income == b.dropped_missing_income
        assert a.dataset.matrix.shape == b.dataset.matrix.shape
        assert a.dataset.matrix.tobytes() == b.dataset.matrix.tobytes()
        assert a.dataset.labels.tobytes() == b.dataset.labels.tobytes()
        assert a.dataset.labels.dtype == np.int64

    def test_late_incomes_keep_the_last_rows(self, tmp_path):
        path = tmp_path / "profiles.csv"
        write_profiles(cohort_profiles("late-incomes"), path)
        result = encode(read_profiles(path),
                        FeatureSchema(include_income=True))
        assert result.dropped_missing_income == 28
        matrix = result.dataset.matrix
        assert matrix[:, 0].tolist() == [18.5 + 28, 18.5 + 29]
        assert matrix[:, -1].tolist() == [0.1 * 28, 0.1 * 29]
        assert result.dataset.labels.tolist() == [1, 1]  # 2 and 3 episodes

    def test_blank_ages_are_nan_in_both(self, tmp_path):
        path = tmp_path / "profiles.csv"
        write_profiles(cohort_profiles("blank-ages"), path)
        for profiles in (read_profiles(path), list(read_profiles(path))):
            ages = encode(profiles, FeatureSchema()).dataset.matrix[:, 0]
            assert np.flatnonzero(np.isnan(ages)).tolist() == \
                list(range(0, 30, 3))

    @pytest.mark.parametrize("as_table", [False, True],
                             ids=["records", "table"])
    def test_bad_codes_name_the_first_row(self, as_table):
        profiles = [make_profile(pid="A", income=1.0),
                    make_profile(pid="B", employment=7, income=None),
                    make_profile(pid="C", race=9, income=2.0)]
        convert = ProfileTable.from_profiles if as_table else list
        with pytest.raises(ValueError,
                           match=r"^profile B: bad employment code 7$"):
            encode(convert(profiles), FeatureSchema())
        # Income mode drops B before its codes are read.
        with pytest.raises(ValueError, match=r"^profile C: bad race code 9$"):
            encode(convert(profiles), FeatureSchema(include_income=True))

    def test_one_row_with_two_bad_codes_names_the_first_field(self):
        profiles = [make_profile(pid="A", race=-1, citizenship=4)]
        with pytest.raises(ValueError, match=r"^profile A: bad race code -1$"):
            encode(ProfileTable.from_profiles(profiles), FeatureSchema())


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
        stats = ColumnStats(fill=np.array([35.0] + [0.0] * 19),
                            mean=np.array([30.0] + [0.0] * 19),
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
        stats = ColumnStats(fill=np.zeros(3), mean=np.zeros(3),
                            scale=np.ones(3))
        with pytest.raises(WidthMismatch):
            standardize(dataset, stats)

    def test_fill_is_median_of_known_values_only(self):
        ages = (20.0, None, 30.0, 50.0, None, 70.0)
        dataset = encode([make_profile(pid=f"P{i}", age=a)
                          for i, a in enumerate(ages)],
                         FeatureSchema()).dataset
        out, stats = standardize(dataset)
        assert stats.fill[0] == 40.0  # of 20, 30, 50, 70; NaNs not counted
        filled = [20.0, 40.0, 30.0, 50.0, 40.0, 70.0]
        assert stats.mean[0] == np.mean(filled)
        assert stats.scale[0] == np.std(filled, ddof=1)
        assert np.all(np.isfinite(out.matrix))
        # The input matrix keeps its NaNs.
        assert np.isnan(dataset.matrix[1, 0])

    def test_held_out_nan_standardizes_like_the_fill(self):
        train = encode([make_profile(pid=f"P{i}", age=a)
                        for i, a in enumerate((21.0, 34.0, None, 58.5))],
                       FeatureSchema()).dataset
        _, stats = standardize(train)
        held_out = encode([make_profile(pid="A", age=None),
                           make_profile(pid="B", age=stats.fill[0]),
                           make_profile(pid="C", age=80.0)],
                          FeatureSchema()).dataset
        out, _ = standardize(held_out, stats)
        assert out.matrix[0, 0].tobytes() == out.matrix[1, 0].tobytes()
        assert out.matrix[2, 0] != out.matrix[0, 0]

    def test_no_known_value_raises(self):
        dataset = encode([make_profile(pid=f"P{i}", age=None)
                          for i in range(3)], FeatureSchema()).dataset
        with pytest.raises(MissingAge):
            standardize(dataset)

    @given(st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 35.0]),
                              st.floats(allow_nan=False,
                                        allow_infinity=False)),
                    min_size=1, max_size=12))
    def test_median_is_np_median_bit_for_bit(self, values):
        """Odd and even counts, ties, sums that overflow and zeros of
        either sign (np.median's mean gives +0.0 for a zero median)."""
        values = np.array(values)
        with np.errstate(over="ignore"):
            expected = np.float64(np.median(values))
        assert np.float64(features._median(values)).tobytes() == \
            expected.tobytes()
