"""Design-matrix construction, imputation and standardization.

The predictor schema (declared in readmit.schema) has five categorical
predictors with fixed canonical codes, one continuous age column, and
an optional income column. Categoricals are one-hot encoded (the
integer codes are nominal, not ordinal), so the encoded space is also
the interpolation space used by the oversampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .cohort import ClientProfile, check_codes, profile_table
from .errors import EmptyAfterFiltering, MissingAge, WidthMismatch
from .schema import (  # noqa: F401
    CATEGORICAL_FIELDS,
    CATEGORIES,
    FeatureSchema,
    canonicalize,
    category_label,
)


@dataclass
class EncodedDataset:
    """Numeric design matrix with aligned labels."""

    matrix: np.ndarray  # (n_rows, n_cols) float64
    labels: np.ndarray  # (n_rows,) int64 in {0, 1}
    schema: FeatureSchema

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]


@dataclass
class EncodeResult:
    dataset: EncodedDataset
    dropped_missing_income: int


# The profile columns encode reads.
_ENCODED_FIELDS = ("id", "age", *CATEGORICAL_FIELDS, "income", "readmit")


def encode(profiles: Sequence[ClientProfile],
           schema: FeatureSchema) -> EncodeResult:
    """Build the design matrix for a set of profiles.

    The matrix is built column by column from the columns of
    cohort.profile_table(profiles): a ProfileTable (as read_profiles,
    unify and synthgen.generate return) as it is, and a plain sequence
    of records transposed once.
    Missing ages stay NaN, for standardize to fill with the median of
    each fit's own training rows.
    With income enabled, rows without an income value are dropped and
    counted; this is the pipeline's only income filter. A category code
    outside the schema is a ValueError naming the first kept profile
    that has one (cohort.check_codes).
    """
    if not profiles:
        raise ValueError("cannot encode an empty profile list")
    table = profile_table(profiles)
    columns = {f: table.columns[f] for f in _ENCODED_FIELDS}

    n_profiles = len(columns["id"])
    if schema.include_income:
        known = [income is not None for income in columns["income"]]
        columns = {f: list(compress(column, known))
                   for f, column in columns.items()}
    n = len(columns["id"])
    dropped = n_profiles - n
    if not n:
        raise EmptyAfterFiltering(
            f"income mode dropped all {dropped} rows (no income values)"
        )
    check_codes(columns)

    matrix = np.zeros((n, schema.n_columns), dtype=np.float64)
    matrix[:, 0] = np.array(columns["age"], dtype=np.float64)  # None: NaN
    rows = np.arange(n)
    for fname, group in zip(CATEGORICAL_FIELDS, schema.one_hot_groups):
        codes = np.array(columns[fname], dtype=np.intp)
        matrix[rows, group.start + codes] = 1.0
    if schema.include_income:
        matrix[:, -1] = columns["income"]
    labels = np.array(columns["readmit"], dtype=np.int64)

    return EncodeResult(
        dataset=EncodedDataset(matrix=matrix, labels=labels, schema=schema),
        dropped_missing_income=dropped,
    )


@dataclass(frozen=True)
class ColumnStats:
    """Per-column NaN fill, shift and scale fitted on training rows.

    Identity (mean 0, scale 1) on one-hot and zero-variance columns.
    """

    fill: np.ndarray
    mean: np.ndarray
    scale: np.ndarray


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty float array holding no NaN, bit for bit,
    without the numpy.ma import that np.median makes: the middle value,
    or the two middle values summed and halved, each found by
    np.partition, summed from +0.0 as np.mean does (so a zero median is
    +0.0 whichever zero the partition puts in the middle)."""
    h, odd = divmod(len(values), 2)
    if odd:
        return 0.0 + float(np.partition(values, h)[h])
    part = np.partition(values, [h - 1, h])
    return (0.0 + float(part[h - 1]) + float(part[h])) / 2


def standardize(
    dataset: EncodedDataset, stats: ColumnStats | None = None
) -> tuple[EncodedDataset, ColumnStats]:
    """Fill and z-score continuous columns; one-hot columns pass through.

    When stats is None they are fitted on this dataset and returned for
    reuse on held-out rows: the known values' median (MissingAge if
    none) fills NaN cells, then the filled column's mean and sample sd
    (n-1 denominator). Zero-variance columns are left unscaled.
    """
    matrix = dataset.matrix.copy()
    cols = dataset.schema.columns
    continuous = [cols.index(c) for c in dataset.schema.continuous_columns]
    if stats is None:
        fill = np.zeros(matrix.shape[1])
        mean = np.zeros(matrix.shape[1])
        scale = np.ones(matrix.shape[1])
        for j in continuous:
            col = matrix[:, j]
            missing = np.isnan(col)
            if missing.all():
                raise MissingAge(
                    f"no training row has a known {cols[j]} to impute from")
            fill[j] = _median(col[~missing])
            col[missing] = fill[j]
            sd = float(np.std(col, ddof=1)) if len(col) > 1 else 0.0
            if sd > 0.0:
                mean[j] = float(np.mean(col))
                scale[j] = sd
        stats = ColumnStats(fill=fill, mean=mean, scale=scale)
    elif stats.mean.shape[0] != matrix.shape[1]:
        raise WidthMismatch(
            f"stats have {stats.mean.shape[0]} columns, matrix has "
            f"{matrix.shape[1]}"
        )
    else:
        for j in continuous:
            matrix[np.isnan(matrix[:, j]), j] = stats.fill[j]

    matrix -= stats.mean
    matrix /= stats.scale
    return (
        EncodedDataset(matrix=matrix, labels=dataset.labels,
                       schema=dataset.schema),
        stats,
    )
