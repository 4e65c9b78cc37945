"""Design-matrix construction and standardization.

The predictor schema (declared in readmit.schema) has five categorical
predictors with fixed canonical codes, one continuous age column, and
an optional income column. Categoricals are one-hot encoded (the
integer codes are nominal, not ordinal), so the encoded space is also
the interpolation space used by the oversampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import EmptyAfterFiltering, WidthMismatch
from .schema import (  # noqa: F401
    CATEGORICAL_FIELDS,
    CATEGORIES,
    FeatureSchema,
    canonicalize,
    category_label,
)

if TYPE_CHECKING:
    from .cohort import ClientProfile


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


def encode(profiles: Sequence["ClientProfile"],
           schema: FeatureSchema) -> EncodeResult:
    """Build the design matrix for a set of profiles.

    Missing ages stay NaN, for each fit to impute from its own training
    rows (evaluate.fit_model). With income enabled, rows without an
    income value are dropped and counted; this is the pipeline's only
    income filter.
    """
    if not profiles:
        raise ValueError("cannot encode an empty profile list")

    kept = [p for p in profiles
            if p.income is not None or not schema.include_income]
    dropped = len(profiles) - len(kept)
    if not kept:
        raise EmptyAfterFiltering(
            f"income mode dropped all {dropped} rows (no income values)"
        )

    n = len(kept)
    matrix = np.zeros((n, schema.n_columns), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    groups = list(zip(CATEGORICAL_FIELDS, schema.one_hot_groups))
    for i, p in enumerate(kept):
        matrix[i, 0] = np.nan if p.age is None else p.age
        for fname, group in groups:
            code = getattr(p, fname)
            if code not in CATEGORIES[fname]:
                raise ValueError(f"profile {p.id}: bad {fname} code {code!r}")
            matrix[i, group.start + code] = 1.0
        if schema.include_income:
            matrix[i, -1] = p.income
        labels[i] = p.readmit

    return EncodeResult(
        dataset=EncodedDataset(matrix=matrix, labels=labels, schema=schema),
        dropped_missing_income=dropped,
    )


@dataclass(frozen=True)
class ColumnStats:
    """Per-column shift/scale fitted on training rows.

    Identity (mean 0, scale 1) on one-hot and zero-variance columns.
    """

    mean: np.ndarray
    scale: np.ndarray


def standardize(
    dataset: EncodedDataset, stats: ColumnStats | None = None
) -> tuple[EncodedDataset, ColumnStats]:
    """Z-score continuous columns; one-hot columns pass through.

    When stats is None they are fitted on this dataset (sample sd,
    n-1 denominator) and returned for reuse on held-out rows.
    Zero-variance columns are left unscaled.
    """
    matrix = dataset.matrix
    if stats is None:
        mean = np.zeros(matrix.shape[1])
        scale = np.ones(matrix.shape[1])
        cols = dataset.schema.columns
        for name in dataset.schema.continuous_columns:
            j = cols.index(name)
            col = matrix[:, j]
            sd = float(np.std(col, ddof=1)) if len(col) > 1 else 0.0
            if sd > 0.0:
                mean[j] = float(np.mean(col))
                scale[j] = sd
        stats = ColumnStats(mean=mean, scale=scale)
    elif stats.mean.shape[0] != matrix.shape[1]:
        raise WidthMismatch(
            f"stats have {stats.mean.shape[0]} columns, matrix has "
            f"{matrix.shape[1]}"
        )

    out = (matrix - stats.mean) / stats.scale
    return (
        EncodedDataset(matrix=out, labels=dataset.labels.copy(),
                       schema=dataset.schema),
        stats,
    )
