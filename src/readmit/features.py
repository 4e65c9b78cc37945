"""Predictor schema and design-matrix construction.

Five categorical predictors with fixed canonical codes, one continuous
age column, and an optional income column. Categoricals are one-hot
encoded (the integer codes are nominal, not ordinal), so the encoded
space is also the interpolation space used by the oversampler.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import EmptyAfterFiltering, UnmappableFamilyType, WidthMismatch

if TYPE_CHECKING:
    from .cohort import ClientProfile

# Canonical category tables. Code 0..k-1 per field; order is load-bearing
# (column order, CSV emission, residual mapping) and must never change.
CATEGORIES: dict[str, dict[int, str]] = {
    "race": {0: "White", 1: "Black", 2: "Hispanic", 3: "Other"},
    "family_type": {0: "Single", 1: "Adult Families", 2: "Families with Children"},
    "reason_homeless": {
        0: "Eviction",
        1: "Discord",
        2: "Domestic Violence",
        3: "Overcrowding",
        4: "Other",
    },
    "employment": {0: "Unemployed", 1: "Employed", 2: "Unknown"},
    "citizenship": {0: "Unknown", 1: "Citizen", 2: "Non-Resident", 3: "Undocumented"},
}

CATEGORICAL_FIELDS = tuple(CATEGORIES)

# Residual bucket for raw values that match no canonical label.
# family_type has no residual category, so unmatched values are an error.
_RESIDUAL_CODE = {
    "race": 3,
    "reason_homeless": 4,
    "employment": 2,
    "citizenship": 0,
}

_LOOKUP = {
    fname: {label.lower(): code for code, label in table.items()}
    for fname, table in CATEGORIES.items()
}


def canonicalize(raw: str, fname: str) -> int:
    """Map a raw category string to its canonical code.

    Matching is case-insensitive after trimming. Unmatched values fall
    into the field's residual bucket, except family_type which has none.
    """
    if fname not in CATEGORIES:
        raise KeyError(f"unknown categorical field {fname!r}")
    code = _LOOKUP[fname].get(raw.strip().lower())
    if code is not None:
        return code
    if fname == "family_type":
        raise UnmappableFamilyType(f"family_type has no bucket for {raw!r}")
    return _RESIDUAL_CODE[fname]


def category_label(fname: str, code: int) -> str:
    return CATEGORIES[fname][code]


@dataclass(frozen=True)
class FeatureSchema:
    """Column layout of the encoded design matrix.

    Age first, then the one-hot groups in canonical field order, then
    income when enabled. Deterministic across runs and platforms.
    """

    include_income: bool = False

    @property
    def columns(self) -> list[str]:
        cols = ["age"]
        for fname in CATEGORICAL_FIELDS:
            table = CATEGORIES[fname]
            cols.extend(f"{fname}={table[code]}" for code in sorted(table))
        if self.include_income:
            cols.append("income")
        return cols

    @property
    def one_hot_groups(self) -> list[slice]:
        """Column slices of the one-hot groups, in canonical field order."""
        groups, start = [], 1
        for fname in CATEGORICAL_FIELDS:
            groups.append(slice(start, start + len(CATEGORIES[fname])))
            start += len(CATEGORIES[fname])
        return groups

    @property
    def continuous_columns(self) -> list[str]:
        return ["age"] + (["income"] if self.include_income else [])

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    def to_json(self) -> str:
        payload = {
            "columns": self.columns,
            "continuous": self.continuous_columns,
            "categories": {
                fname: {str(code): label for code, label in table.items()}
                for fname, table in CATEGORIES.items()
            },
            "include_income": self.include_income,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")


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
