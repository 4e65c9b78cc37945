"""Declarations every command shares, in pure Python (no numpy).

The predictor schema (canonical category tables, raw-value mapping and
the encoded column layout), the model and oversampling settings, and
the model kinds. Linkage, the report and argument parsing need only
these, so importing this module, ``readmit.cohort`` or ``readmit.cli``
loads no numpy; ``features``, ``models``, ``resample`` and ``evaluate``
import their names from here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import UnmappableFamilyType

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

ORIGINAL = "original"  # the oversampling ratio that leaves data untouched
MODEL_KINDS = ("logistic", "gbm")


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


@dataclass(frozen=True)
class GbmParams:
    n_trees: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}"
            )


@dataclass(frozen=True)
class LogisticParams:
    ridge: float = 1e-6

    def __post_init__(self):
        if not 0 <= self.ridge < float("inf"):
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge}")


@dataclass(frozen=True)
class TrainConfig:
    gbm: GbmParams = field(default_factory=GbmParams)
    logistic: LogisticParams = field(default_factory=LogisticParams)


@dataclass(frozen=True)
class SmoteConfig:
    """ratio: target minority/majority ratio in (0, 1], or "original"."""

    ratio: float | str = ORIGINAL
    k: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.ratio != ORIGINAL:
            r = float(self.ratio)
            if not (0.0 < r <= 1.0):
                raise ValueError(f"ratio must be in (0, 1], got {self.ratio!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
