"""Synthetic cohort generation calibrated to published aggregate rates.

Real intake records are private, so pipeline tests run on generated
cohorts instead. Feature marginals are drawn independently from the
spec; the readmission label comes from a logistic model over designated
risk features (unemployment, eviction, younger age) whose intercept is
solved by bisection so the expected positive rate hits the target, and
the realized positive count is then forced to exactly round(n * rate)
by flipping the draws closest to their Bernoulli boundary.

A cohort is held by column, as the cohort.ProfileTable that unify and
read_profiles also return, from the draw to the file: generate draws
with numpy and converts each draw once, at its end, into the table's
columns of Python values, and emit_raw_files writes the raw intake trio
from those columns as joined column text (see cohort._write_csv), its
key part columns split from the ids in one pass. ClientProfile records
are built only when a row of the table is indexed or iterated.

Only some default rates are published figures (cohort size, minority
rate, employment rate, the ordering of homelessness reasons, mean
income); the rest are placeholders and flagged as such in
spec_default.json. Override freely.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass, field
from datetime import date
from importlib import resources
from itertools import accumulate, compress, repeat
from operator import is_not
from pathlib import Path

import numpy as np

from .cohort import (
    KEY_COLUMNS,
    MAX_AGE,
    ClientProfile,
    ProfileTable,
    _formatted,
    check_codes,
    id_part_columns,
    profile_table,
    write_demographics,
    write_exits,
    write_incidents,
)
from .errors import InfeasibleSpec
from .models import sigmoid
from .schema import CATEGORICAL_FIELDS, CATEGORIES
from .seeding import derive_seed

ENTRY_WINDOW_START = date(2013, 1, 1)
ENTRY_WINDOW_DAYS = 1641  # through 2017-06-30

EXIT_REASONS = ("Curfew Violation", "Family Reunification",
                "Independent Living", "Other")
EXIT_REASON_WEIGHTS = (0.35, 0.30, 0.25, 0.10)
INCIDENT_TYPES = ("Altercation", "Medical", "Property Damage", "Other")
INCIDENT_RATE = 0.2  # mean incidents per client (Poisson)

STAY_DAYS = (30, 270)
REENTRY_GAP_DAYS = (30, 365)


def _weights_dict(fname: str, values: tuple[float, ...]) -> dict[str, float]:
    table = CATEGORIES[fname]
    return {table[code]: values[code] for code in sorted(table)}


def _has_type_of(value, default) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(default, dict):
        return isinstance(value, dict) and all(
            _has_type_of(w, 0.0) for w in value.values())
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


@dataclass(frozen=True)
class CohortSpec:
    """Marginal rates, planted-signal strength, and the cohort seed."""

    n: int = 6779
    minority_rate: float = 0.19
    employed_rate: float = 0.46
    unknown_employment_rate: float = 0.10
    reason_weights: dict[str, float] = field(
        default_factory=lambda: _weights_dict(
            "reason_homeless", (0.30, 0.25, 0.20, 0.15, 0.10)
        )
    )
    race_weights: dict[str, float] = field(
        default_factory=lambda: _weights_dict("race", (0.25, 0.25, 0.25, 0.25))
    )
    family_weights: dict[str, float] = field(
        default_factory=lambda: _weights_dict(
            "family_type", (0.34, 0.33, 0.33)
        )
    )
    citizenship_weights: dict[str, float] = field(
        default_factory=lambda: _weights_dict(
            "citizenship", (0.25, 0.25, 0.25, 0.25)
        )
    )
    age_mean: float = 35.0
    age_sd: float = 12.0
    age_min: float = 18.0
    age_max: float = 85.0
    income_missing_rate: float = 0.5
    income_mean: float = 1420.0
    income_sd: float = 400.0
    signal_strength: float = 0.8
    seed: int = 0

    def validate(self) -> None:
        """Raise InfeasibleSpec unless every field has its default's type
        (a bool is not an int, an int is a valid float, and weights are
        numbers), every float is finite, and the rates, weights and age
        bounds are feasible: ages at most MAX_AGE, the readers' bound."""
        for name, default in asdict(CohortSpec()).items():
            value = getattr(self, name)
            if not _has_type_of(value, default):
                raise InfeasibleSpec(
                    f"{name} must be {type(default).__name__}, got {value!r}")
            numbers = value.values() if isinstance(value, dict) else [value]
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in numbers):
                raise InfeasibleSpec(f"{name} must be finite, got {value!r}")
        if self.n < 100:
            raise InfeasibleSpec(f"n must be >= 100, got {self.n}")
        rates = {
            "minority_rate": self.minority_rate,
            "employed_rate": self.employed_rate,
            "unknown_employment_rate": self.unknown_employment_rate,
            "income_missing_rate": self.income_missing_rate,
        }
        for name, rate in rates.items():
            if not (0.0 <= rate <= 1.0):
                raise InfeasibleSpec(f"{name} must be in [0, 1], got {rate}")
        if self.employed_rate + self.unknown_employment_rate > 1.0:
            raise InfeasibleSpec("employment rates exceed 1.0 combined")
        for name, fname, weights in (
            ("reason_weights", "reason_homeless", self.reason_weights),
            ("race_weights", "race", self.race_weights),
            ("family_weights", "family_type", self.family_weights),
            ("citizenship_weights", "citizenship", self.citizenship_weights),
        ):
            expected = {CATEGORIES[fname][c] for c in CATEGORIES[fname]}
            if set(weights) != expected:
                raise InfeasibleSpec(f"{name} keys must be {sorted(expected)}")
            if any(w < 0 for w in weights.values()):
                raise InfeasibleSpec(f"{name} has a negative weight")
            if abs(sum(weights.values()) - 1.0) > 1e-9:
                raise InfeasibleSpec(f"{name} must sum to 1")
        if not (0 < self.age_min < self.age_max):
            raise InfeasibleSpec("need 0 < age_min < age_max")
        if self.age_max > MAX_AGE:
            raise InfeasibleSpec(
                f"age_max must be <= {MAX_AGE}, the oldest age the readers"
                f" accept, got {self.age_max}")
        if self.age_sd <= 0:
            raise InfeasibleSpec("age_sd must be positive")
        mass = _normal_mass(self.age_mean, self.age_sd, self.age_min,
                            self.age_max)
        if mass < MIN_AGE_MASS:
            raise InfeasibleSpec(
                f"age_min {self.age_min} and age_max {self.age_max} hold"
                f" {mass:.3g} of the age normal (age_mean {self.age_mean},"
                f" age_sd {self.age_sd}); ages are drawn by rejection, which"
                f" needs at least {MIN_AGE_MASS}")
        if self.signal_strength < 0:
            raise InfeasibleSpec("signal_strength must be >= 0")

    def _weights_array(self, fname: str, weights: dict[str, float]) -> np.ndarray:
        table = CATEGORIES[fname]
        return np.array([weights[table[code]] for code in sorted(table)])

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CohortSpec":
        known = {f for f in cls.__dataclass_fields__}
        kwargs = {k: v for k, v in payload.items() if k in known}
        unknown = set(payload) - known - {"notes"}
        if unknown:
            raise InfeasibleSpec(f"unknown spec fields: {sorted(unknown)}")
        return cls(**kwargs)


def load_spec(path: str | Path) -> CohortSpec:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    spec = CohortSpec.from_json_dict(payload)
    spec.validate()
    return spec


def default_spec_path() -> Path:
    return Path(str(resources.files("readmit").joinpath("spec_default.json")))


# The least share of the age normal that [age_min, age_max] may hold.
# Rejection takes about (ln n) / mass rounds to place n draws in the
# bounds: some 10^5 rounds at this floor.
MIN_AGE_MASS = 1e-4
# Redraw rounds after which a draw gives up. At MIN_AGE_MASS a draw is
# still outside the bounds after this many with odds of e^-100.
MAX_REDRAW_ROUNDS = 1_000_000


def _normal_mass(mean: float, sd: float, lo: float, hi: float) -> float:
    """P(lo <= X <= hi) for X ~ Normal(mean, sd), from erfc, so that a
    far tail keeps its relative precision."""
    scale = sd * math.sqrt(2.0)
    a, b = (lo - mean) / scale, (hi - mean) / scale
    if b < 0:  # both bounds below the mean: mirror them above it
        a, b = -b, -a
    return 0.5 * (math.erfc(a) - math.erfc(b))


def _truncated_normal(rng, n, mean, sd, lo, hi) -> np.ndarray:
    """n draws of Normal(mean, sd) within [lo, hi], by redrawing those
    outside, in index order, until none is; InfeasibleSpec after
    MAX_REDRAW_ROUNDS rounds. Each round looks only at the draws that
    the last one redrew."""
    out = rng.normal(mean, sd, n)
    bad = np.flatnonzero((out < lo) | (out > hi))
    for _ in range(MAX_REDRAW_ROUNDS + 1):
        if not bad.size:
            return out
        out[bad] = rng.normal(mean, sd, bad.size)
        bad = bad[(out[bad] < lo) | (out[bad] > hi)]
    raise InfeasibleSpec(
        f"ages still outside [{lo}, {hi}] after {MAX_REDRAW_ROUNDS} redraws")


def _solve_intercept(risk: np.ndarray, strength: float, target: float) -> float:
    """Bisect the intercept so the mean positive probability hits target."""
    if not (0.0 < target < 1.0):
        raise InfeasibleSpec(f"minority_rate {target} is not in (0, 1)")

    def realized(alpha: float) -> float:
        return float(np.mean(sigmoid(alpha + strength * risk)))

    lo, hi = -60.0, 60.0
    if not (realized(lo) < target < realized(hi)):
        raise InfeasibleSpec("intercept bisection cannot bracket the target")
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            # Adjacent floats: every later step would leave lo and hi
            # as they are, so the result is already fixed.
            break
        if realized(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _force_exact_count(y, p, u, target: int) -> np.ndarray:
    """Flip the draws nearest their Bernoulli boundary until the positive
    count is exactly target."""
    y = y.copy()
    n_pos = int(y.sum())
    if n_pos > target:
        candidates = np.flatnonzero(y)
        margins = p[candidates] - u[candidates]  # small = barely positive
        flip = candidates[np.argsort(margins, kind="stable")[: n_pos - target]]
        y[flip] = False
    elif n_pos < target:
        candidates = np.flatnonzero(~y)
        margins = u[candidates] - p[candidates]  # small = barely negative
        flip = candidates[np.argsort(margins, kind="stable")[: target - n_pos]]
        y[flip] = True
    return y


def generate(spec: CohortSpec) -> ProfileTable:
    """Generate one cohort, sorted by id, deterministic given spec.seed.

    Raises InfeasibleSpec when the spec cannot be met, or when an income
    it draws is not finite.
    """
    spec.validate()
    rng = np.random.default_rng(derive_seed(spec.seed, "cohort"))
    n = spec.n

    def draw_codes(weights) -> np.ndarray:
        return rng.choice(len(weights), n, p=weights)

    race = draw_codes(spec._weights_array("race", spec.race_weights))
    family = draw_codes(
        spec._weights_array("family_type", spec.family_weights))
    reason = draw_codes(
        spec._weights_array("reason_homeless", spec.reason_weights))
    employment = draw_codes([
        1.0 - spec.employed_rate - spec.unknown_employment_rate,
        spec.employed_rate,
        spec.unknown_employment_rate,
    ])
    citizenship = draw_codes(
        spec._weights_array("citizenship", spec.citizenship_weights))
    age = np.round(
        _truncated_normal(rng, n, spec.age_mean, spec.age_sd,
                          spec.age_min, spec.age_max)
    )
    income_missing = rng.random(n) < spec.income_missing_rate
    income_vals = np.round(
        np.clip(rng.normal(spec.income_mean, spec.income_sd, n), 0.0, None)
    )
    if not np.isfinite(income_vals[~income_missing]).all():
        raise InfeasibleSpec(
            f"income_mean {spec.income_mean} and income_sd {spec.income_sd}"
            " draw an income that is not finite")
    incident_counts = rng.poisson(INCIDENT_RATE, n)

    entry_offset = rng.integers(0, ENTRY_WINDOW_DAYS + 1, n)
    stay0 = rng.integers(STAY_DAYS[0], STAY_DAYS[1] + 1, n)
    gap = rng.integers(REENTRY_GAP_DAYS[0], REENTRY_GAP_DAYS[1] + 1, n)
    stay1 = rng.integers(STAY_DAYS[0], STAY_DAYS[1] + 1, n)
    reason_exit0 = rng.choice(len(EXIT_REASONS), n, p=EXIT_REASON_WEIGHTS)
    reason_exit1 = rng.choice(len(EXIT_REASONS), n, p=EXIT_REASON_WEIGHTS)

    # Planted dependence: unemployment, eviction, and younger age raise
    # the readmission odds by signal_strength log-odds per unit.
    z_age = (age - spec.age_mean) / spec.age_sd
    risk = (
        (employment == 0).astype(np.float64)
        + (reason == 0).astype(np.float64)
        - z_age
    )
    alpha = _solve_intercept(risk, spec.signal_strength, spec.minority_rate)
    p = sigmoid(alpha + spec.signal_strength * risk)
    u = rng.random(n)
    y = _force_exact_count(u < p, p, u, int(round(n * spec.minority_rate)))

    # Every client has a first stay; a readmitted one has a second, which
    # starts gap days after the first ends.
    readmit = y.astype(np.int64)
    has_stay = np.column_stack([np.ones(n, dtype=bool), y])
    entry0 = np.datetime64(ENTRY_WINDOW_START, "D") + entry_offset
    entry1 = entry0 + stay0 + gap
    episodes = {
        "entry_date": np.column_stack([entry0, entry1])[has_stay].tolist(),
        "exit_date": np.column_stack(
            [entry0 + stay0, entry1 + stay1])[has_stay].tolist(),
        "exit_reason": list(map(EXIT_REASONS.__getitem__, np.column_stack(
            [reason_exit0, reason_exit1])[has_stay].tolist())),
    }
    columns = {
        "id": [f"C{i}|F{i}|K{i}" for i in map("{:06d}".format, range(n))],
        "age": age.tolist(),
        **{f: codes.tolist() for f, codes in zip(
            CATEGORICAL_FIELDS,
            (race, family, reason, employment, citizenship))},
        "income": [None if missing else value for missing, value in zip(
            income_missing.tolist(), income_vals.tolist())],
        "n_episodes": (1 + readmit).tolist(),
        "n_open_episodes": [0] * n,
        "total_los_days": (stay0 + readmit * stay1).tolist(),
        "incident_count": incident_counts.tolist(),
        "readmit": readmit.tolist(),
    }
    return ProfileTable(columns, episodes)


def _taken(cells: Sequence, rows: np.ndarray) -> list:
    """cells[i] for each i in rows."""
    return np.array(cells, dtype=object)[rows].tolist()


def _check_stays(columns: Mapping[str, Sequence],
                 episodes: Mapping[str, Sequence]) -> None:
    """Raise a ValueError naming the first profile whose total_los_days
    is not the sum of its closed episodes' days, which linking would
    give it. Days are differences of date ordinals, summed per profile
    in numpy; every profile has an episode."""
    exits = episodes["exit_date"]
    closed = list(map(is_not, exits, repeat(None)))
    days = np.zeros(len(exits), np.int64)
    days[np.array(closed, bool)] = (
        np.fromiter(map(date.toordinal, compress(exits, closed)), np.int64)
        - np.fromiter(map(date.toordinal,
                          compress(episodes["entry_date"], closed)),
                      np.int64))
    n_episodes = np.array(columns["n_episodes"])
    linked = np.add.reduceat(days, np.cumsum(n_episodes) - n_episodes)
    bad = np.flatnonzero(linked != np.array(columns["total_los_days"]))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"profile {columns['id'][i]}: total_los_days"
            f" {columns['total_los_days'][i]} is not the {linked[i]} days"
            " of its closed episodes")


def emit_raw_files(
    cohort: Sequence[ClientProfile], out_dir: str | Path
) -> dict[str, Path]:
    """Write the three raw intake CSVs so that linking them reproduces
    the cohort exactly: one demographic row per episode (all rows of an
    individual agree), one exit row per closed episode, and incident
    rows synthesized deterministically from each profile's count.

    The files are written from the columns of profile_table(cohort),
    which must hold episode dates (a table read from profiles.csv has
    none) whose closed days sum to each profile's total_los_days; the
    checks all run before any file is written. Each client's cells are
    formatted once and repeated over its episodes and incidents, and
    incident i (from 0) of a client falls i + 1 days after the entry of
    its first episode, with type INCIDENT_TYPES[i % 4].
    """
    table = profile_table(cohort)
    columns, episodes = table.columns, table.episodes
    if not len(table):
        raise ValueError("cannot emit an empty cohort")
    n_episodes = columns["n_episodes"]
    if min(n_episodes) < 1:
        i = n_episodes.index(min(n_episodes))
        raise ValueError(f"profile {columns['id'][i]} has no episodes")
    check_codes(columns)
    if episodes is None:
        raise ValueError("cannot emit a cohort without episode dates")
    _check_stays(columns, episodes)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    keys = dict(zip(KEY_COLUMNS, id_part_columns(columns["id"])))
    client = {**keys, "age": _formatted(columns["age"]),
              **{f: list(map(CATEGORIES[f].__getitem__, columns[f]))
                 for f in CATEGORICAL_FIELDS},
              "income": _formatted(columns["income"])}
    rows = np.repeat(np.arange(len(table)), n_episodes)  # of each episode
    demographics = {name: _taken(cells, rows)
                    for name, cells in client.items()}
    entries = episodes["entry_date"]
    demographics["entry_date"] = _formatted(entries, date.isoformat)
    demographics["admitted"] = ["true"] * len(entries)

    closed = [left is not None for left in episodes["exit_date"]]
    exits = {name: list(compress(demographics[name], closed))
             for name in KEY_COLUMNS}
    exits["exit_date"] = _formatted(
        list(compress(episodes["exit_date"], closed)), date.isoformat)
    exits["exit_reason"] = ["" if reason is None else reason for reason
                            in compress(episodes["exit_reason"], closed)]

    counts = columns["incident_count"]
    rows = np.repeat(np.arange(len(table)), counts)  # of each incident
    incidents = {name: _taken(parts, rows) for name, parts in keys.items()}
    incidents["incident_date"], incidents["incident_type"] = [], []
    firsts = accumulate(n_episodes[:-1], initial=0)
    for first, count in zip(map(entries.__getitem__, firsts), counts):
        for i in range(count):
            incidents["incident_date"].append(
                date.fromordinal(first.toordinal() + i + 1).isoformat())
            incidents["incident_type"].append(
                INCIDENT_TYPES[i % len(INCIDENT_TYPES)])

    paths = {}
    for name, write, cells in (
            ("demographics", write_demographics, demographics),
            ("exits", write_exits, exits),
            ("incidents", write_incidents, incidents)):
        paths[name] = out_dir / f"{name}.csv"
        write(cells, paths[name])
    return paths
