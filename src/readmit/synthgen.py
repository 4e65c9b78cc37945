"""Synthetic cohort generation calibrated to published aggregate rates.

Real intake records are private, so pipeline tests run on generated
cohorts instead. Feature marginals are drawn independently from the
spec; the readmission label comes from a logistic model over designated
risk features (unemployment, eviction, younger age) whose intercept is
solved by bisection so the expected positive rate hits the target, and
the realized positive count is then forced to exactly round(n * rate)
by flipping the draws closest to their Bernoulli boundary.

Only some default rates are published figures (cohort size, minority
rate, employment rate, the ordering of homelessness reasons, mean
income); the rest are placeholders and flagged as such in
spec_default.json. Override freely.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from datetime import date, timedelta
from importlib import resources
from pathlib import Path

import numpy as np

from .cohort import (
    ClientKey,
    ClientProfile,
    DemographicRecord,
    ExitRecord,
    IncidentRecord,
    ResidenceEpisode,
    make_id_combo,
    split_id_combo,
    write_demographics,
    write_exits,
    write_incidents,
)
from .errors import InfeasibleSpec
from .features import CATEGORIES, category_label
from .models import sigmoid
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
        numbers) and the rates, weights and age bounds are feasible."""
        for name, default in asdict(CohortSpec()).items():
            value = getattr(self, name)
            if not _has_type_of(value, default):
                raise InfeasibleSpec(
                    f"{name} must be {type(default).__name__}, got {value!r}")
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
        if self.age_sd <= 0:
            raise InfeasibleSpec("age_sd must be positive")
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


def _truncated_normal(rng, n, mean, sd, lo, hi) -> np.ndarray:
    out = rng.normal(mean, sd, n)
    bad = (out < lo) | (out > hi)
    while bad.any():
        out[bad] = rng.normal(mean, sd, int(bad.sum()))
        bad = (out < lo) | (out > hi)
    return out


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


def generate(spec: CohortSpec) -> list[ClientProfile]:
    """Generate one cohort, sorted by id, deterministic given spec.seed."""
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

    profiles = []
    for i in range(n):
        key = ClientKey(f"C{i:06d}", f"F{i:06d}", f"K{i:06d}")
        first_entry = ENTRY_WINDOW_START + timedelta(days=int(entry_offset[i]))
        first_exit = first_entry + timedelta(days=int(stay0[i]))
        episodes = [
            ResidenceEpisode(first_entry, first_exit,
                             EXIT_REASONS[reason_exit0[i]])
        ]
        total_days = int(stay0[i])
        if y[i]:
            second_entry = first_exit + timedelta(days=int(gap[i]))
            second_exit = second_entry + timedelta(days=int(stay1[i]))
            episodes.append(
                ResidenceEpisode(second_entry, second_exit,
                                 EXIT_REASONS[reason_exit1[i]])
            )
            total_days += int(stay1[i])
        profiles.append(
            ClientProfile(
                id=make_id_combo(key),
                age=float(age[i]),
                race=int(race[i]),
                family_type=int(family[i]),
                reason_homeless=int(reason[i]),
                employment=int(employment[i]),
                citizenship=int(citizenship[i]),
                income=None if income_missing[i] else float(income_vals[i]),
                episodes=tuple(episodes),
                total_los_days=total_days,
                incident_count=int(incident_counts[i]),
                readmit=int(y[i]),
            )
        )
    return profiles


def emit_raw_files(
    cohort: list[ClientProfile], out_dir: str | Path
) -> dict[str, Path]:
    """Write the three raw intake CSVs so that linking them reproduces
    the cohort exactly: one demographic row per episode (all rows of an
    individual agree), one exit row per closed episode, and incident
    rows synthesized deterministically from each profile's count."""
    if not cohort:
        raise ValueError("cannot emit an empty cohort")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    demo_rows: list[DemographicRecord] = []
    exit_rows: list[ExitRecord] = []
    incident_rows: list[IncidentRecord] = []
    for profile in cohort:
        key = split_id_combo(profile.id)
        for ep in profile.episodes:
            demo_rows.append(
                DemographicRecord(
                    key=key,
                    age=profile.age,
                    race=category_label("race", profile.race),
                    family_type=category_label("family_type",
                                               profile.family_type),
                    reason_homeless=category_label("reason_homeless",
                                                   profile.reason_homeless),
                    employment=category_label("employment", profile.employment),
                    citizenship=category_label("citizenship",
                                               profile.citizenship),
                    income=profile.income,
                    entry_date=ep.entry_date,
                    admitted=True,
                )
            )
            if ep.closed:
                exit_rows.append(
                    ExitRecord(key=key, exit_date=ep.exit_date,
                               exit_reason=ep.exit_reason or "")
                )
        first_entry = profile.episodes[0].entry_date
        for i in range(profile.incident_count):
            incident_rows.append(
                IncidentRecord(
                    key=key,
                    incident_date=first_entry + timedelta(days=i + 1),
                    incident_type=INCIDENT_TYPES[i % len(INCIDENT_TYPES)],
                )
            )

    paths = {
        "demographics": out_dir / "demographics.csv",
        "exits": out_dir / "exits.csv",
        "incidents": out_dir / "incidents.csv",
    }
    write_demographics(demo_rows, paths["demographics"])
    write_exits(exit_rows, paths["exits"])
    write_incidents(incident_rows, paths["incidents"])
    return paths
