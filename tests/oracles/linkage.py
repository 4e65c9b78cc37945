"""Reference CSV readers and linkage: per-row dicts and a full scan.

The former implementation of readmit.cohort's readers
(read_demographics, read_exits, read_incidents, read_profiles) and of
unify, kept to check the column readers, with their one converter per
rule, and the linkage's one walk over id-sorted rows and exits. Each
reader reads every row with csv.reader and builds a dict
per row; a csv.Error, such as a cell longer than
csv.field_size_limit(), is the MalformedCsv of its row. unify sorts
every individual's records and scans all seven demographic fields for
conflicts. A blank key part is not checked while reading: unify raises
EmptyKeyPart on the first admitted demographic, exit or incident record
that has one, in that order.

The record types the reference readers return (ClientKey,
DemographicRecord, ExitRecord, IncidentRecord) are defined here;
readmit.cohort keeps none.

Given the same files, readmit.cohort must read the same values (by
column), return equal profiles, warnings and removed counts, and raise
MalformedCsv at the same row and column for every row the reference
rejects while reading.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

from readmit import features
from readmit.cohort import (
    DEMOGRAPHICS_HEADER,
    EXITS_HEADER,
    INCIDENTS_HEADER,
    PROFILES_HEADER,
    ClientProfile,
    ConflictWarning,
    ResidenceEpisode,
    UnifyResult,
    derive_label,
)
from readmit.errors import EmptyKeyPart, MalformedCsv


@dataclass(frozen=True)
class ClientKey:
    """Three-part identifier: individual, family, and current case."""

    cares_id: str
    family_id: str
    case_id: str


@dataclass(frozen=True)
class DemographicRecord:
    key: ClientKey
    age: float | None
    race: str
    family_type: str
    reason_homeless: str
    employment: str
    citizenship: str
    income: float | None
    entry_date: date
    admitted: bool


@dataclass(frozen=True)
class ExitRecord:
    key: ClientKey
    exit_date: date
    exit_reason: str


@dataclass(frozen=True)
class IncidentRecord:
    key: ClientKey
    incident_date: date
    incident_type: str


def _escape_part(part: str) -> str:
    return part.replace("\\", "\\\\").replace("|", "\\|")


def make_id_combo(key: ClientKey) -> str:
    parts = (key.cares_id.strip(), key.family_id.strip(), key.case_id.strip())
    if any(not p for p in parts):
        raise EmptyKeyPart(f"blank key part in {key}")
    return "|".join(_escape_part(p) for p in parts)


def record_columns(records: Sequence, header: list[str]) -> dict[str, list]:
    """The records' values by header name, as readmit.cohort's readers
    return a file's columns."""
    return {name: [getattr(r.key, name) if hasattr(r.key, name)
                   else getattr(r, name) for r in records]
            for name in header}


def _pair_episodes(
    entries: list[date], exits: list[ExitRecord]
) -> tuple[ResidenceEpisode, ...]:
    remaining = sorted(exits, key=lambda e: (e.exit_date, e.exit_reason))
    used = [False] * len(remaining)
    episodes = []
    for entry in sorted(entries):
        match = None
        for i, ex in enumerate(remaining):
            if not used[i] and ex.exit_date >= entry:
                match = i
                break
        if match is None:
            episodes.append(ResidenceEpisode(entry))
        else:
            used[match] = True
            ex = remaining[match]
            episodes.append(ResidenceEpisode(entry, ex.exit_date, ex.exit_reason))
    return tuple(episodes)


_DEMO_FIELDS = (
    "age", "race", "family_type", "reason_homeless",
    "employment", "citizenship", "income",
)


def _record_sort_key(rec: DemographicRecord):
    return (rec.entry_date, tuple(str(getattr(rec, f)) for f in _DEMO_FIELDS))


def unify(
    demo: Iterable[DemographicRecord],
    exits: Iterable[ExitRecord],
    incidents: Iterable[IncidentRecord],
) -> UnifyResult:
    kept: dict[str, list[DemographicRecord]] = {}
    removed = 0
    for rec in demo:
        if not rec.admitted:
            removed += 1
            continue
        kept.setdefault(make_id_combo(rec.key), []).append(rec)

    exits_by_id: dict[str, list[ExitRecord]] = {}
    for ex in exits:
        exits_by_id.setdefault(make_id_combo(ex.key), []).append(ex)

    incident_counts: dict[str, int] = {}
    for inc in incidents:
        combo = make_id_combo(inc.key)
        incident_counts[combo] = incident_counts.get(combo, 0) + 1

    profiles: list[ClientProfile] = []
    warnings: list[ConflictWarning] = []
    for combo in sorted(kept):
        records = sorted(kept[combo], key=_record_sort_key)
        latest = records[-1]

        for fname in _DEMO_FIELDS:
            values = [getattr(r, fname) for r in records]
            distinct = sorted({str(v): v for v in values}.values(), key=str)
            if len(distinct) > 1:
                warnings.append(
                    ConflictWarning(combo, fname, getattr(latest, fname),
                                    tuple(distinct))
                )

        episodes = _pair_episodes(
            [r.entry_date for r in records], exits_by_id.get(combo, [])
        )
        total_los = sum(ep.duration_days for ep in episodes if ep.closed)
        profiles.append(
            ClientProfile(
                id=combo,
                age=latest.age,
                race=features.canonicalize(latest.race, "race"),
                family_type=features.canonicalize(latest.family_type, "family_type"),
                reason_homeless=features.canonicalize(
                    latest.reason_homeless, "reason_homeless"
                ),
                employment=features.canonicalize(latest.employment, "employment"),
                citizenship=features.canonicalize(latest.citizenship, "citizenship"),
                income=latest.income,
                episodes=episodes,
                total_los_days=total_los,
                incident_count=incident_counts.get(combo, 0),
                readmit=derive_label(len(episodes)),
            )
        )

    return UnifyResult(profiles=profiles, warnings=warnings,
                       removed_not_admitted=removed)


def _read_rows(path: str | Path, expected_header: list[str]):
    """Yield (row number, row dict) for each row. A csv.Error, such as a
    cell longer than csv.field_size_limit(), raises the MalformedCsv of
    its row (0 for the header)."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv_errors(path, csv.reader(fh))
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsv(str(path), 0, None, "empty file") from None
        if header != expected_header:
            raise MalformedCsv(
                str(path), 0, None,
                f"header {header!r} != expected {expected_header!r}",
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected_header):
                raise MalformedCsv(
                    str(path), lineno, None,
                    f"expected {len(expected_header)} fields, got {len(row)}",
                )
            yield lineno, dict(zip(expected_header, row))


def _csv_errors(path: Path, reader):
    """reader's rows; a csv.Error raises the MalformedCsv of its row,
    counted as _read_rows counts them (the header is row 0)."""
    row = 0
    while True:
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise MalformedCsv(str(path), row, None, str(exc)) from None
        row = row + 1 if row else 2


def _parse_date(path, lineno, column, raw: str) -> date:
    try:
        return date.fromisoformat(raw.strip())
    except ValueError:
        raise MalformedCsv(str(path), lineno, column,
                           f"not an ISO date: {raw!r}") from None


def _parse_optional_number(path, lineno, column, raw: str) -> float | None:
    raw = raw.strip()
    if raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise MalformedCsv(str(path), lineno, column,
                           f"not a number: {raw!r}") from None


def _parse_age(path, lineno, raw: str) -> float | None:
    age = _parse_optional_number(path, lineno, "age", raw)
    if age is not None and not (0 <= age <= 120):
        raise MalformedCsv(str(path), lineno, "age",
                           f"age {age} outside [0, 120]")
    return age


def _parse_income(path, lineno, raw: str) -> float | None:
    income = _parse_optional_number(path, lineno, "income", raw)
    if income is not None and not (0 <= income < math.inf):
        raise MalformedCsv(str(path), lineno, "income",
                           f"income {income} must be finite and >= 0")
    return income


def _key_from_row(row: dict) -> ClientKey:
    return ClientKey(row["cares_id"].strip(), row["family_id"].strip(),
                     row["case_id"].strip())


def read_demographics(path: str | Path) -> list[DemographicRecord]:
    records = []
    for lineno, row in _read_rows(path, DEMOGRAPHICS_HEADER):
        age = _parse_age(path, lineno, row["age"])
        admitted_raw = row["admitted"].strip().lower()
        if admitted_raw not in ("true", "false"):
            raise MalformedCsv(str(path), lineno, "admitted",
                               f"expected true/false, got {row['admitted']!r}")
        records.append(
            DemographicRecord(
                key=_key_from_row(row),
                age=age,
                race=row["race"],
                family_type=row["family_type"],
                reason_homeless=row["reason_homeless"],
                employment=row["employment"],
                citizenship=row["citizenship"],
                income=_parse_income(path, lineno, row["income"]),
                entry_date=_parse_date(path, lineno, "entry_date",
                                       row["entry_date"]),
                admitted=admitted_raw == "true",
            )
        )
    return records


def read_exits(path: str | Path) -> list[ExitRecord]:
    return [
        ExitRecord(
            key=_key_from_row(row),
            exit_date=_parse_date(path, lineno, "exit_date", row["exit_date"]),
            exit_reason=row["exit_reason"],
        )
        for lineno, row in _read_rows(path, EXITS_HEADER)
    ]


def read_incidents(path: str | Path) -> list[IncidentRecord]:
    return [
        IncidentRecord(
            key=_key_from_row(row),
            incident_date=_parse_date(path, lineno, "incident_date",
                                      row["incident_date"]),
            incident_type=row["incident_type"],
        )
        for lineno, row in _read_rows(path, INCIDENTS_HEADER)
    ]


_UNDATED_CLOSED = ResidenceEpisode(date.min, date.min)
_UNDATED_OPEN = ResidenceEpisode(date.min)
_COUNT_FIELDS = ("n_episodes", "n_open_episodes", "total_los_days",
                 "incident_count")


def _profile_row_problem(v: dict[str, int]) -> tuple[str, str] | None:
    for f in features.CATEGORICAL_FIELDS:
        if v[f] not in features.CATEGORIES[f]:
            return f, f"unknown {f} code {v[f]}"
    for f in _COUNT_FIELDS:
        if v[f] < 0:
            return f, f"negative count {v[f]}"
    n = v["n_episodes"]
    if n == 0:
        return "n_episodes", "must be >= 1: a linked profile has an episode"
    if v["n_open_episodes"] > n:
        return "n_open_episodes", f"more open episodes than {n} episodes"
    if v["readmit"] != (n >= 2):
        return "readmit", f"must be {int(n >= 2)} with {n} episodes"
    return None


def read_profiles(path: str | Path) -> list[ClientProfile]:
    profiles = []
    for lineno, row in _read_rows(path, PROFILES_HEADER):
        values = {}
        for f in features.CATEGORICAL_FIELDS + _COUNT_FIELDS + ("readmit",):
            try:
                values[f] = int(row[f])
            except ValueError:
                raise MalformedCsv(str(path), lineno, f,
                                   f"not an integer: {row[f]!r}") from None
        problem = _profile_row_problem(values)
        if problem is not None:
            raise MalformedCsv(str(path), lineno, *problem)
        age = _parse_age(path, lineno, row["age"])
        income = _parse_income(path, lineno, row["income"])
        n_closed = values["n_episodes"] - values["n_open_episodes"]
        profiles.append(
            ClientProfile(
                id=row["id"],
                age=age,
                race=values["race"],
                family_type=values["family_type"],
                reason_homeless=values["reason_homeless"],
                employment=values["employment"],
                citizenship=values["citizenship"],
                income=income,
                episodes=(_UNDATED_CLOSED,) * n_closed
                + (_UNDATED_OPEN,) * values["n_open_episodes"],
                total_los_days=values["total_los_days"],
                incident_count=values["incident_count"],
                readmit=values["readmit"],
            )
        )
    return profiles

