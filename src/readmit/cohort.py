"""Client record linkage: raw intake files to labeled individual profiles.

Three input files (demographics, exits, incidents) share a three-part
client key. Records are joined on the concatenated key, non-admitted
cases are dropped, entry/exit dates are paired into residence episodes,
and each unique individual gets a readmission label: 1 when they have
two or more distinct episodes, else 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

from .errors import EmptyKeyPart, MalformedCsv, NoEpisodes
from . import features

# IdCombo: the unique-individual key, a delimited concatenation of the
# three client key parts (see make_id_combo).
IdCombo = str


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


@dataclass(frozen=True)
class ResidenceEpisode:
    """One contiguous shelter stay. exit_date is None while the stay is open."""

    entry_date: date
    exit_date: date | None = None
    exit_reason: str | None = None

    def __post_init__(self):
        if self.exit_date is not None and self.exit_date < self.entry_date:
            raise ValueError(
                f"exit {self.exit_date} precedes entry {self.entry_date}"
            )

    @property
    def closed(self) -> bool:
        return self.exit_date is not None

    @property
    def duration_days(self) -> int:
        """Length of a closed episode in whole days."""
        if self.exit_date is None:
            raise ValueError("open episode has no fixed duration")
        return (self.exit_date - self.entry_date).days


@dataclass(frozen=True)
class ClientProfile:
    """One unique individual with canonical predictors and derived label.

    Category fields hold canonical integer codes (see features module).
    total_los_days sums closed episodes only; open stays add nothing.
    """

    id: IdCombo
    age: float | None
    race: int
    family_type: int
    reason_homeless: int
    employment: int
    citizenship: int
    income: float | None
    episodes: tuple[ResidenceEpisode, ...]
    total_los_days: int
    incident_count: int
    readmit: int


@dataclass(frozen=True)
class ConflictWarning:
    """Demographic disagreement within one individual's records."""

    id: IdCombo
    field: str
    kept: object
    seen: tuple[object, ...]

    def __str__(self) -> str:
        others = ", ".join(repr(v) for v in self.seen if v != self.kept)
        return f"{self.id}: {self.field}: kept {self.kept!r}; also saw: {others}"


@dataclass
class UnifyResult:
    profiles: list[ClientProfile]
    warnings: list[ConflictWarning] = field(default_factory=list)
    removed_not_admitted: int = 0


def _escape_part(part: str) -> str:
    return part.replace("\\", "\\\\").replace("|", "\\|")


def make_id_combo(key: ClientKey) -> IdCombo:
    """Concatenate the three key parts into one injective identifier.

    Parts are trimmed, then joined with "|". Literal backslashes and
    pipes inside a part are escaped ("\\\\", "\\|") so distinct key
    triples can never collide.
    """
    parts = (key.cares_id.strip(), key.family_id.strip(), key.case_id.strip())
    if any(not p for p in parts):
        raise EmptyKeyPart(f"blank key part in {key}")
    return "|".join(_escape_part(p) for p in parts)


def split_id_combo(combo: IdCombo) -> ClientKey:
    """Invert make_id_combo, honoring the escape sequences."""
    parts: list[str] = []
    current: list[str] = []
    it = iter(combo)
    for ch in it:
        if ch == "\\":
            nxt = next(it, None)
            if nxt is None:
                raise ValueError(f"dangling escape in id combo {combo!r}")
            current.append(nxt)
        elif ch == "|":
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    if len(parts) != 3:
        raise ValueError(f"id combo {combo!r} does not have three parts")
    return ClientKey(*parts)


def derive_label(episodes: Sequence[ResidenceEpisode]) -> int:
    """1 for a multi-entry client (two or more episodes), else 0."""
    if not episodes:
        raise NoEpisodes("cannot label a profile with no episodes")
    return 1 if len(episodes) >= 2 else 0


def _pair_episodes(
    entries: list[date], exits: list[ExitRecord]
) -> tuple[ResidenceEpisode, ...]:
    """Greedy chronological pairing: each entry takes the earliest
    unused exit on or after it; entries left over become open episodes."""
    # Content-based tie-break for same-day exits keeps pairing invariant
    # under input shuffling.
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
    # Content-based tie-break keeps unify invariant under input shuffling.
    return (rec.entry_date, tuple(str(getattr(rec, f)) for f in _DEMO_FIELDS))


def unify(
    demo: Iterable[DemographicRecord],
    exits: Iterable[ExitRecord],
    incidents: Iterable[IncidentRecord],
) -> UnifyResult:
    """Link the three record streams into one profile per individual.

    Non-admitted demographic records are removed up front. Within each
    individual the most recent entry's demographics win; disagreements
    are reported as warnings, never failures. Output is sorted by id.
    """
    kept: dict[IdCombo, list[DemographicRecord]] = {}
    removed = 0
    for rec in demo:
        if not rec.admitted:
            removed += 1
            continue
        kept.setdefault(make_id_combo(rec.key), []).append(rec)

    exits_by_id: dict[IdCombo, list[ExitRecord]] = {}
    for ex in exits:
        exits_by_id.setdefault(make_id_combo(ex.key), []).append(ex)

    incident_counts: dict[IdCombo, int] = {}
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
                readmit=derive_label(episodes),
            )
        )

    return UnifyResult(profiles=profiles, warnings=warnings,
                       removed_not_admitted=removed)


# --- CSV input -------------------------------------------------------------

DEMOGRAPHICS_HEADER = [
    "cares_id", "family_id", "case_id", "age", "race", "family_type",
    "reason_homeless", "employment", "citizenship", "income",
    "entry_date", "admitted",
]
EXITS_HEADER = ["cares_id", "family_id", "case_id", "exit_date", "exit_reason"]
INCIDENTS_HEADER = ["cares_id", "family_id", "case_id", "incident_date",
                    "incident_type"]

PROFILES_HEADER = [
    "id", "age", "race", "family_type", "reason_homeless", "employment",
    "citizenship", "income", "n_episodes", "n_open_episodes",
    "total_los_days", "incident_count", "readmit",
]


def _read_rows(path: str | Path, expected_header: list[str]):
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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


def _key_from_row(row: dict) -> ClientKey:
    return ClientKey(row["cares_id"].strip(), row["family_id"].strip(),
                     row["case_id"].strip())


def read_demographics(path: str | Path) -> list[DemographicRecord]:
    records = []
    for lineno, row in _read_rows(path, DEMOGRAPHICS_HEADER):
        age = _parse_optional_number(path, lineno, "age", row["age"])
        if age is not None and not (0 <= age <= 120):
            raise MalformedCsv(str(path), lineno, "age",
                               f"age {age} outside [0, 120]")
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
                income=_parse_optional_number(path, lineno, "income",
                                              row["income"]),
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


# --- CSV output --------------------------------------------------------------

def write_demographics(records: Sequence[DemographicRecord],
                       path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DEMOGRAPHICS_HEADER)
        for r in records:
            writer.writerow([
                r.key.cares_id, r.key.family_id, r.key.case_id,
                format_number(r.age),
                r.race, r.family_type, r.reason_homeless,
                r.employment, r.citizenship,
                format_number(r.income),
                r.entry_date.isoformat(),
                "true" if r.admitted else "false",
            ])


def write_exits(records: Sequence[ExitRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EXITS_HEADER)
        for r in records:
            writer.writerow([
                r.key.cares_id, r.key.family_id, r.key.case_id,
                r.exit_date.isoformat(), r.exit_reason,
            ])


def write_incidents(records: Sequence[IncidentRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(INCIDENTS_HEADER)
        for r in records:
            writer.writerow([
                r.key.cares_id, r.key.family_id, r.key.case_id,
                r.incident_date.isoformat(), r.incident_type,
            ])


def format_number(value: float | None) -> str:
    """Blank for missing; integral floats drop the trailing .0."""
    if value is None:
        return ""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def write_profiles(profiles: Sequence[ClientProfile], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # With "\n" line ends, csv leaves a lone "\r" unquoted, and reading
        # would split the row there; a row whose id holds one is quoted.
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(PROFILES_HEADER)
        for p in profiles:
            n_open = sum(1 for ep in p.episodes if not ep.closed)
            (quoted if "\r" in p.id else writer).writerow([
                p.id,
                format_number(p.age),
                p.race, p.family_type, p.reason_homeless,
                p.employment, p.citizenship,
                format_number(p.income),
                len(p.episodes), n_open,
                p.total_los_days, p.incident_count, p.readmit,
            ])


_UNDATED_CLOSED = ResidenceEpisode(date.min, date.min)
_UNDATED_OPEN = ResidenceEpisode(date.min)
_COUNT_FIELDS = ("n_episodes", "n_open_episodes", "total_los_days",
                 "incident_count")


def _profile_row_problem(v: dict[str, int]) -> tuple[str, str] | None:
    """(column, reason) of the first rule a profiles.csv row breaks."""
    for f in features.CATEGORICAL_FIELDS:
        if v[f] not in features.CATEGORIES[f]:
            return f, f"unknown {f} code {v[f]}"
    for f in _COUNT_FIELDS:
        if v[f] < 0:
            return f, f"negative count {v[f]}"
    n = v["n_episodes"]
    if v["n_open_episodes"] > n:
        return "n_open_episodes", f"more open episodes than {n} episodes"
    if v["readmit"] != (n >= 2):
        return "readmit", f"must be {int(n >= 2)} with {n} episodes"
    return None


def read_profiles(path: str | Path) -> list[ClientProfile]:
    """Load profiles.csv rows, checking codes, counts and labels.

    The file keeps episode counts but not dates, so each profile comes
    back with that many undated episodes (closed ones first), entered
    and exited on date.min; total_los_days keeps the stored sum.
    """
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
        n_closed = values["n_episodes"] - values["n_open_episodes"]
        profiles.append(
            ClientProfile(
                id=row["id"],
                age=_parse_optional_number(path, lineno, "age", row["age"]),
                race=values["race"],
                family_type=values["family_type"],
                reason_homeless=values["reason_homeless"],
                employment=values["employment"],
                citizenship=values["citizenship"],
                income=_parse_optional_number(path, lineno, "income",
                                              row["income"]),
                episodes=(_UNDATED_CLOSED,) * n_closed
                + (_UNDATED_OPEN,) * values["n_open_episodes"],
                total_los_days=values["total_los_days"],
                incident_count=values["incident_count"],
                readmit=values["readmit"],
            )
        )
    return profiles

