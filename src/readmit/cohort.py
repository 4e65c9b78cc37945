"""Client record linkage: raw intake files to labeled individual profiles.

Three input files (demographics, exits, incidents) share a three-part
client key. Records are joined on the concatenated key, non-admitted
cases are dropped, entry/exit dates are paired into residence episodes,
and each unique individual gets a readmission label: 1 when they have
two or more distinct episodes, else 0.
"""

from __future__ import annotations

import csv
import gc
import math
from collections.abc import Iterable, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date
from itertools import groupby, starmap
from operator import gt
from pathlib import Path

from .errors import EmptyKeyPart, MalformedCsv, NoEpisodes
from . import schema

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

    Category fields hold canonical integer codes (see readmit.schema).
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


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while records are built.

    Records, keys, episodes and profiles hold no reference cycles, so
    the collector's passes over them, which grow with the row count,
    would free nothing; reference counting frees what is dropped.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _escape_part(part: str) -> str:
    return part.replace("\\", "\\\\").replace("|", "\\|")


def make_id_combo(key: ClientKey) -> IdCombo:
    """Concatenate the three key parts into one injective identifier.

    Parts are trimmed, then joined with "|". Literal backslashes and
    pipes inside a part are escaped ("\\\\", "\\|") so distinct key
    triples can never collide.
    """
    parts = (key.cares_id.strip(), key.family_id.strip(), key.case_id.strip())
    if not all(parts):
        raise EmptyKeyPart(f"blank key part in {key}")
    combo = "|".join(parts)
    if "\\" in combo or combo.count("|") != 2:
        combo = "|".join(_escape_part(p) for p in parts)
    return combo


def split_id_combo(combo: IdCombo) -> ClientKey:
    """Invert make_id_combo, honoring the escape sequences."""
    return ClientKey(*id_parts(combo))


def id_parts(combo: IdCombo) -> list[str]:
    """The three key parts of an id combo, as split_id_combo finds them."""
    parts = _split_escaped(combo) if "\\" in combo else combo.split("|")
    if len(parts) != 3:
        raise ValueError(f"id combo {combo!r} does not have three parts")
    return parts


def _split_escaped(combo: IdCombo) -> list[str]:
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
    return parts


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


@_collector_paused()
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
        records = kept[combo]
        # A lone record needs no ordering and cannot conflict.
        if len(records) > 1:
            records.sort(key=_record_sort_key)
            for fname in _DEMO_FIELDS:
                values = [getattr(r, fname) for r in records]
                distinct = sorted({str(v): v for v in values}.values(),
                                  key=str)
                if len(distinct) > 1:
                    warnings.append(
                        ConflictWarning(combo, fname,
                                        getattr(records[-1], fname),
                                        tuple(distinct))
                    )
        latest = records[-1]

        episodes = _pair_episodes(
            [r.entry_date for r in records], exits_by_id.get(combo, [])
        )
        total_los = sum(ep.duration_days for ep in episodes if ep.closed)
        profiles.append(
            ClientProfile(
                id=combo,
                age=latest.age,
                race=schema.canonicalize(latest.race, "race"),
                family_type=schema.canonicalize(latest.family_type, "family_type"),
                reason_homeless=schema.canonicalize(
                    latest.reason_homeless, "reason_homeless"
                ),
                employment=schema.canonicalize(latest.employment, "employment"),
                citizenship=schema.canonicalize(latest.citizenship, "citizenship"),
                income=latest.income,
                episodes=episodes,
                total_los_days=total_los,
                incident_count=incident_counts.get(combo, 0),
                readmit=derive_label(episodes),
            )
        )

    return UnifyResult(profiles=profiles, warnings=warnings,
                       removed_not_admitted=removed)


KEY_COLUMNS = ("cares_id", "family_id", "case_id")


def locate_blank_key(sources: Sequence[tuple[str | Path, Sequence]]
                     ) -> MalformedCsv:
    """The error naming the file, row and column of the first record, in
    unify's order, whose key has a blank part.

    sources are (path, records as read from it) pairs for the
    demographics, exits and incidents files, in that order. Like unify,
    this skips non-admitted demographic records, which are never linked.
    """
    for path, records in sources:
        for row, rec in enumerate(records, start=2):
            if isinstance(rec, DemographicRecord) and not rec.admitted:
                continue
            for column in KEY_COLUMNS:
                if not getattr(rec.key, column).strip():
                    return MalformedCsv(str(path), row, column,
                                        "blank key part")
    raise ValueError("no linked record has a blank key part")


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
    """Yield (row number, fields) for each row, the fields in header
    order; the header and every row's width are checked first."""
    path = Path(path)
    try:
        yield from _read_utf8_rows(path, expected_header)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _read_utf8_rows(path: Path, expected_header: list[str]):
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
        width = len(expected_header)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise MalformedCsv(
                    str(path), lineno, None,
                    f"expected {width} fields, got {len(row)}",
                )
            yield lineno, row


def _not_utf8(path: Path) -> MalformedCsv:
    """The error for a file that is not UTF-8, at the line of its first
    bad byte (the text reader decodes ahead, so its position is not the
    row's)."""
    data = path.read_bytes()
    bad = len(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = exc.start
    return MalformedCsv(str(path), data.count(b"\n", 0, bad) + 1, None,
                        f"byte {data[bad:bad + 1]!r} is not UTF-8")


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


# The oldest age, in years, that the readers accept.
MAX_AGE = 120


def _parse_age(path, lineno, raw: str) -> float | None:
    age = _parse_optional_number(path, lineno, "age", raw)
    if age is not None and not (0 <= age <= MAX_AGE):
        raise MalformedCsv(str(path), lineno, "age",
                           f"age {age} outside [0, {MAX_AGE}]")
    return age


def _parse_income(path, lineno, raw: str) -> float | None:
    income = _parse_optional_number(path, lineno, "income", raw)
    if income is not None and not (0 <= income < math.inf):
        raise MalformedCsv(str(path), lineno, "income",
                           f"income {income} must be finite and >= 0")
    return income


def _key(cares_id: str, family_id: str, case_id: str) -> ClientKey:
    return ClientKey(cares_id.strip(), family_id.strip(), case_id.strip())


@_collector_paused()
def read_demographics(path: str | Path) -> list[DemographicRecord]:
    records = []
    for lineno, (cares_id, family_id, case_id, age, race, family_type,
                 reason_homeless, employment, citizenship, income,
                 entry_date, admitted) in _read_rows(path, DEMOGRAPHICS_HEADER):
        age_years = _parse_age(path, lineno, age)
        flag = admitted.strip().lower()
        if flag not in ("true", "false"):
            raise MalformedCsv(str(path), lineno, "admitted",
                               f"expected true/false, got {admitted!r}")
        income_amount = _parse_income(path, lineno, income)
        entry = _parse_date(path, lineno, "entry_date", entry_date)
        records.append(DemographicRecord(
            _key(cares_id, family_id, case_id), age_years, race, family_type,
            reason_homeless, employment, citizenship, income_amount, entry,
            flag == "true"))
    return records


@_collector_paused()
def _read_dated(path: str | Path, header: list[str], record_type):
    """Rows of key, date and one text cell, as record_type(key, date, text)."""
    records = []
    for lineno, (cares_id, family_id, case_id, day, text) in _read_rows(
            path, header):
        records.append(record_type(
            _key(cares_id, family_id, case_id),
            _parse_date(path, lineno, header[3], day), text))
    return records


def read_exits(path: str | Path) -> list[ExitRecord]:
    return _read_dated(path, EXITS_HEADER, ExitRecord)


def read_incidents(path: str | Path) -> list[IncidentRecord]:
    return _read_dated(path, INCIDENTS_HEADER, IncidentRecord)


# --- CSV output --------------------------------------------------------------

def _write_csv(path: str | Path, header: list[str],
               rows: Iterable[Sequence[str]]) -> None:
    """Write a header and rows of str fields, one writerows call per run
    of rows.

    With "\n" line ends, csv leaves a lone "\r" unquoted, and reading
    would split the row there; a row holding one is written fully quoted.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        for has_cr, run in groupby(rows, key=_holds_cr):
            (quoted if has_cr else writer).writerows(run)


def _holds_cr(row: Sequence[str]) -> bool:
    return "\r" in "".join(row)


def _write_raw(header: list[str], columns: Mapping[str, Sequence[str]],
               path: str | Path) -> None:
    if set(columns) != set(header):
        raise ValueError(f"columns {sorted(columns)} != {sorted(header)}")
    if len({len(column) for column in columns.values()}) > 1:
        raise ValueError("columns differ in length")
    _write_csv(path, header, zip(*(columns[name] for name in header)))


def write_demographics(columns: Mapping[str, Sequence[str]],
                       path: str | Path) -> None:
    """Write demographics.csv from its columns: the str cells of each
    DEMOGRAPHICS_HEADER name, rows in file order."""
    _write_raw(DEMOGRAPHICS_HEADER, columns, path)


def write_exits(columns: Mapping[str, Sequence[str]],
                path: str | Path) -> None:
    """Write exits.csv from the str cells of each EXITS_HEADER name."""
    _write_raw(EXITS_HEADER, columns, path)


def write_incidents(columns: Mapping[str, Sequence[str]],
                    path: str | Path) -> None:
    """Write incidents.csv from the str cells of each INCIDENTS_HEADER
    name."""
    _write_raw(INCIDENTS_HEADER, columns, path)


def format_number(value: float | None) -> str:
    """Blank for missing; integral floats drop the trailing .0."""
    if value is None:
        return ""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def write_profiles(profiles: Sequence[ClientProfile], path: str | Path) -> None:
    _write_csv(path, PROFILES_HEADER, (
        [p.id,
         format_number(p.age),
         f"{p.race}", f"{p.family_type}", f"{p.reason_homeless}",
         f"{p.employment}", f"{p.citizenship}",
         format_number(p.income),
         f"{len(p.episodes)}",
         f"{sum(1 for ep in p.episodes if not ep.closed)}",
         f"{p.total_los_days}", f"{p.incident_count}", f"{p.readmit}"]
        for p in profiles
    ))


_UNDATED_CLOSED = ResidenceEpisode(date.min, date.min)
_UNDATED_OPEN = ResidenceEpisode(date.min)
_COUNT_FIELDS = ("n_episodes", "n_open_episodes", "total_los_days",
                 "incident_count")


# profiles.csv's integer columns, in file order.
_INT_COLUMNS = schema.CATEGORICAL_FIELDS + _COUNT_FIELDS + ("readmit",)


def _profile(profile_id, age, race, family_type, reason_homeless, employment,
             citizenship, income, n_episodes, n_open, total_los_days,
             incident_count, readmit) -> ClientProfile:
    """The record of one profiles.csv row, given its values in file
    order, with n_episodes undated episodes (closed ones first)."""
    return ClientProfile(
        profile_id, age, race, family_type, reason_homeless, employment,
        citizenship, income,
        (_UNDATED_CLOSED,) * (n_episodes - n_open) + (_UNDATED_OPEN,) * n_open,
        total_los_days, incident_count, readmit)


class ProfileTable(Sequence):
    """profiles.csv's validated values, one tuple per column.

    ``columns`` maps each PROFILES_HEADER name, in file order, to its
    column: ids as str, ages and incomes as float or None, and every
    other column as int. The table is also a read-only sequence of
    ClientProfile, built only when a row is indexed or iterated;
    features.encode reads the columns directly.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, tuple]):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns["id"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return _profile(*(column[index] for column in self.columns.values()))

    def __iter__(self):
        return starmap(_profile, zip(*self.columns.values()))


def _profile_row_problem(values: list[int]) -> tuple[str, str] | None:
    """(column, reason) of the first rule a profiles.csv row breaks,
    given its integer cells in _INT_COLUMNS order."""
    for f, code in zip(schema.CATEGORICAL_FIELDS, values):
        if code not in schema.CATEGORIES[f]:
            return f, f"unknown {f} code {code}"
    for f, count in zip(_COUNT_FIELDS, values[5:]):
        if count < 0:
            return f, f"negative count {count}"
    n, n_open, readmit = values[5], values[6], values[9]
    if n == 0:
        return "n_episodes", "must be >= 1: a linked profile has an episode"
    if n_open > n:
        return "n_open_episodes", f"more open episodes than {n} episodes"
    if readmit != (n >= 2):
        return "readmit", f"must be {int(n >= 2)} with {n} episodes"
    return None


def _check_rows(path: str | Path, rows: list[list[str]], first: int) -> None:
    """Raise the MalformedCsv of the first row that breaks a rule, at its
    first bad column: the integer columns, then their rules, then age,
    then income. rows[0] is the file's row number first."""
    for lineno, row in enumerate(rows, start=first):
        values = []
        for column, cell in zip(_INT_COLUMNS, row[2:7] + row[8:]):
            try:
                values.append(int(cell))
            except ValueError:
                raise MalformedCsv(str(path), lineno, column,
                                   f"not an integer: {cell!r}") from None
        problem = _profile_row_problem(values)
        if problem is not None:
            raise MalformedCsv(str(path), lineno, *problem)
        _parse_age(path, lineno, row[1])
        _parse_income(path, lineno, row[7])


def _optional_numbers(cells) -> list[float | None]:
    """float of each cell, None for a blank one; ValueError on any other."""
    return [float(s) if (s := cell.strip()) else None for cell in cells]


def _chunk_values(path: str | Path, rows: list[list[str]],
                  first: int) -> dict[str, tuple]:
    """The values of rows, the first of them row number first, by column
    name. Each column is converted and checked in one pass; if any row
    breaks a rule, _check_rows finds the first one and raises its error."""
    if not rows:
        return {name: () for name in PROFILES_HEADER}
    cells = dict(zip(PROFILES_HEADER, zip(*rows)))
    try:
        ints = {name: tuple(map(int, cells[name])) for name in _INT_COLUMNS}
        age = tuple(_optional_numbers(cells["age"]))
        income = tuple(_optional_numbers(cells["income"]))
    except ValueError:
        valid = False
    else:
        n, n_open = ints["n_episodes"], ints["n_open_episodes"]
        valid = (
            all(set(ints[f]) <= schema.CATEGORIES[f].keys()
                for f in schema.CATEGORICAL_FIELDS)
            and all(min(ints[f]) >= 0 for f in _COUNT_FIELDS)
            and min(n) >= 1
            and not any(map(gt, n_open, n))
            and list(ints["readmit"]) == [k >= 2 for k in n]
            and all(0 <= a <= MAX_AGE for a in age if a is not None)
            and all(0 <= x < math.inf for x in income if x is not None)
        )
    if not valid:
        _check_rows(path, rows, first)
        raise AssertionError("a column check failed but every row passes")
    return {"id": cells["id"], "age": age, "income": income, **ints}


# Rows converted and checked per column pass: the raw rows held at once.
READ_CHUNK = 4096


@_collector_paused()
def read_profiles(path: str | Path) -> ProfileTable:
    """Load profiles.csv as a ProfileTable, checking codes, counts,
    labels, ages and incomes (finite, >= 0) as read_demographics does.

    Every READ_CHUNK rows, each column is converted and checked in one
    pass. A bad file raises the MalformedCsv of its first bad row, at
    that row's first bad column in _check_rows' order, as a row-by-row
    read would: once a column check fails, or the reader stops at a
    row, the rows of the chunk read so far are checked one at a time to
    find it.

    The file keeps episode counts but not dates, so each profile comes
    back with that many undated episodes (closed ones first), entered
    and exited on date.min; total_los_days keeps the stored sum.
    """
    columns: dict[str, list] = {name: [] for name in PROFILES_HEADER}
    reader = _read_rows(path, PROFILES_HEADER)
    first = 2  # the row number of the chunk's first row
    while True:
        rows: list[list[str]] = []
        try:
            for _, row in reader:
                rows.append(row)
                if len(rows) == READ_CHUNK:
                    break
        except MalformedCsv:
            _check_rows(path, rows, first)  # a bad cell comes first
            raise
        for name, values in _chunk_values(path, rows, first).items():
            columns[name].extend(values)
        if len(rows) < READ_CHUNK:
            return ProfileTable({name: tuple(column)
                                 for name, column in columns.items()})
        first += READ_CHUNK
