"""Client record linkage: raw intake files to labeled individual profiles.

Three input files (demographics, exits, incidents) share a three-part
client key. Rows are joined on the concatenated key, non-admitted
cases are dropped, entry/exit dates are paired into residence episodes,
and each unique individual gets a readmission label: 1 when they have
two or more distinct episodes, else 0.

Every file is read, checked and linked by column: the readers return
each file's validated values as a RawTable, and unify returns the
profiles as a ProfileTable, whose ClientProfile records are built only
when a row is indexed or iterated. ProfileTable is the one cohort
table: read_profiles and synthgen.generate return it too, and
write_profiles, synthgen.emit_raw_files and features.encode read its
columns, a plain sequence of records first converted by profile_table.

Every file is written by column too: write_profiles and the raw
writers hand _write_csv one column of str cells per header name, and
it writes the rows as joined text, quoting only the columns, and the
rows, that need it. The csv module is used only for reading.
"""

from __future__ import annotations

import csv
import gc
import math
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date
from itertools import accumulate, compress, islice, repeat, starmap
from operator import eq, gt
from pathlib import Path

from .errors import EmptyKeyPart, MalformedCsv, NoEpisodes
from . import schema

# IdCombo: the unique-individual key, a delimited concatenation of the
# three client key parts (see id_combos).
IdCombo = str


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
    profiles: ProfileTable
    warnings: list[ConflictWarning] = field(default_factory=list)
    removed_not_admitted: int = 0


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while columns are built.

    Cells, columns and tables hold no reference cycles, so the
    collector's passes over them, which grow with the row count, would
    free nothing; reference counting frees what is dropped.
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


def id_combos(*key_columns: Sequence[str]) -> list[IdCombo]:
    """The id combo of each row, given its trimmed key parts by column.

    The three parts are joined with "|". Literal backslashes and pipes
    inside a part are escaped ("\\\\", "\\|") so distinct key triples
    can never collide; a column is escaped only when it holds one.
    A blank part raises EmptyKeyPart naming the key parts of the first
    row that has one.
    """
    if any("" in column for column in key_columns):
        key = next(row for row in zip(*key_columns) if "" in row)
        named = ", ".join(f"{name}={part!r}"
                          for name, part in zip(KEY_COLUMNS, key))
        raise EmptyKeyPart(f"blank key part in ClientKey({named})")
    parts = []
    for column in key_columns:
        text = "".join(column)
        parts.append(list(map(_escape_part, column))
                     if "|" in text or "\\" in text else column)
    return list(map("|".join, zip(*parts)))


def id_parts(combo: IdCombo) -> list[str]:
    """The three key parts of an id combo, honoring the escape sequences."""
    parts = _split_escaped(combo) if "\\" in combo else combo.split("|")
    if len(parts) != 3:
        raise ValueError(f"id combo {combo!r} does not have three parts")
    return parts


def id_part_columns(combos: Sequence[IdCombo]) -> list[list[str]]:
    """The three key part columns of id combos, the inverse of id_combos.

    The combos are split in one pass when none holds a backslash and
    each holds exactly two "|"; otherwise each goes through id_parts,
    which honors escapes and raises its ValueError.
    """
    text = "|".join(combos)
    if "\\" in text or set(map(str.count, combos, repeat("|"))) != {2}:
        split = list(map(id_parts, combos))
        return [[parts[j] for parts in split] for j in range(3)]
    parts = text.split("|")
    return [parts[j::3] for j in range(3)]


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


def derive_label(n_episodes: int) -> int:
    """1 for a multi-entry client (two or more episodes), else 0."""
    if n_episodes < 1:
        raise NoEpisodes("cannot label a profile with no episodes")
    return 1 if n_episodes >= 2 else 0


KEY_COLUMNS = ("cares_id", "family_id", "case_id")

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

# A ProfileTable's dated episode columns (see ProfileTable.episodes).
EPISODE_COLUMNS = ("entry_date", "exit_date", "exit_reason")


class RawTable:
    """One raw intake file's validated values, one list per column.

    ``columns`` maps each header name, in file order, to its column:
    key parts trimmed, ages and incomes as float or None, dates as
    date, ``admitted`` as bool, and every other cell as read. len() is
    the file's row count.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, list]):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns["cares_id"])

    def key_columns(self, keep: Sequence[bool] | None = None
                    ) -> list[list[str]]:
        """The key part columns, of the rows flagged in keep (all rows
        when keep is None)."""
        return [self.columns[name] if keep is None
                else list(compress(self.columns[name], keep))
                for name in KEY_COLUMNS]


_DEMO_FIELDS = (
    "age", "race", "family_type", "reason_homeless",
    "employment", "citizenship", "income",
)


def _conflicts(combo: IdCombo, rows: list[int],
               columns: Mapping[str, list]) -> Iterable[ConflictWarning]:
    """A warning for each field on which an individual's demographic
    rows, in linkage order, hold values of more than one str; the last
    row's value is kept."""
    for fname in _DEMO_FIELDS:
        values = [columns[fname][i] for i in rows]
        distinct = sorted({str(v): v for v in values}.values(), key=str)
        if len(distinct) > 1:
            yield ConflictWarning(combo, fname, values[-1], tuple(distinct))


def _pair_episodes(entries: list[date], exits: list[tuple[date, str]]
                   ) -> list[tuple[date, date | None, str | None]]:
    """Greedy chronological pairing of sorted entries with exits sorted
    by (date, reason): each entry takes the earliest unused exit on or
    after it; entries left over become open episodes. The (entry, exit
    date, exit reason) of each episode, in entry order."""
    remaining = list(exits)
    episodes = []
    for entry in entries:
        for k, (day, reason) in enumerate(remaining):
            if day >= entry:
                del remaining[k]
                episodes.append((entry, day, reason))
                break
        else:
            episodes.append((entry, None, None))
    return episodes


@_collector_paused()
def unify(demo: RawTable, exits: RawTable, incidents: RawTable) -> UnifyResult:
    """Link the three files' columns into one profile per individual.

    Non-admitted demographic rows are removed up front. Within each
    individual the most recent entry's demographics win; disagreements
    are reported as warnings, never failures. Output is sorted by id.

    Only individuals with several demographic rows are sorted (by
    entry date, then by the str of each field, so row order never
    matters) and scanned for conflicts, and only those with several
    entries or exits are paired by _pair_episodes; for a lone entry
    and at most one exit the pairing is written out. Each distinct
    category label is canonicalized once.
    """
    d = demo.columns
    admitted = d["admitted"]
    rows = list(compress(range(len(demo)), admitted))
    demo_ids = id_combos(*demo.key_columns(admitted))
    exit_ids = id_combos(*exits.key_columns())
    incident_counts = Counter(id_combos(*incidents.key_columns()))

    groups: dict[IdCombo, list[int]] = {}
    for combo, row in zip(demo_ids, rows):
        groups.setdefault(combo, []).append(row)
    exits_by_id: dict[IdCombo, list[int]] = {}
    for row, combo in enumerate(exit_ids):
        exits_by_id.setdefault(combo, []).append(row)

    order = sorted(groups)
    fields = [d[f] for f in _DEMO_FIELDS]
    entry = d["entry_date"]
    warnings: list[ConflictWarning] = []
    for combo in sorted(c for c, group in groups.items() if len(group) > 1):
        group = groups[combo]
        keys = {i: (entry[i], tuple([str(column[i]) for column in fields]))
                for i in group}
        group.sort(key=keys.__getitem__)
        if len({texts for _, texts in keys.values()}) > 1:
            warnings.extend(_conflicts(combo, group, d))
    latest = [groups[combo][-1] for combo in order]

    exit_date, exit_reason = (exits.columns["exit_date"],
                              exits.columns["exit_reason"])
    n_episodes, n_open, total_los = [], [], []
    episodes = {name: [] for name in EPISODE_COLUMNS}
    entries, exits_on, reasons = episodes.values()
    for combo in order:
        group, out = groups[combo], exits_by_id.get(combo, ())
        if len(group) == 1 and len(out) <= 1:  # _pair_episodes' result
            day = entry[group[0]]
            closes = out and exit_date[out[0]] >= day
            pairs = [(day, exit_date[out[0]], exit_reason[out[0]]) if closes
                     else (day, None, None)]
        else:
            pairs = _pair_episodes(
                [entry[i] for i in group],
                sorted((exit_date[j], exit_reason[j]) for j in out))
        closed = [(left - day).days for day, left, _ in pairs
                  if left is not None]
        n_episodes.append(len(pairs))
        n_open.append(len(pairs) - len(closed))
        total_los.append(sum(closed))
        for day, left, reason in pairs:
            entries.append(day)
            exits_on.append(left)
            reasons.append(reason)

    columns: dict[str, list] = {"id": order}
    for fname in _DEMO_FIELDS:
        values = list(map(d[fname].__getitem__, latest))
        if fname in schema.CATEGORIES:
            codes = {raw: schema.canonicalize(raw, fname)
                     for raw in dict.fromkeys(values)}  # in id order
            values = list(map(codes.__getitem__, values))
        columns[fname] = values
    columns["n_episodes"] = n_episodes
    columns["n_open_episodes"] = n_open
    columns["total_los_days"] = total_los
    columns["incident_count"] = list(map(incident_counts.__getitem__, order))
    columns["readmit"] = list(map(derive_label, n_episodes))
    return UnifyResult(profiles=ProfileTable(columns, episodes),
                       warnings=warnings,
                       removed_not_admitted=len(demo) - len(rows))


def locate_blank_key(sources: Sequence[tuple[str | Path, RawTable]]
                     ) -> MalformedCsv:
    """The error naming the file, row and column of the first row, in
    unify's order, whose key has a blank part.

    sources are (path, table read from it) pairs for the demographics,
    exits and incidents files, in that order. Like unify, this skips
    non-admitted demographic rows, which are never linked.
    """
    for path, table in sources:
        linked = table.columns.get("admitted", [True] * len(table))
        for row, (flag, *parts) in enumerate(
                zip(linked, *table.key_columns()), start=2):
            for column, part in zip(KEY_COLUMNS, parts):
                if flag and not part:
                    return MalformedCsv(str(path), row, column,
                                        "blank key part")
    raise ValueError("no linked row has a blank key part")


# --- CSV input -------------------------------------------------------------

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


# Rows converted and checked per column pass: the raw rows held at once.
READ_CHUNK = 4096

# A chunk's rows, by column name, as read (str cells).
_Cells = Mapping[str, Sequence[str]]


def _read_columns(path: str | Path, header: list[str],
                  values: Callable[[_Cells], dict[str, Iterable] | None],
                  check_rows: Callable[[str | Path, list[list[str]], int],
                                       None]) -> dict[str, list]:
    """A CSV file's values by column, READ_CHUNK rows at a time.

    values(cells) converts and checks a chunk a column at a time, and
    returns None if any row breaks a rule. A bad file raises the
    MalformedCsv of its first bad row, at that row's first bad column,
    as a row-by-row read would: once a chunk's column check fails, or
    the reader stops at a row, check_rows(path, rows, first row number)
    checks the rows of the chunk read so far one at a time, and raises
    the error of the first bad one.
    """
    columns: dict[str, list] = {}
    reader = _read_rows(path, header)
    first = 2  # the row number of the chunk's first row
    while True:
        rows: list[list[str]] = []
        try:
            for _, row in reader:
                rows.append(row)
                if len(rows) == READ_CHUNK:
                    break
        except MalformedCsv:
            check_rows(path, rows, first)  # a bad cell comes first
            raise
        chunk = values(dict(zip(header, zip(*rows))) if rows
                       else dict.fromkeys(header, ()))
        if chunk is None:
            check_rows(path, rows, first)
            raise AssertionError("a column check failed but every row passes")
        for name, column in chunk.items():
            columns.setdefault(name, []).extend(column)
        if len(rows) < READ_CHUNK:
            return columns
        first += READ_CHUNK


def _by_distinct(convert: Callable[[str], object],
                 cells: Iterable[str]) -> dict[str, object]:
    """convert(cell) of each distinct cell, keyed by the cell."""
    return {cell: convert(cell) for cell in set(cells)}


def _lookup(values: Mapping, cells: Iterable) -> Iterable:
    return map(values.__getitem__, cells)


def _optional_number(cell: str) -> float | None:
    """float of a cell, None for a blank one; ValueError on any other."""
    return float(s) if (s := cell.strip()) else None


def _iso_date(cell: str) -> date:
    return date.fromisoformat(cell.strip())


def _parse_date(path, lineno, column, raw: str) -> date:
    try:
        return _iso_date(raw)
    except ValueError:
        raise MalformedCsv(str(path), lineno, column,
                           f"not an ISO date: {raw!r}") from None


def _parse_optional_number(path, lineno, column, raw: str) -> float | None:
    try:
        return _optional_number(raw)
    except ValueError:
        raise MalformedCsv(str(path), lineno, column,
                           f"not a number: {raw.strip()!r}") from None


# The oldest age, in years, that the readers accept.
MAX_AGE = 120


def _age_ok(age: float | None) -> bool:
    return age is None or 0 <= age <= MAX_AGE


def _income_ok(income: float | None) -> bool:
    return income is None or 0 <= income < math.inf


def _parse_age(path, lineno, raw: str) -> float | None:
    age = _parse_optional_number(path, lineno, "age", raw)
    if not _age_ok(age):
        raise MalformedCsv(str(path), lineno, "age",
                           f"age {age} outside [0, {MAX_AGE}]")
    return age


def _parse_income(path, lineno, raw: str) -> float | None:
    income = _parse_optional_number(path, lineno, "income", raw)
    if not _income_ok(income):
        raise MalformedCsv(str(path), lineno, "income",
                           f"income {income} must be finite and >= 0")
    return income


def _flag(cell: str) -> str:
    return cell.strip().lower()


def _check_demographic_rows(path, rows: list[list[str]], first: int) -> None:
    for lineno, row in enumerate(rows, start=first):
        _parse_age(path, lineno, row[3])
        if _flag(row[11]) not in ("true", "false"):
            raise MalformedCsv(str(path), lineno, "admitted",
                               f"expected true/false, got {row[11]!r}")
        _parse_income(path, lineno, row[9])
        _parse_date(path, lineno, "entry_date", row[10])


def _demographic_values(cells: _Cells) -> dict[str, Iterable] | None:
    try:
        ages = _by_distinct(_optional_number, cells["age"])
        incomes = _by_distinct(_optional_number, cells["income"])
        dates = _by_distinct(_iso_date, cells["entry_date"])
    except ValueError:
        return None
    flags = _by_distinct(_flag, cells["admitted"])
    if not (set(flags.values()) <= {"true", "false"}
            and all(map(_age_ok, ages.values()))
            and all(map(_income_ok, incomes.values()))):
        return None
    admitted = {cell: flag == "true" for cell, flag in flags.items()}
    return {
        **{name: map(str.strip, cells[name]) for name in KEY_COLUMNS},
        "age": _lookup(ages, cells["age"]),
        **{name: cells[name] for name in schema.CATEGORICAL_FIELDS},
        "income": _lookup(incomes, cells["income"]),
        "entry_date": _lookup(dates, cells["entry_date"]),
        "admitted": _lookup(admitted, cells["admitted"]),
    }


@_collector_paused()
def read_demographics(path: str | Path) -> RawTable:
    """demographics.csv's values, each column checked a chunk at a time
    (see _read_columns): ages blank or in [0, MAX_AGE], incomes blank or
    finite and >= 0, ISO entry dates and true/false admitted flags."""
    return RawTable(_read_columns(path, DEMOGRAPHICS_HEADER,
                                  _demographic_values,
                                  _check_demographic_rows))


@_collector_paused()
def _read_dated(path: str | Path, header: list[str]) -> RawTable:
    """A file of key, ISO date and one text cell per row."""
    day = header[3]

    def values(cells: _Cells) -> dict[str, Iterable] | None:
        try:
            dates = _by_distinct(_iso_date, cells[day])
        except ValueError:
            return None
        return {**{name: map(str.strip, cells[name]) for name in KEY_COLUMNS},
                day: _lookup(dates, cells[day]), header[4]: cells[header[4]]}

    def check_rows(path, rows: list[list[str]], first: int) -> None:
        for lineno, row in enumerate(rows, start=first):
            _parse_date(path, lineno, day, row[3])

    return RawTable(_read_columns(path, header, values, check_rows))


def read_exits(path: str | Path) -> RawTable:
    return _read_dated(path, EXITS_HEADER)


def read_incidents(path: str | Path) -> RawTable:
    return _read_dated(path, INCIDENTS_HEADER)


# --- CSV output --------------------------------------------------------------

# The characters that make csv's minimal quoting wrap a cell in quotes
# ("\r" only matters in a row that is written fully quoted anyway).
_SPECIAL = (",", '"', "\n", "\r")


def _quoted(cell: str) -> str:
    """cell wrapped in quotes, its inner quotes doubled."""
    return '"' + cell.replace('"', '""') + '"'


def _column_cells(column: Sequence[str]) -> tuple[Sequence[str], list[int]]:
    """A column's cells as csv's minimal quoting writes them (the column
    itself when no cell needs quotes), and the rows whose cell holds a
    "\r"."""
    text = "".join(column)
    if not any(ch in text for ch in _SPECIAL):
        return column, []
    cells = [_quoted(cell) if any(ch in cell for ch in _SPECIAL) else cell
             for cell in column]
    return cells, ([i for i, cell in enumerate(column) if "\r" in cell]
                   if "\r" in text else [])


def _write_csv(path: str | Path, header: Sequence[str],
               columns: Sequence[Sequence[str]]) -> None:
    """Write a header and the str cells of each of its two or more names'
    columns: the bytes that the csv module's writer writes with "\n"
    line ends, given header names that need no quotes.

    Each column is scanned once, and only one holding ",", '"', "\n" or
    "\r" is quoted cell by cell, by csv's minimal rule. With "\n" line
    ends csv leaves a lone "\r" unquoted, and reading would split the
    row there; a row holding one is written fully quoted. Rows are
    joined and written READ_CHUNK at a time.
    """
    cells, cr_rows = zip(*map(_column_cells, columns))
    full = set().union(*cr_rows)
    if full:
        cells = [list(column) for column in cells]
        for i in full:
            for quoted, column in zip(cells, columns):
                quoted[i] = _quoted(column[i])
    rows = zip(*cells)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        while lines := list(map(",".join, islice(rows, READ_CHUNK))):
            lines.append("")
            fh.write("\n".join(lines))


def _write_raw(header: list[str], columns: Mapping[str, Sequence[str]],
               path: str | Path) -> None:
    if set(columns) != set(header):
        raise ValueError(f"columns {sorted(columns)} != {sorted(header)}")
    if len({len(column) for column in columns.values()}) > 1:
        raise ValueError("columns differ in length")
    _write_csv(path, header, [columns[name] for name in header])


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
    """Write profiles.csv from the columns of profile_table(profiles) as
    joined column text (see _write_csv). Each distinct age and income
    is formatted once, and every other cell is its str()."""
    columns = profile_table(profiles).columns
    _write_csv(path, PROFILES_HEADER, [
        columns[name] if name == "id"
        else _formatted(columns[name]) if name in ("age", "income")
        else list(map(str, columns[name]))
        for name in PROFILES_HEADER])


def _formatted(values: Sequence, text: Callable[..., str] = format_number
               ) -> list[str]:
    """text(value) of each value, each distinct value formatted once
    (0.0 and -0.0 share a key; format_number gives "0" for both)."""
    texts = {value: text(value) for value in set(values)}
    return list(map(texts.__getitem__, values))


_UNDATED_CLOSED = ResidenceEpisode(date.min, date.min)
_UNDATED_OPEN = ResidenceEpisode(date.min)
_COUNT_FIELDS = ("n_episodes", "n_open_episodes", "total_los_days",
                 "incident_count")


# profiles.csv's integer columns, in file order.
_INT_COLUMNS = schema.CATEGORICAL_FIELDS + _COUNT_FIELDS + ("readmit",)


def _profile(profile_id, age, race, family_type, reason_homeless, employment,
             citizenship, income, n_episodes, n_open, total_los_days,
             incident_count, readmit,
             episodes: tuple[ResidenceEpisode, ...] | None = None
             ) -> ClientProfile:
    """The record of one profiles.csv row, given its values in file
    order and its episodes; with none given, n_episodes undated
    episodes (closed ones first)."""
    if episodes is None:
        episodes = ((_UNDATED_CLOSED,) * (n_episodes - n_open)
                    + (_UNDATED_OPEN,) * n_open)
    return ClientProfile(
        profile_id, age, race, family_type, reason_homeless, employment,
        citizenship, income, episodes, total_los_days, incident_count,
        readmit)


def _transposed(rows: list[tuple], names: Sequence[str]) -> dict[str, tuple]:
    """The columns of rows, one per name (empty ones when rows is)."""
    return dict(zip(names, zip(*rows) if rows else [()] * len(names)))


class ProfileTable(Sequence):
    """Profiles by column: what read_profiles, unify and
    synthgen.generate return.

    ``columns`` maps each PROFILES_HEADER name, in file order, to its
    column: ids as str, ages and incomes as float or None, and every
    other column as int. ``episodes`` is None for a table read from
    profiles.csv, which keeps no dates; otherwise it maps each
    EPISODE_COLUMNS name to one entry per episode, client by client and
    each client's in episode order: entry and exit dates as date and
    exit reasons as str (exit date and reason None while a stay is
    open).

    The table is also a read-only sequence of ClientProfile, built only
    when a row is indexed or iterated: with dated episodes, or else with
    n_episodes undated ones (see read_profiles). It equals any sequence
    of the same records. write_profiles, synthgen.emit_raw_files and
    features.encode read the columns directly.
    """

    __slots__ = ("columns", "episodes", "_starts")

    def __init__(self, columns: dict[str, Sequence],
                 episodes: dict[str, Sequence] | None = None):
        self.columns = columns
        self.episodes = episodes
        # Each row's first dated episode, summed on the first index.
        self._starts: list[int] | None = None

    @classmethod
    def from_profiles(cls, profiles: Iterable[ClientProfile]) -> ProfileTable:
        """The table of profiles' records and their dated episodes,
        transposed in one pass and not validated."""
        rows, episodes = [], []
        for p in profiles:
            rows.append((p.id, p.age, p.race, p.family_type,
                         p.reason_homeless, p.employment, p.citizenship,
                         p.income, len(p.episodes),
                         sum(not ep.closed for ep in p.episodes),
                         p.total_los_days, p.incident_count, p.readmit))
            episodes.extend((ep.entry_date, ep.exit_date, ep.exit_reason)
                            for ep in p.episodes)
        return cls(_transposed(rows, PROFILES_HEADER),
                   _transposed(episodes, EPISODE_COLUMNS))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __len__(self) -> int:
        return len(self.columns["id"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]
        values = [column[i] for column in self.columns.values()]
        if self.episodes is None:
            return _profile(*values)
        if self._starts is None:
            self._starts = list(accumulate(self.columns["n_episodes"],
                                           initial=0))
        start = self._starts[i]
        return _profile(*values,
                        tuple(self._dated_episodes(start, start + values[8])))

    def __iter__(self):
        rows = zip(*self.columns.values())
        if self.episodes is None:
            return starmap(_profile, rows)
        episodes = self._dated_episodes()
        return (_profile(*row, tuple(islice(episodes, row[8])))
                for row in rows)

    def _dated_episodes(self, start: int = 0, stop: int | None = None):
        """The ResidenceEpisode of each dated episode from start to stop."""
        return map(ResidenceEpisode, *(
            islice(self.episodes[name], start, stop)
            for name in EPISODE_COLUMNS))


def profile_table(profiles: Sequence[ClientProfile]) -> ProfileTable:
    """profiles as a ProfileTable: a table as it is, and any other
    sequence of records through ProfileTable.from_profiles."""
    return (profiles if isinstance(profiles, ProfileTable)
            else ProfileTable.from_profiles(profiles))


def check_codes(columns: Mapping[str, Sequence]) -> None:
    """Raise a ValueError naming the first row, and in it the first
    categorical field, whose code is not in the schema, given the "id"
    column and each categorical field's codes."""
    fields, known = schema.CATEGORICAL_FIELDS, schema.CATEGORIES
    if all(set(columns[f]) <= known[f].keys() for f in fields):
        return
    for profile_id, *codes in zip(columns["id"], *map(columns.get, fields)):
        for f, code in zip(fields, codes):
            if code not in known[f]:
                raise ValueError(
                    f"profile {profile_id}: bad {f} code {code!r}")


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
    if readmit != derive_label(n):
        return "readmit", f"must be {derive_label(n)} with {n} episodes"
    return None


def _check_profile_rows(path: str | Path, rows: list[list[str]],
                        first: int) -> None:
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


def _profile_values(cells: _Cells) -> dict[str, tuple] | None:
    """A chunk's values by column name, each column converted and
    checked in one pass; None if any row breaks a rule."""
    if not cells["id"]:
        return dict.fromkeys(PROFILES_HEADER, ())
    try:
        ints = {name: tuple(map(int, cells[name])) for name in _INT_COLUMNS}
        ages = _by_distinct(_optional_number, cells["age"])
        incomes = _by_distinct(_optional_number, cells["income"])
    except ValueError:
        return None
    n, n_open = ints["n_episodes"], ints["n_open_episodes"]
    valid = (
        all(set(ints[f]) <= schema.CATEGORIES[f].keys()
            for f in schema.CATEGORICAL_FIELDS)
        and all(min(ints[f]) >= 0 for f in _COUNT_FIELDS)
        and min(n) >= 1
        and not any(map(gt, n_open, n))
        and list(ints["readmit"]) == list(map(derive_label, n))
        and all(map(_age_ok, ages.values()))
        and all(map(_income_ok, incomes.values()))
    )
    if not valid:
        return None
    return {"id": cells["id"], "age": tuple(_lookup(ages, cells["age"])),
            "income": tuple(_lookup(incomes, cells["income"])), **ints}


@_collector_paused()
def read_profiles(path: str | Path) -> ProfileTable:
    """Load profiles.csv as a ProfileTable, checking codes, counts,
    labels, ages and incomes (finite, >= 0) as read_demographics does.

    Every READ_CHUNK rows, each column is converted and checked in one
    pass (see _read_columns): a bad file raises the MalformedCsv of its
    first bad row, at that row's first bad column in
    _check_profile_rows' order.

    The file keeps episode counts but not dates, so each profile comes
    back with that many undated episodes (closed ones first), entered
    and exited on date.min; total_los_days keeps the stored sum.
    """
    columns = _read_columns(path, PROFILES_HEADER, _profile_values,
                            _check_profile_rows)
    return ProfileTable({name: tuple(columns[name])
                         for name in PROFILES_HEADER})
