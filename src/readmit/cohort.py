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

_read_columns, the one reader of all four files, splits lines as text
and slices each column out of the cells; the module reads with csv
only a file that holds a '"', a "\r" or a NUL, or that breaks the
format (a row of the wrong width, a cell over csv.field_size_limit(),
a byte that is not UTF-8), from the first chunk of lines that does, so
csv raises every format error. Each value rule is one converter of a
cell, applied to a chunk's distinct cells, and the same converters find
a bad chunk's first bad row. unify links everyone in one walk.

Every file is written by column too: write_profiles and the raw
writers hand _write_csv one column of str cells per header name, and
it writes the rows as joined text, quoting only the columns, and the
rows, that need it. No csv writer is used.
"""

from __future__ import annotations

import csv
import gc
import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date
from functools import partial
from itertools import (accumulate, chain, compress, count, groupby, islice,
                       repeat, starmap)
from operator import eq, itemgetter
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


@_collector_paused()
def unify(demo: RawTable, exits: RawTable, incidents: RawTable) -> UnifyResult:
    """Link the three files' columns into one profile per individual.

    Non-admitted demographic rows are removed up front. Within each
    individual the most recent entry's demographics win; disagreements
    are reported as warnings, never failures. Output is sorted by id.

    Every individual is linked in one walk over the admitted rows,
    sorted by id, and the exits, sorted by (id, date, reason). An
    individual's rows are sorted by entry date, then by the str of each
    field, so row order never matters, and an individual with several
    is scanned for conflicts. Each entry takes the earliest unused exit
    on or after it: as the entries ascend, an exit earlier than one can
    never be taken by a later one, so one pointer walks the exits.
    Entries left over are open episodes. Each distinct category label
    is canonicalized once.
    """
    d = demo.columns
    admitted = d["admitted"]
    linked = sorted(zip(id_combos(*demo.key_columns(admitted)),
                        compress(count(), admitted)))
    outs = sorted(zip(id_combos(*exits.key_columns()),
                      exits.columns["exit_date"], exits.columns["exit_reason"]))
    incident_counts = Counter(id_combos(*incidents.key_columns()))
    entry = d["entry_date"]
    age, race, family, reason, employment, citizenship, income = map(
        d.__getitem__, _DEMO_FIELDS)

    order, latest, n_episodes, n_open, total_los = [], [], [], [], []
    episodes: list[tuple] = []
    warnings: list[ConflictWarning] = []
    k = 0  # the first exit not yet taken or passed
    for combo, group in groupby(linked, itemgetter(0)):
        group = list(map(itemgetter(1), group))
        if len(group) > 1:
            keys = {i: (entry[i], (str(age[i]), race[i], family[i], reason[i],
                                   employment[i], citizenship[i],
                                   str(income[i])))
                    for i in group}
            group.sort(key=keys.__getitem__)
            if len(set(map(itemgetter(1), keys.values()))) > 1:
                warnings.extend(_conflicts(combo, group, d))
        closed = stay = 0
        for day in map(entry.__getitem__, group):
            while k < len(outs) and outs[k][:2] < (combo, day):
                k += 1
            if k < len(outs) and outs[k][0] == combo:
                _, end, why = outs[k]
                k += 1
                closed += 1
                stay += (end - day).days
                episodes.append((day, end, why))
            else:
                episodes.append((day, None, None))
        order.append(combo)
        latest.append(group[-1])
        n_episodes.append(len(group))
        n_open.append(len(group) - closed)
        total_los.append(stay)

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
    columns["incident_count"] = list(map(incident_counts.get, order,
                                         repeat(0)))
    columns["readmit"] = list(map(derive_label, n_episodes))
    return UnifyResult(
        profiles=ProfileTable(columns, _transposed(episodes, EPISODE_COLUMNS)),
        warnings=warnings, removed_not_admitted=len(demo) - len(linked))


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

# Rows converted and checked per column pass: the raw lines held at once.
# A chunk's lines, text and cells stay in cache while its columns are
# converted: in-process, n=20,000 demographics.csv reads in about 64 ms
# at 1,024 against 75 ms at 4,096 (2-core VM, 2 MB L2 per core).
READ_CHUNK = 1024


def _read_columns(path: str | Path, header: list[str],
                  rules: Sequence[tuple]) -> dict[str, list]:
    """A CSV file's values by column, READ_CHUNK rows at a time.

    rules are a file's value rules, in the order a row is checked:
    (column, convert), or (column, convert, other column). convert(cell)
    is a cell's value, or raises ValueError(reason); with another column
    named, convert((value, other value)) checks a row's two values, as
    converted by the rules before it. A column that no rule names is
    kept as read.

    The header and each row's width are checked as the rows are read
    (see _chunks), and each chunk's values by the rules (see
    _converted). A bad file raises the MalformedCsv of its first bad
    row, at that row's first bad rule, as a row-by-row read would: a
    chunk that stops at a row that cannot be read is converted first,
    so a bad cell before that row wins.
    """
    path = Path(path)
    columns: dict[str, list] = {name: [] for name in header}
    with open(path, newline="", encoding="utf-8") as fh:
        for first, cells in _chunks(path, fh, header):
            for name, values in _converted(path, first, cells, rules).items():
                columns[name].extend(values)
    return columns


def _converted(path: Path, first: int, cells: Mapping[str, Sequence[str]],
               rules: Sequence[tuple]) -> dict[str, Sequence]:
    """A chunk's values by column name, each rule in turn converting
    the distinct cells (or pairs) of its column; first is the file's row
    number of the chunk's first row.

    When a rule refuses a value, the rows from the first it refuses on
    are dropped, and the later rules check the rows before it; the
    MalformedCsv of the last refusal, the lowest (row, rule), is raised.
    """
    values = dict(cells)
    error = None
    for column, convert, *other in rules:
        args = (values[column] if not other
                else list(zip(values[column], values[other[0]])))
        converted, reasons = {}, {}
        for arg in set(args):
            try:
                converted[arg] = convert(arg)
            except ValueError as exc:
                reasons[arg] = str(exc)
        if reasons:
            row = next(compress(count(), map(reasons.__contains__, args)))
            error = MalformedCsv(str(path), first + row, column,
                                 reasons[args[row]])
            values = {name: value[:row] for name, value in values.items()}
            args = args[:row]
        values[column] = list(map(converted.__getitem__, args))
    if error is not None:
        raise error
    return values


def _chunks(path: Path, fh, header: list[str]):
    """Yield (first row number, cells by column name) for each
    READ_CHUNK rows after the header, ending with a chunk of fewer rows
    (none for a file of a header only).

    READ_CHUNK lines that hold no '"', no "\r" and no NUL are split as
    text: joined with "," and split once, each column a slice of the
    cells. From the first chunk of lines that holds one of them, or
    that does not split into rows of the header's width, or that stops
    at a byte that is not UTF-8, the rest of the file goes through
    csv.reader (see _csv_chunks); the chunks before it held no quotes,
    so they ended on a record boundary. Which path reads a chunk
    depends only on the file's bytes, and a chunk split as text holds
    the cells that csv.reader reads from it, so every error is raised
    by csv.reader's path.
    """
    head, error = _take(path, fh, 1)
    if error is not None:
        raise error
    if not head:
        raise MalformedCsv(str(path), 0, None, "empty file")
    if _needs_csv(head[0]):
        reader = csv.reader(chain(head, _utf8_lines(path, fh)))
        _check_header(path, reader, header)
        yield from _csv_chunks(path, reader, header, 2)
        return
    _check_header(path, csv.reader(head), header)
    first = 2  # the row number of the chunk's first row
    while True:
        lines, error = _take(path, fh, READ_CHUNK)
        text = ",".join(lines)
        cells = (None if error is not None or _needs_csv(text)
                 else _split_cells(text, lines, header))
        if cells is None:
            rest = _utf8_lines(path, fh) if error is None else _raising(error)
            yield from _csv_chunks(path, csv.reader(chain(lines, rest)),
                                   header, first)
            return
        yield first, cells
        if len(lines) < READ_CHUNK:
            return
        first += READ_CHUNK


def _needs_csv(text: str) -> bool:
    """Whether text holds a '"', a "\r" or a NUL, which only csv.reader
    reads as it should (before Python 3.11 it refuses a NUL)."""
    return '"' in text or "\r" in text or "\0" in text


def _csv_chunks(path: Path, reader, header: list[str], first: int):
    """_chunks of the rows of a csv.reader, from row number first. A row
    that cannot be read ends its chunk, the rows before it, and then
    raises its MalformedCsv."""
    while True:
        rows: list[list[str]] = []
        error = None
        try:
            for row in islice(reader, READ_CHUNK):
                if len(row) != len(header):
                    raise MalformedCsv(
                        str(path), first + len(rows), None,
                        f"expected {len(header)} fields, got {len(row)}")
                rows.append(row)
        except MalformedCsv as exc:
            error = exc
        except csv.Error as exc:
            error = MalformedCsv(str(path), first + len(rows), None, str(exc))
        yield first, _transposed(rows, header)
        if error is not None:
            raise error
        if len(rows) < READ_CHUNK:
            return
        first += READ_CHUNK


def _take(path: Path, fh, n: int) -> tuple[list[str], MalformedCsv | None]:
    """The next n lines of fh (fewer at its end), and the MalformedCsv of
    a byte that is not UTF-8 if one stopped them."""
    lines: list[str] = []
    try:
        lines.extend(islice(fh, n))
    except UnicodeDecodeError:
        return lines, _not_utf8(path)
    return lines, None


def _utf8_lines(path: Path, fh) -> Iterator[str]:
    """fh's lines, a byte that is not UTF-8 raising its MalformedCsv."""
    try:
        yield from fh
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _raising(error: Exception) -> Iterator[str]:
    """No lines: error, raised when the first is asked for."""
    raise error
    yield


def _split_cells(text: str, lines: list[str], header: list[str]
                 ) -> dict[str, list[str]] | None:
    """The cells of lines that hold no '"', "\r" or NUL, by column name,
    given the lines joined with ","; None if there are none, if some line
    does not hold len(header) cells, or if some cell is longer than
    csv.field_size_limit().

    text is split once, each column is a slice, and the last column's
    line ends are split off it. When the cell count is right and every
    line end falls in the last column, every line holds len(header)
    cells, since each ends in one.
    """
    width = len(header)
    cells = text.split(",")
    if len(cells) != width * len(lines):
        return None
    ended = len(lines) - (not lines[-1].endswith("\n"))
    last = "".join(cells[width - 1::width]).split("\n")
    if len(last) != ended + 1:
        return None
    if ended == len(lines):
        del last[-1]
    columns = {name: cells[j::width] for j, name in enumerate(header[:-1])}
    columns[header[-1]] = last
    limit = csv.field_size_limit()
    if (len(text) > limit and max(map(len, lines)) > limit
            and any(max(map(len, column)) > limit
                    for column in columns.values())):
        return None
    return columns


def _check_header(path: Path, reader, expected: list[str]) -> None:
    """Read the header row from a csv.reader and check it."""
    try:
        row = next(reader)
    except csv.Error as exc:
        raise MalformedCsv(str(path), 0, None, str(exc)) from None
    if row != expected:
        raise MalformedCsv(str(path), 0, None,
                           f"header {row!r} != expected {expected!r}")


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


# The oldest age, in years, that the readers accept.
MAX_AGE = 120


def _number(cell: str) -> float | None:
    """float of a cell, None for a blank one."""
    if not (text := cell.strip()):
        return None
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None


def _age(cell: str) -> float | None:
    age = _number(cell)
    if age is not None and not 0 <= age <= MAX_AGE:
        raise ValueError(f"age {age} outside [0, {MAX_AGE}]")
    return age


def _income(cell: str) -> float | None:
    income = _number(cell)
    if income is not None and not 0 <= income < math.inf:
        raise ValueError(f"income {income} must be finite and >= 0")
    return income


def _iso_date(cell: str) -> date:
    try:
        return date.fromisoformat(cell.strip())
    except ValueError:
        raise ValueError(f"not an ISO date: {cell!r}") from None


def _admitted(cell: str) -> bool:
    flag = cell.strip().lower()
    if flag not in ("true", "false"):
        raise ValueError(f"expected true/false, got {cell!r}")
    return flag == "true"


@_collector_paused()
def _read_raw(path: str | Path, header: list[str],
              rules: Sequence[tuple]) -> RawTable:
    """A raw intake file's values (see _read_columns), key parts
    trimmed."""
    columns = _read_columns(path, header, rules)
    for name in KEY_COLUMNS:
        columns[name] = list(map(str.strip, columns[name]))
    return RawTable(columns)


def read_demographics(path: str | Path) -> RawTable:
    """demographics.csv's values, checked in row order: ages blank or in
    [0, MAX_AGE], true/false admitted flags, incomes blank or finite and
    >= 0, and ISO entry dates (see _read_columns)."""
    return _read_raw(path, DEMOGRAPHICS_HEADER, (
        ("age", _age), ("admitted", _admitted), ("income", _income),
        ("entry_date", _iso_date),
        # One str object per distinct label, shared by its cells.
        *((name, str) for name in schema.CATEGORICAL_FIELDS)))


def read_exits(path: str | Path) -> RawTable:
    """exits.csv's values: ISO exit dates (see _read_columns)."""
    return _read_raw(path, EXITS_HEADER,
                     (("exit_date", _iso_date), ("exit_reason", str)))


def read_incidents(path: str | Path) -> RawTable:
    """incidents.csv's values: ISO incident dates (see _read_columns)."""
    return _read_raw(path, INCIDENTS_HEADER,
                     (("incident_date", _iso_date), ("incident_type", str)))


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
    is formatted once, and every other cell is its str() (see
    _int_texts)."""
    columns = profile_table(profiles).columns
    _write_csv(path, PROFILES_HEADER, [
        columns[name] if name == "id"
        else _formatted(columns[name]) if name in ("age", "income")
        else _int_texts(columns[name])
        for name in PROFILES_HEADER])


def _int_texts(column: Sequence) -> list[str]:
    """str() of each cell, each distinct cell once when every cell is an
    int (a bool is not: str(True) is "True", though True == 1)."""
    if set(map(type, column)) == {int}:
        return _formatted(column, str)
    return list(map(str, column))


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


def _integer(cell: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ValueError(f"not an integer: {cell!r}") from None


def _code(field_name: str, code: int) -> int:
    if code not in schema.CATEGORIES[field_name]:
        raise ValueError(f"unknown {field_name} code {code}")
    return code


def _count(n: int) -> int:
    if n < 0:
        raise ValueError(f"negative count {n}")
    return n


def _has_episode(n: int) -> int:
    if n < 1:
        raise ValueError("must be >= 1: a linked profile has an episode")
    return n


def _open_episodes(counts: tuple[int, int]) -> int:
    n_open, n = counts
    if n_open > n:
        raise ValueError(f"more open episodes than {n} episodes")
    return n_open


def _label(values: tuple[int, int]) -> int:
    readmit, n = values
    if readmit != derive_label(n):
        raise ValueError(f"must be {derive_label(n)} with {n} episodes")
    return readmit


# profiles.csv's rules in row order: the integer columns, then their
# rules, then age, then income.
_PROFILE_RULES = (
    *((name, _integer) for name in _INT_COLUMNS),
    *((name, partial(_code, name)) for name in schema.CATEGORICAL_FIELDS),
    *((name, _count) for name in _COUNT_FIELDS),
    ("n_episodes", _has_episode),
    ("n_open_episodes", _open_episodes, "n_episodes"),
    ("readmit", _label, "n_episodes"),
    ("age", _age),
    ("income", _income),
)


@_collector_paused()
def read_profiles(path: str | Path) -> ProfileTable:
    """Load profiles.csv as a ProfileTable, checking codes, counts,
    labels, ages and incomes (finite, >= 0) as read_demographics does:
    a bad file raises the MalformedCsv of its first bad row, at that
    row's first bad column in _PROFILE_RULES' order (see
    _read_columns).

    The file keeps episode counts but not dates, so each profile comes
    back with that many undated episodes (closed ones first), entered
    and exited on date.min; total_los_days keeps the stored sum.
    """
    columns = _read_columns(path, PROFILES_HEADER, _PROFILE_RULES)
    return ProfileTable({name: tuple(columns[name])
                         for name in PROFILES_HEADER})
