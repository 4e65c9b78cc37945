"""Property tests: id keys, the CSV round trips, and linkage order."""

from __future__ import annotations

import csv
import tempfile
from datetime import date, timedelta
from pathlib import Path

from hypothesis import given, settings, strategies as st

from readmit import cohort
from readmit.cohort import (
    DEMOGRAPHICS_HEADER,
    EXITS_HEADER,
    INCIDENTS_HEADER,
    PROFILES_HEADER,
    ClientProfile,
    ResidenceEpisode,
    id_combos,
    id_part_columns,
    id_parts,
    read_demographics,
    read_exits,
    read_incidents,
    read_profiles,
    unify,
    write_demographics,
    write_exits,
    write_incidents,
    write_profiles,
)
from readmit.errors import EmptyKeyPart, MalformedCsv, UnmappableFamilyType
from readmit.features import CATEGORIES, CATEGORICAL_FIELDS

from tests.helpers import write_trio_rows
from tests.oracles import linkage, raw_trio
from tests.oracles.linkage import (
    ClientKey,
    DemographicRecord,
    ExitRecord,
    IncidentRecord,
    record_columns,
)

# Key parts are trimmed before joining, so a part that round-trips has no
# surrounding whitespace; pipes and backslashes are drawn often.
key_parts = st.text(
    st.one_of(st.sampled_from("|\\"), st.characters()), min_size=1
).filter(lambda part: part == part.strip() and part != "")


@given(st.lists(st.tuples(key_parts, key_parts, key_parts), min_size=1,
                max_size=4))
def test_id_combo_round_trip(keys):
    combos = id_combos(*map(list, zip(*keys)))
    assert [tuple(id_parts(combo)) for combo in combos] == keys
    assert id_part_columns(combos) == list(map(list, zip(*keys)))


# --- the CSV writer ----------------------------------------------------------

# The characters csv's quoting turns on, a space, a non-ASCII letter and
# a plain one; max_size 4 from 0 draws empty cells too.
csv_cells = st.text(st.sampled_from([",", '"', "\n", "\r", " ", "é", "x"]),
                    max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(csv_cells, min_size=5, max_size=5), max_size=30),
       st.sampled_from([1, 4, cohort.READ_CHUNK]))
def test_column_writer_matches_the_csv_writer(rows, chunk):
    """cohort._write_csv writes the bytes of the csv module's writer that
    quotes a row holding a "\r" in full, READ_CHUNK rows at a time or
    not, and leaves its columns as they were."""
    columns = [list(column) for column in zip(*rows)] or [[]] * 5
    before = [list(column) for column in columns]
    saved = cohort.READ_CHUNK
    with tempfile.TemporaryDirectory() as tmp:
        written, expected = Path(tmp) / "written.csv", Path(tmp) / "csv.csv"
        cohort.READ_CHUNK = chunk
        try:
            cohort._write_csv(written, EXITS_HEADER, columns)
        finally:
            cohort.READ_CHUNK = saved
        raw_trio._write_csv(expected, EXITS_HEADER, rows)
        assert written.read_bytes() == expected.read_bytes()
        if not rows:
            assert written.read_text() == ",".join(EXITS_HEADER) + "\n"
    assert columns == before


# --- profiles.csv ------------------------------------------------------------

day = st.integers(0, 2000).map(lambda d: date(2010, 1, 1) + timedelta(days=d))


@st.composite
def episodes(draw):
    eps = []
    for _ in range(draw(st.integers(1, 4))):
        entry = draw(day)
        if draw(st.booleans()):
            exit_date = entry + timedelta(days=draw(st.integers(0, 400)))
            eps.append(ResidenceEpisode(entry, exit_date, "Other"))
        else:
            eps.append(ResidenceEpisode(entry))
    return tuple(eps)


# Any text a UTF-8 file can hold, so no lone surrogates.
ids = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1)


@st.composite
def profiles(draw):
    eps = draw(episodes())
    codes = {f: draw(st.sampled_from(sorted(CATEGORIES[f])))
             for f in CATEGORICAL_FIELDS}
    return ClientProfile(
        id=draw(ids),
        age=draw(st.none() | st.floats(0, 120)),
        income=draw(st.none() | st.floats(0, 1e6)),
        episodes=eps,
        total_los_days=sum(e.duration_days for e in eps if e.closed),
        incident_count=draw(st.integers(0, 20)),
        readmit=1 if len(eps) >= 2 else 0,
        **codes,
    )


def csv_round_trip(records: list, write=write_profiles, read=read_profiles):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.csv"
        write(records, path)
        return list(read(path))


@settings(max_examples=60, deadline=None)
@given(st.lists(profiles(), min_size=1, max_size=8))
def test_profiles_csv_round_trip_is_a_fixed_point(cohort):
    once = csv_round_trip(cohort)
    assert csv_round_trip(once) == once
    for read, orig in zip(once, cohort, strict=True):
        for name in ("id", "age", "income", "total_los_days",
                     "incident_count", "readmit", *CATEGORICAL_FIELDS):
            assert getattr(read, name) == getattr(orig, name)
        assert len(read.episodes) == len(orig.episodes)
        assert ([e.closed for e in read.episodes].count(False)
                == [e.closed for e in orig.episodes].count(False))


# --- raw trio ----------------------------------------------------------------

# Any UTF-8 text, with lone "\r" drawn often. Key parts are trimmed on
# reading, so they are drawn trimmed; ages and incomes are drawn from the
# ranges read_demographics accepts.
raw_text = st.text(st.one_of(st.just("\r"),
                             st.characters(blacklist_categories=("Cs",))))
raw_keys = st.builds(ClientKey, *[raw_text.map(str.strip)] * 3)

raw_demographic = st.builds(
    DemographicRecord, key=raw_keys,
    age=st.none() | st.floats(0, 120), race=raw_text, family_type=raw_text,
    reason_homeless=raw_text, employment=raw_text, citizenship=raw_text,
    income=st.none() | st.floats(min_value=0, allow_infinity=False),
    entry_date=st.dates(),
    admitted=st.booleans(),
)
raw_exit = st.builds(ExitRecord, key=raw_keys, exit_date=st.dates(),
                     exit_reason=raw_text)
raw_incident = st.builds(IncidentRecord, key=raw_keys,
                         incident_date=st.dates(), incident_type=raw_text)


@settings(max_examples=60, deadline=None)
@given(st.lists(raw_demographic, max_size=6), st.lists(raw_exit, max_size=6),
       st.lists(raw_incident, max_size=6))
def test_raw_csv_round_trip(demo, exits, incidents):
    for records, write, read, header, row in (
            (demo, write_demographics, read_demographics,
             DEMOGRAPHICS_HEADER, raw_trio.demographic_row),
            (exits, write_exits, read_exits, EXITS_HEADER, raw_trio.exit_row),
            (incidents, write_incidents, read_incidents, INCIDENTS_HEADER,
             raw_trio.incident_row)):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file.csv"
            by_column(write, header, row)(records, path)
            table = read(path)
        assert len(table) == len(records)
        assert table.columns == record_columns(records, header)


def by_column(write, header, row):
    """A writer of records for the raw-trio writer write: the cells of
    each record's row, from row, become the columns write takes."""
    def write_records(records, path):
        cells = list(zip(*map(row, records))) or [()] * len(header)
        write(dict(zip(header, cells)), path)
    return write_records


# --- unify -------------------------------------------------------------------

# A small key pool and a short span of days, so individuals collect
# several records of each kind and same-day ties are common.
few_days = st.integers(0, 20).map(
    lambda d: date(2014, 1, 1) + timedelta(days=d))
keys = st.builds(ClientKey, st.sampled_from(["C1", "C2", "C3"]),
                 st.just("F1"), st.sampled_from(["K1", "K2"]))


def label(fname: str):
    return st.sampled_from([*CATEGORIES[fname].values(), "unlisted"])


demographic = st.builds(
    DemographicRecord,
    key=keys,
    age=st.none() | st.sampled_from([25.0, 31.5, 40.0]),
    race=label("race"),
    family_type=st.sampled_from(list(CATEGORIES["family_type"].values())),
    reason_homeless=label("reason_homeless"),
    employment=label("employment"),
    citizenship=label("citizenship"),
    income=st.none() | st.sampled_from([0.0, 1200.0]),
    entry_date=few_days,
    admitted=st.booleans(),
)
exit_record = st.builds(ExitRecord, key=keys, exit_date=few_days,
                        exit_reason=st.sampled_from(["Housed", "Other"]))
incident = st.builds(IncidentRecord, key=keys, incident_date=few_days,
                     incident_type=st.sampled_from(["A", "B"]))


def link_records(demo, exits, incidents):
    """unify of the trio that holds the records' rows, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_trio_rows(
            Path(tmp), [raw_trio.demographic_row(r) for r in demo],
            [raw_trio.exit_row(r) for r in exits],
            [raw_trio.incident_row(r) for r in incidents])
        return unify(read_demographics(paths[0]), read_exits(paths[1]),
                     read_incidents(paths[2]))


@settings(max_examples=80, deadline=None)
@given(st.lists(demographic, max_size=12), st.lists(exit_record, max_size=8),
       st.lists(incident, max_size=6), st.randoms(use_true_random=False))
def test_unify_is_invariant_to_row_order(demo, exits, incidents, rng):
    expected = link_records(demo, exits, incidents)
    for rows in (demo, exits, incidents):
        rng.shuffle(rows)
    shuffled = link_records(demo, exits, incidents)
    assert list(shuffled.profiles) == list(expected.profiles)
    assert shuffled.warnings == expected.warnings
    assert shuffled.removed_not_admitted == expected.removed_not_admitted


# --- readers and unify against the reference -----------------------------------

# Drawn CSV cells. Each file's rows come from a pool of good cells, and,
# when the example allows bad cells, from a pool with bad ones as well,
# so a row can have two bad cells. Key parts hold "|", "\\" and padding,
# from pools small enough that individuals have several rows; a blank
# part is drawn only when the example allows one, except on non-admitted
# demographic rows, which unify never links.
KEY_PARTS = (["C1", " C1 ", "C|2", "C\\3"], ["F1", "F|\\"], ["K1", "K\\"])
GOOD = {
    "age": ["", "30", " 41.5 ", "0", "120", "-0", "30.0"],
    "race": ["White", " black ", "unlisted", ""],
    "family_type": ["Single", "adult families", " Families with Children"],
    "reason": ["Eviction", "Discord", "other", "flood"],
    "employment": ["Employed", "unemployed", "Unknown", "retired"],
    "citizenship": ["Citizen", "Non-Resident", "x"],
    "income": ["", "0", "1200", " 35.5 ", "1200.0"],
    "date": ["2014-01-01", "2014-01-02", " 2014-01-03 ", "2014-01-09"],
    "admitted": ["true", "false", " TRUE ", "False"],
    "text": ["Other", "Housed", ""],
}
BAD = {
    "key": ["", "  "],
    "age": ["121", "-1", "abc", "nan", "inf"],
    "family_type": ["Martian", "Venusian"],
    "income": ["-5", "inf", "x", "nan"],
    "date": ["2014-02-30", "bad", ""],
    "admitted": ["maybe", ""],
}


@st.composite
def raw_rows(draw, cells, bad: bool):
    """Rows of drawn cells; with bad, a row may also lose its last cell."""
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        row = [draw(st.sampled_from(pool)) for pool in cells(draw)]
        if bad and draw(st.integers(0, 15)) == 0:
            row = row[:-1]
        rows.append(row)
    return rows


@st.composite
def raw_trios(draw):
    # Each kind of bad cell in one example of four, so that most trios
    # reach unify; unmappable family types also come alone, so that more
    # of them reach it.
    blank, bad, unmappable = (draw(st.integers(0, 3)) == 0 for _ in range(3))

    def pool(kind):
        odd = bad or (unmappable and kind == "family_type")
        return GOOD[kind] + (BAD.get(kind, []) if odd else [])

    def key_pools(admitted="true"):
        linked = admitted.strip().lower() != "false"
        extra = BAD["key"] if blank or not linked else []
        return [parts + extra for parts in KEY_PARTS]

    def demo_cells(draw):
        admitted = draw(st.sampled_from(pool("admitted")))
        return [*key_pools(admitted), pool("age"), pool("race"),
                pool("family_type"), pool("reason"), pool("employment"),
                pool("citizenship"), pool("income"), pool("date"), [admitted]]

    def dated_cells(draw):
        return [*key_pools(), pool("date"), pool("text")]

    demo = draw(raw_rows(demo_cells, bad))
    exits = draw(raw_rows(dated_cells, bad))

    def insert(rows, row):
        rows.insert(draw(st.integers(0, len(rows))), row)

    def demo_row(key, entry, age="30", income=""):
        return [*key, age, "White", "Single", "Eviction", "Employed",
                "Citizen", income, entry, "true"]

    if draw(st.booleans()):  # two stays whose exits fall on one day
        # Ages and incomes that differ as text: "-0" and "0" conflict,
        # "30" and "30.0" do not.
        key = ["S1", "F1", "K1"]
        for entry in ("2014-01-01", "2014-01-02"):
            insert(demo, demo_row(
                key, entry, draw(st.sampled_from(["0", "-0", "30", "30.0"])),
                draw(st.sampled_from(["", "1200", "1200.0"]))))
        for reason in draw(st.permutations(["Housed", "Other"])):
            insert(exits, [*key, "2014-01-03", reason])
    if draw(st.booleans()):  # a lone stay whose only exit precedes it
        key = ["L1", "F1", "K1"]
        insert(demo, demo_row(key, "2014-01-09"))
        insert(exits, [*key, "2014-01-01", "Housed"])
    return demo, exits, draw(raw_rows(dated_cells, bad))


HEADERS = (DEMOGRAPHICS_HEADER, EXITS_HEADER, INCIDENTS_HEADER)


def link(module, paths, trio):
    """What reading and linking the trio with module gives: the values
    read, by column, then the profiles, warnings and removed count, or
    what the error that stopped it names. A blank key part's row is
    located by cohort.locate_blank_key, for the reference by
    first_blank_key."""
    try:
        tables = [read(path) for read, path in zip(
            (module.read_demographics, module.read_exits,
             module.read_incidents), paths)]
    except MalformedCsv as exc:
        return "malformed", exc.path, exc.row, exc.column, str(exc)
    columns = [table.columns if module is cohort
               else record_columns(table, header)
               for table, header in zip(tables, HEADERS)]
    try:
        result = module.unify(*tables)
    except EmptyKeyPart as exc:
        if module is cohort:
            error = cohort.locate_blank_key(list(zip(paths, tables)))
            return "EmptyKeyPart", columns, str(exc), (error.path, error.row,
                                                       error.column)
        return "EmptyKeyPart", columns, str(exc), first_blank_key(paths, trio)
    except UnmappableFamilyType as exc:
        return "UnmappableFamilyType", columns, str(exc)
    return "linked", columns, list(result.profiles), result.warnings, \
        result.removed_not_admitted


def first_blank_key(paths, trio):
    """(path, row, column) of the first row unify links whose key has a
    blank part, in unify's order: demographics, exits, incidents."""
    for path, rows in zip(paths, trio):
        for row, cells in enumerate(rows, start=2):
            if path.name == "demographics.csv" and \
                    cells[-1].strip().lower() == "false":
                continue
            for column, part in zip(("cares_id", "family_id", "case_id"),
                                    cells):
                if not part.strip():
                    return str(path), row, column
    return None


@settings(max_examples=200, deadline=None)
@given(raw_trios())
def test_linkage_matches_the_reference(trio):
    """Read at 1, 3 and 4,096 rows per column pass, so that bad cells
    fall on chunk boundaries."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_trio_rows(Path(tmp), *trio)
        expected = link(linkage, paths, trio)
        read_chunk = cohort.READ_CHUNK
        try:
            for chunk in (1, 3, 4096):
                cohort.READ_CHUNK = chunk
                assert link(cohort, paths, trio) == expected
        finally:
            cohort.READ_CHUNK = read_chunk
        if expected[0] == "EmptyKeyPart":  # the message names the row's key
            message, (path, row, _) = expected[2:]
            cells = trio[paths.index(Path(path))][row - 2]
            key = linkage.ClientKey(*(part.strip() for part in cells[:3]))
            assert str(key) in message


profile_cells = [
    ["C1|F1|K1", "C\\\\2|F\\||K", ""],
    ["", "30", "41.5", "121", "x", "nan"],
    *[[*map(str, sorted(CATEGORIES[f])), "9", "-1", "a"]
      for f in CATEGORICAL_FIELDS],
    ["", "0", "1200", "-5", "inf"],
    ["0", "1", "2", "3", "-1", "1.5"],
    ["0", "1", "2", "-1"],
    ["0", "30", "-3", " 7 "],
    ["0", "2", "-1", "z"],
    ["0", "1", "2"],
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*map(st.sampled_from, profile_cells)), max_size=6))
def test_read_profiles_matches_the_reference(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profiles.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(PROFILES_HEADER)
            writer.writerows(rows)
        outcomes = []
        for read in (linkage.read_profiles, read_profiles):
            try:
                outcomes.append(list(read(path)))
            except MalformedCsv as exc:
                outcomes.append((exc.path, exc.row, exc.column, str(exc)))
        assert outcomes[0] == outcomes[1]
