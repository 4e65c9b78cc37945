from __future__ import annotations

import csv
import gc
import hashlib
import random
from collections.abc import Sequence
from datetime import date

import pytest

from readmit import cohort
from readmit.cli import main
from readmit.cohort import (
    PROFILES_HEADER,
    ProfileTable,
    ResidenceEpisode,
    derive_label,
    id_combos,
    id_part_columns,
    id_parts,
    read_demographics,
    read_exits,
    read_incidents,
    read_profiles,
    unify,
    write_profiles,
)
from readmit.errors import (
    EmptyKeyPart,
    MalformedCsv,
    NoEpisodes,
    UnmappableFamilyType,
)

from readmit.synthgen import CohortSpec, emit_raw_files, generate

from tests.helpers import (
    HAND_BUILT,
    LINKAGE_SMALL,
    write_linkage_trio,
    write_trio_rows,
)
from tests.oracles import linkage


def demo_row(key, entry, admitted="true", age="30", employment="Employed",
             income=""):
    """The cells of one demographics.csv row."""
    return [*key, age, "White", "Single", "Eviction", employment, "Citizen",
            income, entry, admitted]


def link(tmp_path, demo, exits=(), incidents=()):
    """unify the trio of the given rows of str cells."""
    paths = write_trio_rows(tmp_path, demo, list(exits), list(incidents))
    return unify(*(read(path) for read, path in zip(
        (read_demographics, read_exits, read_incidents), paths)))


def random_triples(seed: int, alphabet: str, n: int, longest: int):
    """n key triples of trimmed, non-blank parts drawn from alphabet."""
    rng = random.Random(seed)
    triples = []
    for _ in range(n):
        parts = tuple("".join(rng.choices(alphabet, k=rng.randint(1, longest)))
                      .strip() for _ in range(3))
        if all(parts):
            triples.append(parts)
    return triples


class TestIdCombo:
    def test_basic_concatenation(self):
        assert id_combos(["C1"], ["F9"], ["K3"]) == ["C1|F9|K3"]

    def test_deterministic(self):
        columns = (["C1", "C|2"], ["F9", "F9"], ["K3", "K\\3"])
        assert id_combos(*columns) == id_combos(*columns)

    def test_escaping_forces_injectivity(self):
        a, b = id_combos(["A|B", "A"], ["F", "B|F"], ["K", "K"])
        assert a == "A\\|B|F|K"
        assert b == "A|B\\|F|K"
        assert a != b

    @pytest.mark.parametrize("parts", [
        ("", "F", "K"), ("C", " ", "K"), ("C", "F", "\t"),
    ])
    def test_blank_part_rejected(self, tmp_path, parts):
        message = ("blank key part in "
                   f"{linkage.ClientKey(*(part.strip() for part in parts))}")
        with pytest.raises(EmptyKeyPart) as caught:
            link(tmp_path, [demo_row(("C0", "F0", "K0"), "2014-01-01"),
                            demo_row(parts, "2014-01-01")])
        assert str(caught.value) == message
        with pytest.raises(EmptyKeyPart) as caught:
            id_combos(*([part.strip()] for part in parts))
        assert str(caught.value) == message

    def test_blank_part_names_the_first_row(self):
        """The first row with a blank part, over all three columns."""
        with pytest.raises(EmptyKeyPart) as caught:
            id_combos(["C1", "C2", ""], ["F1", "F2", "F3"], ["K1", "", "K3"])
        assert str(caught.value) == ("blank key part in ClientKey("
                                     "cares_id='C2', family_id='F2', "
                                     "case_id='')")

    def test_split_inverts_make(self):
        triples = random_triples(7, "ab|\\|c", 300, 6)
        combos = id_combos(*map(list, zip(*triples)))
        assert [tuple(id_parts(combo)) for combo in combos] == triples

    @pytest.mark.parametrize("combos", [
        ["C1|F1|K1", "C2|F2|K2"],
        ["C\\|1|F1|K1", "C2|F\\\\2|K2", "C3|F3|K3"],
        [],
    ], ids=["plain", "escaped", "none"])
    def test_part_columns_are_the_parts_of_each_combo(self, combos):
        assert id_part_columns(combos) == [
            [id_parts(combo)[j] for combo in combos] for j in range(3)]

    @pytest.mark.parametrize("combos", [
        ["A|B|C|D", "E|F"], ["A|B", "C|D|E"], ["A|B|C", "D|E|F\\"],
    ], ids=["four-then-two", "two-then-three", "dangling-escape"])
    def test_part_columns_refuse_what_id_parts_refuses(self, combos):
        with pytest.raises(ValueError, match="id combo"):
            id_part_columns(combos)

    def test_injective_over_random_triples(self):
        triples = random_triples(11, "xy|\\", 500, 5)
        combos = id_combos(*map(list, zip(*triples)))
        seen = {}
        for combo, parts in zip(combos, triples):
            assert seen.setdefault(combo, parts) == parts


class TestLabelAndStay:
    def test_single_episode_is_zero(self):
        assert derive_label(1) == 0

    def test_two_episodes_is_one(self):
        eps = [
            ResidenceEpisode(date(2014, 1, 1), date(2014, 2, 1)),
            ResidenceEpisode(date(2014, 6, 1)),
        ]
        assert derive_label(len(eps)) == 1

    def test_five_episodes_is_one(self):
        eps = [
            ResidenceEpisode(date(2014, m, 1), date(2014, m, 10))
            for m in range(1, 6)
        ]
        assert derive_label(len(eps)) == 1

    def test_no_episodes_raises(self):
        with pytest.raises(NoEpisodes):
            derive_label(0)

    def test_exit_before_entry_rejected(self):
        with pytest.raises(ValueError):
            ResidenceEpisode(date(2020, 5, 1), date(2020, 4, 1))


class TestUnify:
    KEY = ("C1", "F1", "K1")

    def test_single_join(self, tmp_path):
        result = link(tmp_path, [demo_row(self.KEY, "2014-01-01")],
                      [[*self.KEY, "2014-02-01", "Other"]])
        assert len(result.profiles) == 1
        profile = result.profiles[0]
        assert len(profile.episodes) == 1
        assert profile.episodes[0].closed
        assert profile.total_los_days == 31
        assert profile.readmit == 0

    def test_not_admitted_dropped(self, tmp_path):
        result = link(tmp_path,
                      [demo_row(self.KEY, "2014-01-01", admitted="false")],
                      [[*self.KEY, "2014-02-01", "Other"]])
        assert list(result.profiles) == []
        assert result.removed_not_admitted == 1

    def test_two_entries_one_profile(self, tmp_path):
        demo = [demo_row(self.KEY, "2014-01-01"),
                demo_row(self.KEY, "2014-06-01")]
        exits = [[*self.KEY, "2014-02-01", "Other"],
                 [*self.KEY, "2014-07-01", "Other"]]
        result = link(tmp_path, demo, exits)
        assert len(result.profiles) == 1
        assert len(result.profiles[0].episodes) == 2
        assert result.profiles[0].readmit == 1

    def test_latest_entry_wins_and_warns(self, tmp_path):
        demo = [demo_row(self.KEY, "2014-01-01", employment="Unemployed"),
                demo_row(self.KEY, "2015-01-01", employment="Employed")]
        result = link(tmp_path, demo)
        assert result.profiles[0].employment == 1
        assert any(w.field == "employment" for w in result.warnings)

    def test_same_day_exits_pair_deterministically(self, tmp_path):
        demo = [demo_row(self.KEY, "2014-01-01"),
                demo_row(self.KEY, "2014-01-01")]
        exits = [[*self.KEY, "2014-02-01", "B-reason"],
                 [*self.KEY, "2014-02-01", "A-reason"]]
        forward = link(tmp_path / "forward", demo, exits)
        flipped = link(tmp_path / "flipped", demo, reversed(exits))
        assert list(forward.profiles) == list(flipped.profiles)
        reasons = [ep.exit_reason for ep in forward.profiles[0].episodes]
        assert reasons == ["A-reason", "B-reason"]

    def test_lone_stays_equal_the_reference(self, tmp_path):
        """Lone stays, linked in bulk, among individuals linked one at a
        time: entered on date.min with no exit, closed on their entry
        day, exited before entry, and exited later."""
        demo = [demo_row(("A", "F", "K"), "0001-01-01"),
                demo_row(("B", "F", "K"), "0001-01-01"),
                demo_row(("C", "F", "K"), "2014-01-09"),
                demo_row(("D", "F", "K"), "2014-03-01"),
                demo_row(("D", "F", "K"), "2014-01-01", age="31"),
                demo_row(("E", "F", "K"), "2014-01-01"),
                demo_row(("G", "F", "K"), "2014-01-01")]
        exits = [["B", "F", "K", "0001-01-01", "Other"],
                 ["C", "F", "K", "2014-01-01", "Housed"],
                 ["D", "F", "K", "2014-02-01", "Other"],
                 ["E", "F", "K", "2014-01-05", "Other"],
                 ["E", "F", "K", "2014-01-03", "Housed"],
                 ["G", "F", "K", "2014-02-01", "Other"],
                 ["Z", "F", "K", "2014-01-01", "Other"]]
        incidents = [["G", "F", "K", "2014-01-02", "Medical"]]
        paths = write_trio_rows(tmp_path, demo, exits, incidents)
        result = unify(*(read(path) for read, path in zip(
            (read_demographics, read_exits, read_incidents), paths)))
        expected = linkage.unify(*(read(path) for read, path in zip(
            (linkage.read_demographics, linkage.read_exits,
             linkage.read_incidents), paths)))
        assert list(result.profiles) == expected.profiles
        assert result.warnings == expected.warnings
        columns = result.profiles.columns
        assert columns["n_open_episodes"] == [1, 0, 1, 1, 0, 0]
        assert columns["total_los_days"] == [0, 0, 0, 31, 2, 31]
        assert columns["incident_count"] == [0, 0, 0, 0, 0, 1]
        assert [type(v) for name in ("n_open_episodes", "total_los_days")
                for v in columns[name]] == [int] * 12

    def test_incidents_counted(self, tmp_path):
        incidents = [[*self.KEY, "2014-01-05", "Altercation"],
                     [*self.KEY, "2014-01-09", "Medical"]]
        result = link(tmp_path, [demo_row(self.KEY, "2014-01-01")], (),
                      incidents)
        assert result.profiles[0].incident_count == 2

    @pytest.mark.parametrize("first,second", [("Martian", "Venusian"),
                                              ("Venusian", "Martian")])
    def test_unmappable_family_type_of_the_first_client_by_id(
            self, tmp_path, first, second):
        rows = [demo_row(("C2", "F1", "K1"), "2014-01-01"),
                demo_row(("C1", "F1", "K1"), "2014-03-01")]
        rows[0][5], rows[1][5] = second, first
        with pytest.raises(UnmappableFamilyType, match=repr(first)):
            link(tmp_path, rows)

    def test_episode_conservation_and_uniqueness(self):
        demo = read_demographics(LINKAGE_SMALL / "demographics.csv")
        exits = read_exits(LINKAGE_SMALL / "exits.csv")
        incidents = read_incidents(LINKAGE_SMALL / "incidents.csv")
        result = unify(demo, exits, incidents)

        ids = [p.id for p in result.profiles]
        assert len(ids) == len(set(ids))
        n_admitted = sum(demo.columns["admitted"])
        assert sum(len(p.episodes) for p in result.profiles) == n_admitted
        for p in result.profiles:
            assert p.readmit == (1 if len(p.episodes) >= 2 else 0)

    def test_order_insensitive(self, tmp_path):
        trio = []
        for name in ("demographics.csv", "exits.csv", "incidents.csv"):
            with open(LINKAGE_SMALL / name, newline="",
                      encoding="utf-8") as fh:
                trio.append(list(csv.reader(fh))[1:])
        baseline = link(tmp_path / "baseline", *trio)

        rng = random.Random(3)
        for i in range(5):
            for rows in trio:
                rng.shuffle(rows)
            shuffled = link(tmp_path / f"shuffled{i}", *trio)
            assert list(shuffled.profiles) == list(baseline.profiles)
            assert shuffled.warnings == baseline.warnings


class TestLinkageGolden:
    def test_profiles_match_golden_bytes(self, tmp_path):
        result = unify(
            read_demographics(LINKAGE_SMALL / "demographics.csv"),
            read_exits(LINKAGE_SMALL / "exits.csv"),
            read_incidents(LINKAGE_SMALL / "incidents.csv"),
        )
        out = tmp_path / "profiles.csv"
        write_profiles(result.profiles, out)
        assert out.read_bytes() == (LINKAGE_SMALL / "profiles_golden.csv").read_bytes()

    def test_fixture_counts(self):
        result = unify(
            read_demographics(LINKAGE_SMALL / "demographics.csv"),
            read_exits(LINKAGE_SMALL / "exits.csv"),
            read_incidents(LINKAGE_SMALL / "incidents.csv"),
        )
        assert len(result.profiles) == 20
        assert result.removed_not_admitted == 5
        multi = [p for p in result.profiles if p.readmit == 1]
        assert len(multi) == 4
        triple = next(p for p in result.profiles if p.id.startswith("C020"))
        assert len(triple.episodes) == 3
        assert triple.total_los_days == 90

    def test_fixture_warnings(self):
        result = unify(
            read_demographics(LINKAGE_SMALL / "demographics.csv"),
            read_exits(LINKAGE_SMALL / "exits.csv"),
            read_incidents(LINKAGE_SMALL / "incidents.csv"),
        )
        warned = {(w.id.split("|")[0], w.field) for w in result.warnings}
        assert ("C018", "employment") in warned
        assert ("C020", "age") in warned


# Recorded on the dict-per-row readers and the full-scan unify (the
# reference in tests/oracles/linkage.py); the positional readers and the
# single-record shortcuts must reproduce them byte for byte.
TRIO_GOLDEN = {
    "profiles.csv":
        "0bd484191d37ea4a79237ae4a19d5f9331eb56dc79a7151aedeb322d143ca790",
    "profiles.csv.warnings.log":
        "db5502f6c1f16c13449953495cda5f0ddcfc50b3a381653b70c41ce77f884a31",
}


class TestTrioGolden:
    def test_unify_digests_and_counts(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        write_linkage_trio(raw)
        out = tmp_path / "out" / "profiles.csv"
        assert main(["unify", str(raw / "demographics.csv"),
                     str(raw / "exits.csv"), str(raw / "incidents.csv"),
                     "-o", str(out)]) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[:2] == ["profiles: 400", "removed: 57"]
        assert stdout[2].startswith("warnings: 10 -> ")
        digests = {name: hashlib.sha256((out.parent / name).read_bytes())
                   .hexdigest() for name in TRIO_GOLDEN}
        assert digests == TRIO_GOLDEN


class TestRawWriters:
    def test_quoted_rows_between_runs(self, tmp_path):
        path = tmp_path / "exits.csv"
        cohort.write_exits({
            "cares_id": ["C1", "C\r2", "C3", "C4", "C\r5"],
            "family_id": ["F1", "F2", "F3", "F4", "F5"],
            "case_id": ["K1", "K2", "K3", "K,4", "K5"],
            "exit_date": ["2014-01-0" + str(i) for i in range(1, 6)],
            "exit_reason": ["Other", "Other", 'Say "hi"', "Other", "Other"],
        }, path)
        assert path.read_bytes().decode().split("\n")[1:] == [
            "C1,F1,K1,2014-01-01,Other",
            '"C\r2","F2","K2","2014-01-02","Other"',
            'C3,F3,K3,2014-01-03,"Say ""hi"""',
            'C4,F4,"K,4",2014-01-04,Other',
            '"C\r5","F5","K5","2014-01-05","Other"',
            "",
        ]
        assert read_exits(path).columns["cares_id"] == [
            "C1", "C\r2", "C3", "C4", "C\r5"]

    def test_profile_cells_are_their_str(self, tmp_path):
        """Each integer cell is its str(): True and 1.0 equal 1 but
        print otherwise."""
        columns = {name: [1, True, 1.0, 1] for name in PROFILES_HEADER}
        columns.update(id=["a", "b", "c", "d"], age=[None] * 4,
                       income=[None] * 4, readmit=[1, 0, 1, 1])
        path = tmp_path / "profiles.csv"
        write_profiles(ProfileTable(columns), path)
        assert path.read_text().splitlines()[1:] == [
            "a,,1,1,1,1,1,,1,1,1,1,1",
            "b,,True,True,True,True,True,,True,True,True,True,0",
            "c,,1.0,1.0,1.0,1.0,1.0,,1.0,1.0,1.0,1.0,1",
            "d,,1,1,1,1,1,,1,1,1,1,1",
        ]

    @pytest.mark.parametrize("values", [
        [0, 7, 4095, 4096], [-1, 0, 3, 2], [10 ** 20, 0, 1, 2],
        [True, 1, 0, 2]],
        ids=["small", "negative", "large", "bool"])
    def test_int_cells_are_their_str(self, tmp_path, values):
        columns = {name: values for name in PROFILES_HEADER}
        columns.update(id=["a", "b", "c", "d"], age=[None] * 4,
                       income=[None] * 4)
        path = tmp_path / "profiles.csv"
        write_profiles(ProfileTable(columns), path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert [row[2] for row in rows[1:]] == list(map(str, values))
        assert [row[-1] for row in rows[1:]] == list(map(str, values))

    def test_columns_must_match_the_header_and_each_other(self, tmp_path):
        columns = {name: ["x"] for name in cohort.INCIDENTS_HEADER}
        with pytest.raises(ValueError, match="differ in length"):
            cohort.write_incidents({**columns, "incident_type": []},
                                   tmp_path / "ragged.csv")
        del columns["incident_type"]
        with pytest.raises(ValueError, match="incident_type"):
            cohort.write_incidents(columns, tmp_path / "missing.csv")


class TestCollectorPause:
    def link(self, raw):
        result = unify(read_demographics(raw / "demographics.csv"),
                       read_exits(raw / "exits.csv"),
                       read_incidents(raw / "incidents.csv"))
        write_profiles(result.profiles, raw / "profiles.csv")
        read_profiles(raw / "profiles.csv")

    def test_collector_off_while_reading_and_linking(self, tmp_path,
                                                     monkeypatch):
        write_linkage_trio(tmp_path)
        states = {}
        for module, name in ((cohort, "_read_columns"),
                             (cohort, "_converted"),
                             (cohort.schema, "canonicalize")):
            def spy(*args, _fn=getattr(module, name), _name=name):
                states.setdefault(_name, set()).add(gc.isenabled())
                return _fn(*args)
            monkeypatch.setattr(module, name, spy)
        self.link(tmp_path)
        assert states == {"_read_columns": {False}, "_converted": {False},
                          "canonicalize": {False}}
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self, tmp_path):
        write_linkage_trio(tmp_path)
        gc.disable()
        try:
            self.link(tmp_path)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestCsvValidation:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "demo.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(MalformedCsv):
            read_demographics(path)

    def test_bad_date_names_row_and_column(self, tmp_path):
        path = tmp_path / "exits.csv"
        path.write_text(
            "cares_id,family_id,case_id,exit_date,exit_reason\n"
            "C1,F1,K1,not-a-date,Other\n"
        )
        with pytest.raises(MalformedCsv) as err:
            read_exits(path)
        assert "row 2" in str(err.value)
        assert "exit_date" in str(err.value)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "incidents.csv"
        path.write_text(
            "cares_id,family_id,case_id,incident_date,incident_type\n"
            "C1,F1,K1,2014-01-01\n"
        )
        with pytest.raises(MalformedCsv):
            read_incidents(path)

    def test_age_out_of_range(self, tmp_path):
        path = tmp_path / "demo.csv"
        header = ("cares_id,family_id,case_id,age,race,family_type,"
                  "reason_homeless,employment,citizenship,income,"
                  "entry_date,admitted\n")
        path.write_text(header +
                        "C1,F1,K1,130,White,Single,Eviction,Employed,"
                        "Citizen,,2014-01-01,true\n")
        with pytest.raises(MalformedCsv):
            read_demographics(path)

    def test_bad_admitted_flag(self, tmp_path):
        path = tmp_path / "demo.csv"
        header = ("cares_id,family_id,case_id,age,race,family_type,"
                  "reason_homeless,employment,citizenship,income,"
                  "entry_date,admitted\n")
        path.write_text(header +
                        "C1,F1,K1,30,White,Single,Eviction,Employed,"
                        "Citizen,,2014-01-01,maybe\n")
        with pytest.raises(MalformedCsv):
            read_demographics(path)

    def test_profiles_round_trip_summaries(self, tmp_path):
        result = unify(
            read_demographics(LINKAGE_SMALL / "demographics.csv"),
            read_exits(LINKAGE_SMALL / "exits.csv"),
            read_incidents(LINKAGE_SMALL / "incidents.csv"),
        )
        out = tmp_path / "profiles.csv"
        write_profiles(result.profiles, out)
        loaded = read_profiles(out)
        assert [p.id for p in loaded] == [p.id for p in result.profiles]
        for a, b in zip(loaded, result.profiles):
            assert a.age == b.age
            assert a.race == b.race
            assert a.income == b.income
            assert a.readmit == b.readmit
            assert a.total_los_days == b.total_los_days


@pytest.fixture(params=[3, 20, 4096], ids=lambda n: f"chunk{n}")
def read_chunk(request, monkeypatch):
    """Rows per column pass of read_profiles: 3 splits the 20-row golden
    file and the files below across chunks, 20 fills one exactly, and
    4,096 holds any of them whole."""
    monkeypatch.setattr(cohort, "READ_CHUNK", request.param)
    return request.param


LINKAGE_FILES = [LINKAGE_SMALL / name for name in
                 ("demographics.csv", "exits.csv", "incidents.csv")]


@pytest.fixture(params=["generate", "unify", "read_profiles",
                        "from_profiles"])
def produced(request):
    """A table from each producer of a ProfileTable, and the records it
    must read as: the reference linkage's for unify, the row-by-row
    reader's for read_profiles, HAND_BUILT for from_profiles, and for
    generate, whose only reference is the table itself, its iteration."""
    if request.param == "generate":
        table = generate(CohortSpec(n=400, seed=13))
        return table, list(table)
    if request.param == "unify":
        readers = (read_demographics, read_exits, read_incidents)
        table = unify(*(read(path) for read, path in
                        zip(readers, LINKAGE_FILES))).profiles
        return table, linkage.unify(
            *(read(path) for read, path in zip(
                (linkage.read_demographics, linkage.read_exits,
                 linkage.read_incidents), LINKAGE_FILES))).profiles
    if request.param == "read_profiles":
        golden = LINKAGE_SMALL / "profiles_golden.csv"
        return read_profiles(golden), linkage.read_profiles(golden)
    return ProfileTable.from_profiles(HAND_BUILT), HAND_BUILT


def empty_table(tmp_path, producer: str) -> ProfileTable:
    """The empty table of a producer (generate draws at least 100)."""
    if producer == "unify":
        return link(tmp_path, []).profiles
    if producer == "read_profiles":
        path = tmp_path / "profiles.csv"
        path.write_text(",".join(PROFILES_HEADER) + "\n")
        return read_profiles(path)
    return ProfileTable.from_profiles([])


def as_lists(columns: dict) -> dict[str, list]:
    return {name: list(column) for name, column in columns.items()}


class CountedPasses(list):
    """A list that counts the passes made over it."""

    def __init__(self, items):
        super().__init__(items)
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


class TestProfileTable:
    """The one cohort table: columns that read as records, whichever of
    generate, unify, read_profiles or from_profiles built it."""

    GOLDEN = LINKAGE_SMALL / "profiles_golden.csv"

    def test_a_sequence_of_its_records(self, produced):
        table, expected = produced
        n = len(expected)
        assert isinstance(table, ProfileTable)
        assert isinstance(table, Sequence)
        assert len(table) == n and list(table) == expected
        assert [table[i] for i in range(-n, n)] == expected * 2
        assert table[1:3] == expected[1:3]
        assert table[::-3] == expected[::-3]
        assert table[-2:] == expected[-2:]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                table[i]

    def test_equals_any_sequence_of_the_same_records(self, produced):
        table, expected = produced
        assert table == expected and expected == table
        assert table == tuple(expected)
        assert not table != expected
        assert table != expected[:-1]
        assert table != expected[::-1]
        assert table != [*expected[:-1], expected[0]]
        assert table != object()

    def test_records_transpose_back_into_the_table(self, produced):
        table, _ = produced
        again = ProfileTable.from_profiles(list(table))
        assert again == table
        assert as_lists(again.columns) == as_lists(table.columns)
        if table.episodes is not None:
            assert as_lists(again.episodes) == as_lists(table.episodes)

    @pytest.mark.parametrize("producer",
                             ["unify", "read_profiles", "from_profiles"])
    def test_empty_table(self, tmp_path, producer):
        table = empty_table(tmp_path, producer)
        assert len(table) == 0 and list(table) == []
        assert table == [] and table == () and table[:] == []
        assert table != HAND_BUILT[:1]
        for i in (0, -1):
            with pytest.raises(IndexError):
                table[i]
        assert as_lists(table.columns) == dict.fromkeys(PROFILES_HEADER, [])
        assert ProfileTable.from_profiles(list(table)) == table

    @pytest.mark.parametrize("producer", ["generate", "unify"])
    def test_rows_index_in_any_order_from_offsets_summed_once(
            self, tmp_path, producer):
        table = generate(CohortSpec(n=2000, seed=5))
        if producer == "unify":
            paths = emit_raw_files(table, tmp_path)
            table = unify(read_demographics(paths["demographics"]),
                          read_exits(paths["exits"]),
                          read_incidents(paths["incidents"])).profiles
        expected = list(table)
        counts = CountedPasses(table.columns["n_episodes"])
        table = ProfileTable({**table.columns, "n_episodes": counts},
                             table.episodes)
        n = len(expected)
        order = list(range(-n, n))
        random.Random(3).shuffle(order)
        assert [table[i] for i in order] == [expected[i] for i in order]
        assert counts.passes == 1

    def test_records_equal_the_row_by_row_reference(self, read_chunk):
        table = read_profiles(self.GOLDEN)
        assert isinstance(table, ProfileTable)
        assert isinstance(table, Sequence)
        expected = linkage.read_profiles(self.GOLDEN)
        assert len(table) == len(expected) == 20
        assert list(table) == expected
        assert [table[i] for i in range(len(table))] == expected

    def test_indexing_follows_a_list(self):
        table = read_profiles(self.GOLDEN)
        records = list(table)
        assert table[-1] == records[-1]
        assert table[3:7] == records[3:7]
        assert table[::-5] == records[::-5]
        assert table.index(records[4]) == 4
        with pytest.raises(IndexError):
            table[len(table)]

    def test_columns_are_the_file_columns_in_order(self):
        table = read_profiles(self.GOLDEN)
        assert list(table.columns) == PROFILES_HEADER
        assert all(len(column) == 20 for column in table.columns.values())
        assert table.columns["id"][0] == "C001|F001|K001"
        assert table.columns["income"][:2] == (1500.0, None)

    def test_header_only_file_is_an_empty_table(self, tmp_path):
        path = tmp_path / "profiles.csv"
        path.write_text(",".join(PROFILES_HEADER) + "\n")
        table = read_profiles(path)
        assert len(table) == 0 and list(table) == []
        assert list(table.columns) == PROFILES_HEADER


class TestUnifyTable:
    """unify's table: profile columns plus dated episode columns."""

    def test_records_equal_the_reference_linkage(self):
        files = [LINKAGE_SMALL / name for name in
                 ("demographics.csv", "exits.csv", "incidents.csv")]
        table = unify(read_demographics(files[0]), read_exits(files[1]),
                      read_incidents(files[2])).profiles
        expected = linkage.unify(linkage.read_demographics(files[0]),
                                 linkage.read_exits(files[1]),
                                 linkage.read_incidents(files[2])).profiles
        assert isinstance(table, ProfileTable)
        assert list(table.columns) == PROFILES_HEADER
        assert list(table) == expected
        assert [table[i] for i in range(len(table))] == expected
        assert table[-1] == expected[-1]
        assert table[3:7] == expected[3:7]
        assert len(table.episodes["entry_date"]) == sum(
            table.columns["n_episodes"]) == 25
        assert table.columns["n_open_episodes"] == [
            sum(not ep.closed for ep in p.episodes) for p in expected]


class TestProfileErrorOrder:
    """A bad profiles.csv names its first bad row, and in it the first
    bad column in row order, whichever column check finds a problem."""

    GOOD = "A,30,0,0,0,0,0,,1,0,5,0,0"

    @pytest.fixture(autouse=True)
    def chunked(self, read_chunk):
        pass

    def read_error(self, tmp_path, lines: list[str]) -> tuple:
        path = tmp_path / "profiles.csv"
        path.write_text("\n".join([",".join(PROFILES_HEADER), *lines])
                        + "\n")
        with pytest.raises(MalformedCsv) as info:
            read_profiles(path)
        return info.value.row, info.value.column, str(info.value)

    def test_earlier_row_wins_over_an_earlier_column(self, tmp_path):
        row, column, _ = self.read_error(tmp_path, [
            *[self.GOOD] * 3,
            "B,30,0,0,0,0,0,x,1,0,5,0,0",  # income, the last column checked
            "C,30,9,0,0,0,0,,1,0,5,0,0",  # race, an integer column
        ])
        assert (row, column) == (5, "income")

    def test_integer_rules_before_age_in_one_row(self, tmp_path):
        row, column, message = self.read_error(tmp_path, [
            "B,130,0,0,0,0,0,,1,0,5,0,1",
        ])
        assert (row, column) == (2, "readmit")
        assert message.endswith("must be 0 with 1 episodes")

    @pytest.mark.parametrize("line,column,reason", [
        ("B,30,9,0,0,0,0,,1,0,5,0,x", "readmit", "not an integer: 'x'"),
        ("B,30,9,0,0,0,0,,1,0,-5,0,0", "race", "unknown race code 9"),
        ("B,30,0,0,0,0,0,,0,0,-5,0,0", "total_los_days", "negative count -5"),
        ("B,30,0,0,0,0,0,,0,1,5,0,0", "n_episodes",
         "must be >= 1: a linked profile has an episode"),
        ("B,30,0,0,0,0,0,,1,2,5,0,1", "n_open_episodes",
         "more open episodes than 1 episodes"),
        ("B,130,0,0,0,0,0,-1,1,0,5,0,0", "age", "age 130.0 outside [0, 120]"),
    ], ids=["ints-before-codes", "codes-before-counts", "counts-before-n",
            "n-before-open", "open-before-readmit", "age-before-income"])
    def test_each_rule_before_the_next_in_one_row(self, tmp_path, line,
                                                  column, reason):
        row, got, message = self.read_error(tmp_path, [self.GOOD, line])
        assert (row, got) == (3, column)
        assert message.endswith(f": {reason}")

    def test_bad_row_before_the_reader_stops(self, tmp_path):
        row, column, _ = self.read_error(tmp_path, [
            *[self.GOOD] * 300,
            "B,-1,0,0,0,0,0,,1,0,5,0,0",
            self.GOOD,
            "C,1",  # too few fields: the reader stops here
        ])
        assert (row, column) == (302, "age")

    def test_short_row_before_a_bad_cell(self, tmp_path):
        row, column, message = self.read_error(tmp_path, [
            self.GOOD, "C,1", "B,30,0,0,0,0,0,,0,0,5,0,0",
        ])
        assert (row, column) == (3, None)
        assert message.endswith("expected 13 fields, got 2")


class TestDemographicErrorOrder:
    """A bad demographics.csv names its first bad row, and in it the
    first bad column in row order: age, admitted, income, entry_date."""

    GOOD = "C,F,K,30,White,Single,Eviction,Employed,Citizen,,2014-01-01,true"

    @pytest.fixture(autouse=True)
    def chunked(self, read_chunk):
        pass

    def read_error(self, tmp_path, lines: list[str]) -> tuple:
        path = tmp_path / "demographics.csv"
        path.write_text("\n".join([",".join(cohort.DEMOGRAPHICS_HEADER),
                                   *lines]) + "\n")
        with pytest.raises(MalformedCsv) as info:
            read_demographics(path)
        return info.value.row, info.value.column, str(info.value)

    @pytest.mark.parametrize("row,column,reason", [
        ("C,F,K,x,White,Single,Eviction,Employed,Citizen,y,never,maybe",
         "age", "not a number: 'x'"),
        ("C,F,K,30,White,Single,Eviction,Employed,Citizen,y,never,maybe",
         "admitted", "expected true/false, got 'maybe'"),
        ("C,F,K,30,White,Single,Eviction,Employed,Citizen,-1,never,true",
         "income", "income -1.0 must be finite and >= 0"),
        ("C,F,K,30,White,Single,Eviction,Employed,Citizen,,never,true",
         "entry_date", "not an ISO date: 'never'"),
    ], ids=["age", "admitted", "income", "entry_date"])
    def test_first_bad_column_of_a_row(self, tmp_path, row, column, reason):
        assert self.read_error(tmp_path, [self.GOOD, row]) == (
            3, column,
            f"{tmp_path / 'demographics.csv'}, row 3, column {column!r}: "
            f"{reason}")

    def test_earlier_row_wins_over_an_earlier_column(self, tmp_path):
        row, column, _ = self.read_error(tmp_path, [
            *[self.GOOD] * 3,
            self.GOOD.replace("2014-01-01", "2014-02-30"),  # entry_date
            self.GOOD.replace(",30,", ",130,"),  # age, the first column
        ])
        assert (row, column) == (5, "entry_date")

    def test_bad_cell_before_a_short_row(self, tmp_path):
        row, column, _ = self.read_error(tmp_path, [
            *[self.GOOD] * 300,
            self.GOOD.replace(",,", ",x,"),  # income
            self.GOOD,
            "C,F,K",  # too few fields: the reader stops here
        ])
        assert (row, column) == (302, "income")


class TestReadPaths:
    """Lines are split as text up to the first chunk of them that holds a
    '"' or a "\\r", and csv.reader reads the rest of the file."""

    ROW = ("C{0},F{0},K{0},30,White,Single,Eviction,Employed,Citizen,,"
           "2014-01-01,true")

    @pytest.fixture(autouse=True)
    def chunked(self, read_chunk):
        pass

    def write(self, tmp_path, rows: list[bytes]):
        path = tmp_path / "demographics.csv"
        path.write_bytes(b"\n".join(
            [",".join(cohort.DEMOGRAPHICS_HEADER).encode(), *rows, b""]))
        return path

    def rows(self, n: int) -> list[bytes]:
        return [self.ROW.format(i).encode() for i in range(n)]

    @pytest.mark.parametrize("quoted", [False, True],
                             ids=["unquoted", "quoted"])
    def test_bad_byte_names_its_line(self, tmp_path, quoted):
        rows = self.rows(400)  # about 30 kB: decoded in several blocks
        if quoted:
            rows[296] = rows[296].replace(b"White", b'"White"')  # row 298
        rows[348] += b"\xff"  # row 350
        with pytest.raises(MalformedCsv) as info:
            read_demographics(self.write(tmp_path, rows))
        assert (info.value.row, info.value.column) == (350, None)
        assert str(info.value).endswith("byte b'\\xff' is not UTF-8")

    def test_csv_reads_on_from_the_first_quote(self, tmp_path):
        rows = self.rows(50)
        plain = read_demographics(self.write(tmp_path, rows)).columns
        rows[30] = rows[30].replace(b"White", b'"White"')
        rows[40] += b"\r"  # a "\r\n" line end
        assert read_demographics(self.write(tmp_path, rows)).columns == plain
        rows[45] += b",extra"
        with pytest.raises(MalformedCsv, match="row 47: expected 12 fields,"
                           " got 13$"):
            read_demographics(self.write(tmp_path, rows))

    def test_a_short_row_then_a_long_one(self, tmp_path):
        rows = self.rows(10)
        rows[4] = rows[4].replace(b",true", b"")  # row 6: 11 cells
        rows[5] += b",true"  # row 7: 13 cells
        with pytest.raises(MalformedCsv, match="row 6: expected 12 fields,"
                           " got 11$"):
            read_demographics(self.write(tmp_path, rows))

    def test_csv_reads_on_from_the_first_carriage_return(self, tmp_path):
        path = tmp_path / "exits.csv"
        rows = [f"C{i},F{i},K{i},2014-01-01,Other" for i in range(50)]
        path.write_text("\n".join([",".join(cohort.EXITS_HEADER), *rows, ""]))
        plain = read_exits(path).columns
        path.write_bytes("".join(
            [",".join(cohort.EXITS_HEADER) + "\n",
             *(row + ("\r\n" if i >= 40 else "\n")
               for i, row in enumerate(rows))]).encode())
        assert read_exits(path).columns == plain

    @pytest.mark.parametrize("quoted", [False, True],
                             ids=["unquoted", "quoted"])
    def test_header_cell_over_the_limit(self, tmp_path, quoted):
        path = tmp_path / "exits.csv"
        cell = "x" * (csv.field_size_limit() + 1)
        header = [*cohort.EXITS_HEADER[:-1], f'"{cell}"' if quoted else cell]
        path.write_text(",".join(header) + "\nC1,F1,K1,2014-01-01,Other\n")
        with pytest.raises(MalformedCsv, match="row 0: field larger than "
                           "field limit"):
            read_exits(path)
