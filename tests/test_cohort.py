from __future__ import annotations

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
    ClientKey,
    DemographicRecord,
    ExitRecord,
    IncidentRecord,
    ProfileTable,
    ResidenceEpisode,
    derive_label,
    make_id_combo,
    read_demographics,
    read_exits,
    read_incidents,
    read_profiles,
    split_id_combo,
    unify,
    write_profiles,
)
from readmit.errors import (
    EmptyKeyPart,
    MalformedCsv,
    NoEpisodes,
)

from tests.helpers import LINKAGE_SMALL, write_linkage_trio
from tests.oracles import linkage


def demo_record(key, entry, admitted=True, age=30.0, employment="Employed",
                income=None):
    return DemographicRecord(
        key=key, age=age, race="White", family_type="Single",
        reason_homeless="Eviction", employment=employment,
        citizenship="Citizen", income=income, entry_date=entry,
        admitted=admitted,
    )


class TestIdCombo:
    def test_basic_concatenation(self):
        assert make_id_combo(ClientKey("C1", "F9", "K3")) == "C1|F9|K3"

    def test_deterministic(self):
        key = ClientKey("C1", "F9", "K3")
        assert make_id_combo(key) == make_id_combo(key)

    def test_escaping_forces_injectivity(self):
        a = make_id_combo(ClientKey("A|B", "F", "K"))
        b = make_id_combo(ClientKey("A", "B|F", "K"))
        assert a == "A\\|B|F|K"
        assert b == "A|B\\|F|K"
        assert a != b

    @pytest.mark.parametrize("parts", [
        ("", "F", "K"), ("C", " ", "K"), ("C", "F", "\t"),
    ])
    def test_blank_part_rejected(self, parts):
        with pytest.raises(EmptyKeyPart):
            make_id_combo(ClientKey(*parts))

    def test_split_inverts_make(self):
        rng = random.Random(7)
        alphabet = "ab|\\|c"
        for _ in range(300):
            parts = tuple(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
                for _ in range(3)
            )
            if any(not p.strip() for p in parts):
                continue
            key = ClientKey(*parts)
            assert split_id_combo(make_id_combo(key)) == ClientKey(
                *(p.strip() for p in parts)
            )

    def test_injective_over_random_triples(self):
        rng = random.Random(11)
        alphabet = "xy|\\"
        seen = {}
        for _ in range(500):
            parts = tuple(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
                for _ in range(3)
            )
            parts = tuple(p.strip() for p in parts)
            if any(not p for p in parts):
                continue
            combo = make_id_combo(ClientKey(*parts))
            if combo in seen:
                assert seen[combo] == parts
            seen[combo] = parts


class TestLabelAndStay:
    def test_single_episode_is_zero(self):
        assert derive_label([ResidenceEpisode(date(2014, 1, 1))]) == 0

    def test_two_episodes_is_one(self):
        eps = [
            ResidenceEpisode(date(2014, 1, 1), date(2014, 2, 1)),
            ResidenceEpisode(date(2014, 6, 1)),
        ]
        assert derive_label(eps) == 1

    def test_five_episodes_is_one(self):
        eps = [
            ResidenceEpisode(date(2014, m, 1), date(2014, m, 10))
            for m in range(1, 6)
        ]
        assert derive_label(eps) == 1

    def test_no_episodes_raises(self):
        with pytest.raises(NoEpisodes):
            derive_label([])

    def test_exit_before_entry_rejected(self):
        with pytest.raises(ValueError):
            ResidenceEpisode(date(2020, 5, 1), date(2020, 4, 1))


class TestUnify:
    def test_single_join(self):
        key = ClientKey("C1", "F1", "K1")
        result = unify(
            [demo_record(key, date(2014, 1, 1))],
            [ExitRecord(key, date(2014, 2, 1), "Other")],
            [],
        )
        assert len(result.profiles) == 1
        profile = result.profiles[0]
        assert len(profile.episodes) == 1
        assert profile.episodes[0].closed
        assert profile.total_los_days == 31
        assert profile.readmit == 0

    def test_not_admitted_dropped(self):
        key = ClientKey("C1", "F1", "K1")
        result = unify(
            [demo_record(key, date(2014, 1, 1), admitted=False)],
            [ExitRecord(key, date(2014, 2, 1), "Other")],
            [],
        )
        assert result.profiles == []
        assert result.removed_not_admitted == 1

    def test_two_entries_one_profile(self):
        key = ClientKey("C1", "F1", "K1")
        demo = [
            demo_record(key, date(2014, 1, 1)),
            demo_record(key, date(2014, 6, 1)),
        ]
        exits = [
            ExitRecord(key, date(2014, 2, 1), "Other"),
            ExitRecord(key, date(2014, 7, 1), "Other"),
        ]
        result = unify(demo, exits, [])
        assert len(result.profiles) == 1
        assert len(result.profiles[0].episodes) == 2
        assert result.profiles[0].readmit == 1

    def test_latest_entry_wins_and_warns(self):
        key = ClientKey("C1", "F1", "K1")
        demo = [
            demo_record(key, date(2014, 1, 1), employment="Unemployed"),
            demo_record(key, date(2015, 1, 1), employment="Employed"),
        ]
        result = unify(demo, [], [])
        assert result.profiles[0].employment == 1
        assert any(w.field == "employment" for w in result.warnings)

    def test_same_day_exits_pair_deterministically(self):
        key = ClientKey("C1", "F1", "K1")
        demo = [
            demo_record(key, date(2014, 1, 1)),
            demo_record(key, date(2014, 1, 1)),
        ]
        exits = [
            ExitRecord(key, date(2014, 2, 1), "B-reason"),
            ExitRecord(key, date(2014, 2, 1), "A-reason"),
        ]
        forward = unify(demo, exits, [])
        flipped = unify(demo, list(reversed(exits)), [])
        assert forward.profiles == flipped.profiles
        reasons = [ep.exit_reason for ep in forward.profiles[0].episodes]
        assert reasons == ["A-reason", "B-reason"]

    def test_incidents_counted(self):
        key = ClientKey("C1", "F1", "K1")
        incidents = [
            IncidentRecord(key, date(2014, 1, 5), "Altercation"),
            IncidentRecord(key, date(2014, 1, 9), "Medical"),
        ]
        result = unify([demo_record(key, date(2014, 1, 1))], [], incidents)
        assert result.profiles[0].incident_count == 2

    def test_episode_conservation_and_uniqueness(self):
        demo = read_demographics(LINKAGE_SMALL / "demographics.csv")
        exits = read_exits(LINKAGE_SMALL / "exits.csv")
        incidents = read_incidents(LINKAGE_SMALL / "incidents.csv")
        result = unify(demo, exits, incidents)

        ids = [p.id for p in result.profiles]
        assert len(ids) == len(set(ids))
        n_admitted = sum(1 for r in demo if r.admitted)
        assert sum(len(p.episodes) for p in result.profiles) == n_admitted
        for p in result.profiles:
            assert p.readmit == (1 if len(p.episodes) >= 2 else 0)

    def test_order_insensitive(self):
        demo = read_demographics(LINKAGE_SMALL / "demographics.csv")
        exits = read_exits(LINKAGE_SMALL / "exits.csv")
        incidents = read_incidents(LINKAGE_SMALL / "incidents.csv")
        baseline = unify(demo, exits, incidents)

        rng = random.Random(3)
        for _ in range(5):
            rng.shuffle(demo)
            rng.shuffle(exits)
            rng.shuffle(incidents)
            shuffled = unify(demo, exits, incidents)
            assert shuffled.profiles == baseline.profiles
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
        assert [r.key.cares_id for r in read_exits(path)] == [
            "C1", "C\r2", "C3", "C4", "C\r5"]

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
        for module, name in ((cohort, "_parse_age"), (cohort, "_parse_date"),
                             (cohort.schema, "canonicalize"),
                             (cohort, "_optional_numbers")):
            def spy(*args, _fn=getattr(module, name), _name=name):
                states.setdefault(_name, set()).add(gc.isenabled())
                return _fn(*args)
            monkeypatch.setattr(module, name, spy)
        self.link(tmp_path)
        assert states == {"_parse_age": {False}, "_parse_date": {False},
                          "canonicalize": {False},
                          "_optional_numbers": {False}}
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


@pytest.fixture(params=[3, 20, cohort.READ_CHUNK], ids=lambda n: f"chunk{n}")
def read_chunk(request, monkeypatch):
    """Rows per column pass of read_profiles: 3 splits the 20-row golden
    file and the files below across chunks, 20 fills one exactly."""
    monkeypatch.setattr(cohort, "READ_CHUNK", request.param)
    return request.param


class TestProfileTable:
    """read_profiles' table: validated columns that read as records."""

    GOLDEN = LINKAGE_SMALL / "profiles_golden.csv"

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
