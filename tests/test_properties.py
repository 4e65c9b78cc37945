"""Property tests: id keys, the CSV round trips, and linkage order."""

from __future__ import annotations

import tempfile
from datetime import date, timedelta
from pathlib import Path

from hypothesis import given, settings, strategies as st

from readmit.cohort import (
    ClientKey,
    ClientProfile,
    DemographicRecord,
    ExitRecord,
    IncidentRecord,
    ResidenceEpisode,
    make_id_combo,
    read_demographics,
    read_exits,
    read_incidents,
    read_profiles,
    split_id_combo,
    unify,
    write_demographics,
    write_exits,
    write_incidents,
    write_profiles,
)
from readmit.features import CATEGORIES, CATEGORICAL_FIELDS

# Key parts are trimmed before joining, so a part that round-trips has no
# surrounding whitespace; pipes and backslashes are drawn often.
key_parts = st.text(
    st.one_of(st.sampled_from("|\\"), st.characters()), min_size=1
).filter(lambda part: part == part.strip() and part != "")


@given(key_parts, key_parts, key_parts)
def test_id_combo_round_trip(cares_id, family_id, case_id):
    key = ClientKey(cares_id, family_id, case_id)
    assert split_id_combo(make_id_combo(key)) == key


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
        return read(path)


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
    assert csv_round_trip(demo, write_demographics, read_demographics) == demo
    assert csv_round_trip(exits, write_exits, read_exits) == exits
    assert csv_round_trip(incidents, write_incidents,
                          read_incidents) == incidents


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


@settings(max_examples=80, deadline=None)
@given(st.lists(demographic, max_size=12), st.lists(exit_record, max_size=8),
       st.lists(incident, max_size=6), st.randoms(use_true_random=False))
def test_unify_is_invariant_to_row_order(demo, exits, incidents, rng):
    expected = unify(demo, exits, incidents)
    for rows in (demo, exits, incidents):
        rng.shuffle(rows)
    shuffled = unify(demo, exits, incidents)
    assert shuffled.profiles == expected.profiles
    assert shuffled.warnings == expected.warnings
    assert shuffled.removed_not_admitted == expected.removed_not_admitted
