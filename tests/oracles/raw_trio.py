"""Reference raw-trio writer: one record per row, one writerow per row.

The former implementation of readmit.synthgen.emit_raw_files and of
readmit.cohort's raw-trio writers. It splits each profile's id, builds
a DemographicRecord per episode, an ExitRecord per closed episode and
an IncidentRecord per incident, formats every cell on its own and
writes each row with its own writerow call; a row holding a "\\r" is
written fully quoted. demographic_row, exit_row and incident_row are
the cells of one record's row.

Given the same profiles, readmit.synthgen.emit_raw_files must write
the same three files byte for byte.
"""

from __future__ import annotations

import csv
from datetime import timedelta
from pathlib import Path
from typing import Sequence

from readmit.cohort import (
    DEMOGRAPHICS_HEADER,
    EXITS_HEADER,
    INCIDENTS_HEADER,
    ClientProfile,
    id_parts,
)
from readmit.schema import category_label

from tests.oracles.linkage import (
    ClientKey,
    DemographicRecord,
    ExitRecord,
    IncidentRecord,
)

INCIDENT_TYPES = ("Altercation", "Medical", "Property Damage", "Other")


def format_number(value: float | None) -> str:
    if value is None:
        return ""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        for row in rows:
            (quoted if "\r" in "".join(row) else writer).writerow(row)


def demographic_row(r: DemographicRecord) -> list[str]:
    return [r.key.cares_id, r.key.family_id, r.key.case_id,
            format_number(r.age),
            r.race, r.family_type, r.reason_homeless,
            r.employment, r.citizenship,
            format_number(r.income),
            r.entry_date.isoformat(),
            "true" if r.admitted else "false"]


def exit_row(r: ExitRecord) -> list[str]:
    return [r.key.cares_id, r.key.family_id, r.key.case_id,
            r.exit_date.isoformat(), r.exit_reason]


def incident_row(r: IncidentRecord) -> list[str]:
    return [r.key.cares_id, r.key.family_id, r.key.case_id,
            r.incident_date.isoformat(), r.incident_type]


def emit_raw_files(cohort: Sequence[ClientProfile],
                   out_dir: str | Path) -> dict[str, Path]:
    if not cohort:
        raise ValueError("cannot emit an empty cohort")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    demo_rows: list[DemographicRecord] = []
    exit_rows: list[ExitRecord] = []
    incident_rows: list[IncidentRecord] = []
    for profile in cohort:
        key = ClientKey(*id_parts(profile.id))
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
    _write_csv(paths["demographics"], DEMOGRAPHICS_HEADER,
               map(demographic_row, demo_rows))
    _write_csv(paths["exits"], EXITS_HEADER, map(exit_row, exit_rows))
    _write_csv(paths["incidents"], INCIDENTS_HEADER,
               map(incident_row, incident_rows))
    return paths
