from __future__ import annotations

import csv
import random
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from readmit.cohort import (
    DEMOGRAPHICS_HEADER,
    EXITS_HEADER,
    INCIDENTS_HEADER,
    ClientProfile,
    ResidenceEpisode,
    id_combos,
)
from readmit.features import CATEGORIES
from readmit.features import EncodedDataset, FeatureSchema

FIXTURES = Path(__file__).parent / "fixtures"
LINKAGE_SMALL = FIXTURES / "linkage_small"


def make_profile(
    pid: str = "C000001|F000001|K000001",
    age: float | None = 30.0,
    race: int = 0,
    family_type: int = 0,
    reason_homeless: int = 0,
    employment: int = 0,
    citizenship: int = 1,
    income: float | None = None,
    n_episodes: int = 1,
    incident_count: int = 0,
) -> ClientProfile:
    episodes = []
    start = date(2014, 1, 1)
    for i in range(n_episodes):
        entry = start + timedelta(days=200 * i)
        episodes.append(
            ResidenceEpisode(entry, entry + timedelta(days=30), "Other")
        )
    return ClientProfile(
        id=pid,
        age=age,
        race=race,
        family_type=family_type,
        reason_homeless=reason_homeless,
        employment=employment,
        citizenship=citizenship,
        income=income,
        episodes=tuple(episodes),
        total_los_days=30 * n_episodes,
        incident_count=incident_count,
        readmit=1 if n_episodes >= 2 else 0,
    )


# Records no draw makes: open episodes, "|", "\\", "," and '"' in id
# parts and exit reasons, a "\r" in a cell, blank ages and incomes,
# non-integral floats, episodes on date.min, a closed episode with no
# exit reason, and incident counts above len(INCIDENT_TYPES).
HAND_BUILT = [
    ClientProfile(
        id=id_combos(["C|1"], ["F\\1"], ['K,"1"'])[0], age=None,
        race=3, family_type=2, reason_homeless=4, employment=2,
        citizenship=3, income=None,
        episodes=(ResidenceEpisode(date(2014, 1, 1), date(2014, 2, 1),
                                   "Other"),
                  ResidenceEpisode(date(2014, 6, 1))),
        total_los_days=31, incident_count=9, readmit=1),
    ClientProfile(
        id="C\r2|F2|K2", age=31.5, race=0, family_type=0,
        reason_homeless=0, employment=0, citizenship=0, income=1234.56,
        episodes=(ResidenceEpisode(date(2015, 3, 1), date(2015, 3, 1),
                                   "Moved\rout"),),
        total_los_days=0, incident_count=0, readmit=0),
    ClientProfile(
        id="C3|F3|K3", age=0.1 + 0.2, race=1, family_type=1,
        reason_homeless=2, employment=1, citizenship=1, income=1e-300,
        episodes=(ResidenceEpisode(date(2016, 5, 2), date(2016, 6, 2)),
                  ResidenceEpisode(date(2016, 1, 1), date(2016, 1, 9),
                                   'Housed, "finally"')),
        total_los_days=39, incident_count=5, readmit=1),
    ClientProfile(
        id="C4|F4|K4", age=120.0, race=2, family_type=2,
        reason_homeless=3, employment=2, citizenship=2, income=1e20,
        episodes=(ResidenceEpisode(date.min),
                  ResidenceEpisode(date.min, date.min)),
        total_los_days=0, incident_count=4, readmit=1),
]


def random_dataset(
    n: int, d: int, seed: int, balance: float = 0.5
) -> EncodedDataset:
    """Random continuous design matrix with both classes guaranteed."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, d))
    labels = (rng.random(n) < balance).astype(np.int64)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return EncodedDataset(
        matrix=matrix,
        labels=labels,
        schema=FeatureSchema(),
    )


def _write_rows(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_trio_rows(out_dir: Path, demographics: list[list[str]],
                    exits: list[list[str]], incidents: list[list[str]]
                    ) -> list[Path]:
    """Write the raw trio's rows of str cells under their headers; the
    paths of demographics.csv, exits.csv and incidents.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name in
             ("demographics.csv", "exits.csv", "incidents.csv")]
    for path, header, rows in zip(
            paths, (DEMOGRAPHICS_HEADER, EXITS_HEADER, INCIDENTS_HEADER),
            (demographics, exits, incidents)):
        _write_rows(path, header, rows)
    return paths


def write_linkage_trio(out_dir: Path, n: int = 400, seed: int = 9) -> None:
    """Write demographics.csv, exits.csv and incidents.csv for n clients
    that meet every linkage path: keys holding "|", "\\" or padding,
    raw category spellings, blank ages and incomes, non-admitted rows
    (some for clients never admitted), conflicting demographics, entries
    with no exit, same-day stays and two exits on one day."""
    rng = random.Random(seed)
    labels = {f: list(table.values()) for f, table in CATEGORIES.items()}
    demo, exits, incidents = [], [], []
    for i in range(n):
        key = [f"C{i:04d}", f"F{i // 3:04d}", f"K{i:04d}"]
        if i % 29 == 0:
            key[0] = f"C|{i}"
        if i % 31 == 0:
            key[1] = f"F\\{i}|"
        if i % 37 == 0:
            key[2] = f" K{i} "
        race = rng.choice(labels["race"] + ["martian", " WHITE "])
        family = rng.choice(labels["family_type"])
        reason = rng.choice(labels["reason_homeless"] + ["flood"])
        employment = rng.choice(labels["employment"] + ["retired"])
        citizenship = rng.choice(labels["citizenship"] + ["citizen"])
        age = "" if rng.random() < 0.05 else str(rng.choice(
            [rng.randint(18, 80), round(rng.uniform(18, 80), 1)]))
        income = "" if rng.random() < 0.3 else str(rng.randint(0, 4000))
        n_eps = rng.choices([1, 2, 3], weights=[0.7, 0.2, 0.1])[0]
        entry = date(2014, 1, 1) + timedelta(days=rng.randrange(1200))
        same_day = n_eps >= 2 and i % 11 == 0
        for e in range(n_eps):
            stay = 0 if rng.random() < 0.05 else rng.randint(1, 200)
            if same_day:
                stay = 40
            row = [*key, age, race, family, reason, employment, citizenship,
                   income, entry.isoformat(), "true"]
            if e and i % 13 == 0:
                row[7] = rng.choice(labels["employment"])
            if e and i % 17 == 0:
                row[3] = str(rng.randint(18, 80))
            demo.append(row)
            if rng.random() < 0.08:
                demo.append(row[:-1] + ["false"])
            if rng.random() > 0.1:
                reason_out = rng.choice(["Other", "Curfew Violation",
                                         "Independent Living"])
                exits.append([*key, (entry + timedelta(days=stay)).isoformat(),
                              reason_out])
            if not same_day:
                entry += timedelta(days=stay + rng.randint(1, 300))
        for _ in range(rng.choice([0, 0, 0, 1, 2])):
            incidents.append([*key, entry.isoformat(),
                              rng.choice(["Altercation", "Medical"])])
    for i in range(n // 20):
        key = [f"N{i:04d}", f"G{i:04d}", f"M{i:04d}"]
        demo.append([*key, "40", "Black", "Single", "Eviction", "Employed",
                     "Citizen", "", "2015-05-05", "false"])
        exits.append([*key, "2015-06-06", "Other"])
        incidents.append([*key, "2015-05-20", "Medical"])
    for rows in (demo, exits, incidents):
        rng.shuffle(rows)
    write_trio_rows(out_dir, demo, exits, incidents)


def numpy_kernels_above_x86_v3() -> str:
    """The numpy kernels this CPU runs beyond X86_V3 (AVX2), named as
    numpy's own dispatch list names them: it rejects other names."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    dispatch = list(umath.__cpu_dispatch__)
    v3 = "X86_V3" if "X86_V3" in dispatch else "AVX2"
    above = dispatch[dispatch.index(v3) + 1:] if v3 in dispatch else []
    return " ".join(f for f in above if umath.__cpu_features__.get(f))
