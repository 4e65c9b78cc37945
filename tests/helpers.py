from __future__ import annotations

from datetime import date, timedelta
from pathlib import Path

import numpy as np

from readmit.cohort import ClientProfile, ResidenceEpisode
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
