from __future__ import annotations

import json

import numpy as np
import pytest

from readmit.cohort import read_demographics, read_exits, read_incidents, unify
from readmit.errors import InfeasibleSpec
from readmit.evaluate import cv_evaluate
from readmit.models import TrainConfig
from readmit.resample import ORIGINAL, SmoteConfig
from readmit import synthgen
from readmit.models import sigmoid
from readmit.synthgen import (
    CohortSpec,
    _solve_intercept,
    default_spec_path,
    emit_raw_files,
    generate,
    load_spec,
)


def small_spec(**overrides) -> CohortSpec:
    base = dict(n=400, seed=13)
    base.update(overrides)
    return CohortSpec(**base)


class TestGenerate:
    def test_default_cohort_counts(self):
        cohort = generate(CohortSpec())
        assert len(cohort) == 6779
        assert sum(p.readmit for p in cohort) == 1288  # round(6779 * 0.19)

    def test_published_positive_count_reachable(self):
        cohort = generate(CohortSpec(minority_rate=1289 / 6779))
        assert sum(p.readmit for p in cohort) == 1289

    def test_same_seed_identical(self):
        assert generate(small_spec()) == generate(small_spec())

    def test_different_seeds_differ(self):
        assert generate(small_spec(seed=1)) != generate(small_spec(seed=2))

    def test_sorted_by_id(self):
        ids = [p.id for p in generate(small_spec())]
        assert ids == sorted(ids)

    def test_episodes_match_label(self):
        for p in generate(small_spec()):
            assert len(p.episodes) == (2 if p.readmit else 1)
            assert all(ep.closed for ep in p.episodes)
            assert p.total_los_days == sum(ep.duration_days
                                           for ep in p.episodes)

    def test_marginals_near_spec_at_scale(self):
        spec = CohortSpec(seed=3)
        cohort = generate(spec)
        n = len(cohort)
        employed = sum(1 for p in cohort if p.employment == 1) / n
        assert abs(employed - spec.employed_rate) < 0.02
        for code, label in enumerate(
            ("Eviction", "Discord", "Domestic Violence", "Overcrowding",
             "Other")
        ):
            frac = sum(1 for p in cohort if p.reason_homeless == code) / n
            assert abs(frac - spec.reason_weights[label]) < 0.02
        ages = [p.age for p in cohort]
        assert spec.age_min <= min(ages) and max(ages) <= spec.age_max

    def test_field_types_follow_the_defaults(self):
        CohortSpec(age_mean=35).validate()  # an int is a valid float
        for bad in ({"n": True}, {"n": 300.0}, {"seed": "1"},
                    {"age_sd": "12"},
                    {"race_weights": {"White": "1", "Black": 0,
                                      "Hispanic": 0, "Other": 0}}):
            with pytest.raises(InfeasibleSpec, match=next(iter(bad))):
                CohortSpec(**bad).validate()

    def test_infeasible_rates_rejected(self):
        with pytest.raises(InfeasibleSpec):
            generate(small_spec(minority_rate=0.0))
        with pytest.raises(InfeasibleSpec):
            generate(small_spec(minority_rate=1.0))
        with pytest.raises(InfeasibleSpec):
            CohortSpec(n=50).validate()
        with pytest.raises(InfeasibleSpec):
            CohortSpec(
                reason_weights={"Eviction": 0.9, "Discord": 0.9,
                                "Domestic Violence": 0.0,
                                "Overcrowding": 0.0, "Other": 0.0}
            ).validate()

    def test_null_signal_gives_chance_auc(self):
        for seed in range(5):
            cohort = generate(CohortSpec(signal_strength=0.0, seed=seed))
            result = cv_evaluate(cohort, "logistic",
                                 SmoteConfig(ratio=ORIGINAL),
                                 TrainConfig(), n_folds=5, seed=seed)
            assert 0.47 <= result.auc <= 0.53

    def test_auc_monotone_in_signal_strength(self):
        medians = []
        for strength in (0.0, 0.4, 0.8, 1.6):
            aucs = []
            for seed in range(3):
                cohort = generate(CohortSpec(signal_strength=strength,
                                             seed=seed))
                result = cv_evaluate(cohort, "logistic",
                                     SmoteConfig(ratio=ORIGINAL),
                                     TrainConfig(), n_folds=5, seed=seed)
                aucs.append(result.auc)
            medians.append(float(np.median(aucs)))
        assert medians == sorted(medians)


def intercept_by_200_steps(risk, strength, target):
    """Reference bisection: all 200 halvings, never stopping early."""
    def realized(alpha):
        return float(np.mean(sigmoid(alpha + strength * risk)))

    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if realized(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class TestSolveIntercept:
    CASES = [
        (seed, n, strength, target)
        for seed, n in ((0, 300), (1, 2000), (2, 6779))
        for strength in (0.0, 0.8, 2.5)
        for target in (1e-3, 0.19, 0.5, 0.93)
    ]

    @staticmethod
    def risk(seed, n):
        rng = np.random.default_rng(seed)
        return rng.normal(size=n) + (rng.random(n) < 0.4)

    def test_bits_match_the_200_step_loop(self):
        for seed, n, strength, target in self.CASES:
            risk = self.risk(seed, n)
            got = _solve_intercept(risk, strength, target)
            want = intercept_by_200_steps(risk, strength, target)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (
                seed, n, strength, target)

    def test_stops_once_the_bracket_is_two_adjacent_floats(self, monkeypatch):
        calls = []

        def counted(z):
            calls.append(1)
            return sigmoid(z)

        monkeypatch.setattr(synthgen, "sigmoid", counted)
        _solve_intercept(self.risk(0, 6779), 0.8, 0.19)
        # 2 bracket checks plus about 60 halvings from width 120 down
        # to one ulp near the root, not 200.
        assert len(calls) < 80, len(calls)


class TestSpecSerialization:
    def test_bundled_default_matches_dataclass(self):
        assert load_spec(default_spec_path()) == CohortSpec()

    def test_round_trip(self, tmp_path):
        spec = small_spec(minority_rate=0.25, signal_strength=1.2)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_json_dict()))
        assert load_spec(path) == spec

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"n": 500, "bogus": 1}')
        with pytest.raises(InfeasibleSpec):
            load_spec(path)


class TestEmitRawFiles:
    def read_back(self, out_dir):
        return unify(
            read_demographics(out_dir / "demographics.csv"),
            read_exits(out_dir / "exits.csv"),
            read_incidents(out_dir / "incidents.csv"),
        )

    def test_single_entry_row_counts(self, tmp_path):
        cohort = [p for p in generate(small_spec()) if p.readmit == 0][:1]
        emit_raw_files(cohort, tmp_path)
        demo_lines = (tmp_path / "demographics.csv").read_text().splitlines()
        exit_lines = (tmp_path / "exits.csv").read_text().splitlines()
        assert len(demo_lines) == 2  # header + 1
        assert len(exit_lines) == 2

    def test_multi_entry_row_counts(self, tmp_path):
        cohort = [p for p in generate(small_spec()) if p.readmit == 1][:1]
        emit_raw_files(cohort, tmp_path)
        demo_lines = (tmp_path / "demographics.csv").read_text().splitlines()
        exit_lines = (tmp_path / "exits.csv").read_text().splitlines()
        assert len(demo_lines) == 3  # header + 2 entries, same id combo
        assert len(exit_lines) == 3
        assert demo_lines[1].split(",")[0] == demo_lines[2].split(",")[0]

    def test_round_trip_small(self, tmp_path):
        cohort = generate(small_spec())
        emit_raw_files(cohort, tmp_path)
        result = self.read_back(tmp_path)
        assert result.profiles == cohort
        assert result.warnings == []
        assert result.removed_not_admitted == 0

    def test_round_trip_full_default(self, tmp_path):
        cohort = generate(CohortSpec())
        emit_raw_files(cohort, tmp_path)
        result = self.read_back(tmp_path)
        assert len(result.profiles) == 6779
        assert result.profiles == cohort
