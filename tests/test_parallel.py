"""Fold tasks run in worker processes give the serial result, bit for bit.

A GBM sweep runs its (ratio, fold) fits in a pool of forked workers.
These tests force one worker and then two and compare, check that a
task's error reaches the CLI with the serial exit code and message, and
that no worker outlives the sweep.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import readmit
from readmit import errors
from readmit import evaluate
from readmit.cli import main
from readmit.models import GbmParams, TrainConfig
from readmit.resample import ORIGINAL, SmoteConfig
from readmit.synthgen import CohortSpec, generate

SMALL_GBM = TrainConfig(gbm=GbmParams(n_trees=10))


@pytest.fixture(scope="module")
def cohort():
    return generate(CohortSpec(n=300, seed=13))


@pytest.fixture()
def set_workers(monkeypatch):
    """Force the number of processes a GBM evaluation runs its tasks on."""
    def set_to(k: int) -> None:
        monkeypatch.setattr(evaluate, "worker_count", lambda n_tasks: k)
    return set_to


@pytest.fixture()
def fold_pids(tmp_path, monkeypatch):
    """Record the pid of the process that runs each fold task."""
    log = tmp_path / "pids.txt"
    run_fold = evaluate.run_fold

    def recording_run_fold(inputs, task):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return run_fold(inputs, task)

    monkeypatch.setattr(evaluate, "run_fold", recording_run_fold)

    def read_and_clear() -> list[int]:
        pids = [int(line) for line in log.read_text().split()]
        log.unlink()
        return pids

    return read_and_clear


def test_sweep_parallel_equals_serial(cohort, fold_pids, set_workers):
    args = dict(ratios=[ORIGINAL, 0.5, 1.0], model_kind="gbm",
                train_config=SMALL_GBM, n_folds=3, seed=5)
    set_workers(1)
    serial = evaluate.sweep(cohort, **args)
    serial_pids = fold_pids()
    set_workers(2)
    parallel = evaluate.sweep(cohort, **args)
    parallel_pids = fold_pids()

    assert serial_pids == [os.getpid()] * 9
    assert len(parallel_pids) == 9
    assert os.getpid() not in parallel_pids
    assert len(set(parallel_pids)) == 2

    serial_results, serial_dropped = serial
    parallel_results, parallel_dropped = parallel
    assert [r.ratio for r in serial_results] == ["original", "0.5", "1.0"]
    assert parallel_dropped == serial_dropped
    assert len(parallel_results) == len(serial_results)
    for got, want in zip(parallel_results, serial_results):
        assert got.row() == want.row()
        assert got.curve == want.curve
        assert got.traces == want.traces
        assert np.array_equal(got.pooled_scores, want.pooled_scores)


def test_cv_evaluate_parallel_equals_serial(cohort, fold_pids, set_workers):
    args = (cohort, "gbm", SmoteConfig(ratio=1.0, k=5), SMALL_GBM)
    set_workers(1)
    serial = evaluate.cv_evaluate(*args, n_folds=3, seed=9)
    assert fold_pids() == [os.getpid()] * 3
    set_workers(2)
    parallel = evaluate.cv_evaluate(*args, n_folds=3, seed=9)
    assert os.getpid() not in fold_pids()

    assert np.array_equal(parallel.pooled_scores, serial.pooled_scores)
    assert parallel.traces == serial.traces
    assert parallel.confusion == serial.confusion
    assert parallel.auc == serial.auc


def test_worker_count_follows_affinity_and_task_count():
    cpus = len(os.sched_getaffinity(0))
    assert evaluate.worker_count(1) == 1
    assert evaluate.worker_count(1000) == cpus


def test_worker_error_exits_4_like_serial(tmp_path, capsys, set_workers):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 300, "seed": 13}))
    data = tmp_path / "data"
    profiles = tmp_path / "profiles.csv"
    assert main(["synth", "--spec", str(spec), "-o", str(data)]) == 0
    assert main(["unify", str(data / "demographics.csv"),
                 str(data / "exits.csv"), str(data / "incidents.csv"),
                 "-o", str(profiles)]) == 0
    capsys.readouterr()

    # k=60 exceeds a training fold's minority count, so the ratio-1.0
    # tasks raise MinorityTooSmall after the 'original' tasks succeed.
    def run_sweep(workers: int) -> tuple[int, str]:
        set_workers(workers)
        code = main(["sweep", "--profiles", str(profiles), "--model", "gbm",
                     "--ratios", "original,1.0", "--folds", "2",
                     "--n-trees", "5", "--k", "60",
                     "-o", str(tmp_path / f"sweep{workers}")])
        return code, capsys.readouterr().err

    serial = run_sweep(1)
    parallel = run_sweep(2)
    assert serial[0] == 4
    assert serial[1].startswith("computation error: minority has ")
    assert parallel == serial
    assert multiprocessing.active_children() == []


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads process states from /proc")
def test_workers_exit_when_their_parent_is_killed(tmp_path):
    pid_log = tmp_path / "pids.txt"
    script = (
        "import os, time\n"
        "from readmit import evaluate\n"
        "def blocking_fold(inputs, task):\n"
        f"    with open({str(pid_log)!r}, 'a') as fh:\n"
        "        fh.write(f'{os.getpid()}\\n')\n"
        "    time.sleep(60)\n"
        "evaluate.run_fold = blocking_fold\n"
        "evaluate._run_folds(None, [0, 1], 2)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(readmit.__file__).parents[1]))
    parent = subprocess.Popen([sys.executable, "-c", script], env=env)
    pids: list[int] = []
    try:
        deadline = time.monotonic() + 30
        while len(pids) < 2 and time.monotonic() < deadline:
            time.sleep(0.1)
            if pid_log.exists():
                pids = [int(p) for p in pid_log.read_text().split()]
        assert len(pids) == 2, "workers did not start"
        parent.kill()
        parent.wait(timeout=10)

        deadline = time.monotonic() + 10
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, pids))
    finally:
        parent.kill()
        parent.wait(timeout=10)
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


# What run_fold can raise: age imputation (evaluate), standardize
# (features), smote (resample), and the fits and predictions (models);
# also encode's errors, though encode now runs once in the calling
# process. MalformedCsv, whose args do not rebuild it, is raised only
# while reading CSVs.
FOLD_TASK_ERRORS = [
    errors.UnmappableFamilyType, errors.MissingAge, errors.EmptyAfterFiltering,
    errors.WidthMismatch, errors.MinorityTooSmall, errors.SingleClass,
    errors.Diverged,
]


@pytest.mark.parametrize("cls", FOLD_TASK_ERRORS, ids=lambda c: c.__name__)
def test_fold_task_errors_survive_pickling(cls):
    # A task's error crosses back from its worker as a pickle; one that
    # cannot be rebuilt would surface as a broken pool, not as itself.
    exc = cls("some reason")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
