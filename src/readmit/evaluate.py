"""Metrics, ROC/AUC, pooled cross-validated evaluation, and ratio sweeps.

Evaluation protocol: stratified k-fold CV with pooled out-of-fold
predictions, so one confusion matrix covers every input row exactly
once. The cohort is encoded once, missing ages left NaN. fit_model
fits a Pipeline on a fold's training rows only: their column
statistics (features.ColumnStats: age median fill, mean and scale),
and a model fitted on them plus the synthetic rows oversampling adds.
Its predict scores the held-out rows with those statistics.
``readmit train`` fits through the same fit_model.

A sweep returns one CvResult per ratio, in the order given: the ratio's
label, the pooled confusion matrix, AUC and ROC curve, and one
FoldTrace per fold. CvResult.row() is that ratio's report.json row.
Every ratio of a sweep uses one fold plan and the same per-fold SMOTE
seeds, so a row depends only on the cohort, its ratio, the master seed
and the options; cv_evaluate is a sweep of one ratio.

Each (ratio, fold) fit is one task (run_fold) with its seeds fixed in
advance. GBM tasks run in a pool of forked worker processes, one per
CPU in this process's affinity mask; with a single CPU (for example
under ``taskset -c 0``) they run in this process. Each worker searches
SMOTE's neighbours on one thread, since the workers already use every
CPU between them. Logistic tasks always run in this process, where the
neighbour search spreads over every CPU and IRLS's matrix products use
every core. The pool gets the tasks with the most rows to fit
(training plus synthetic) first, and results are gathered in task
order, so the output is bit-identical to a serial run. Each worker
holds one fit's working memory, so a GBM sweep's total memory grows
with the worker count.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import models as models_mod
from . import resample
from .errors import EmptyMatrix, LengthMismatch, NoPositives, SingleClass
from .features import ColumnStats, EncodedDataset, encode, standardize
from .resample import smote, stratified_folds, synthetic_count
from .schema import (MODEL_KINDS, ORIGINAL, FeatureSchema, SmoteConfig,
                     TrainConfig)
from .seeding import derive_seed

DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class RocCurve:
    """Operating points swept over descending score thresholds."""

    fpr: tuple[float, ...]
    tpr: tuple[float, ...]
    thresholds: tuple[float, ...]  # +inf first, one per distinct score after

    @property
    def points(self) -> list[tuple[float, float, float]]:
        return list(zip(self.fpr, self.tpr, self.thresholds))


def confusion(labels, probabilities) -> ConfusionMatrix:
    """Tally counts at the probability cutoff; p >= DEFAULT_THRESHOLD is
    positive."""
    y = np.asarray(labels)
    p = np.asarray(probabilities)
    if y.shape != p.shape:
        raise LengthMismatch(f"labels {y.shape} vs probabilities {p.shape}")
    pred = p >= DEFAULT_THRESHOLD
    pos = y == 1
    return ConfusionMatrix(
        tp=int(np.sum(pred & pos)),
        fn=int(np.sum(~pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        tn=int(np.sum(~pred & ~pos)),
    )


def sensitivity(cm: ConfusionMatrix) -> float:
    if cm.tp + cm.fn == 0:
        raise NoPositives("no positive rows: sensitivity undefined")
    return cm.tp / (cm.tp + cm.fn)


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise EmptyMatrix("empty confusion matrix: accuracy undefined")
    return (cm.tp + cm.tn) / cm.total


def roc_curve(labels, scores) -> RocCurve:
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise LengthMismatch(f"labels {y.shape} vs scores {s.shape}")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("ROC needs both classes present")

    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = (y[order] == 1).astype(np.int64)

    # Last index of each tie group: one operating point per distinct score.
    boundary = np.flatnonzero(np.diff(s_sorted) != 0)
    boundary = np.append(boundary, len(s_sorted) - 1)

    tps = np.cumsum(y_sorted)[boundary]
    fps = boundary + 1 - tps
    fpr = np.concatenate([[0.0], fps / n_neg])
    tpr = np.concatenate([[0.0], tps / n_pos])
    thresholds = np.concatenate([[np.inf], s_sorted[boundary]])
    return RocCurve(fpr=tuple(fpr.tolist()), tpr=tuple(tpr.tolist()),
                    thresholds=tuple(thresholds.tolist()))


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the ROC curve."""
    fpr = np.asarray(curve.fpr)
    tpr = np.asarray(curve.tpr)
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


def write_roc_csv(curve: RocCurve, path: str | Path) -> None:
    """One fpr,tpr,threshold line per point, each value as repr(float)."""
    fpr, tpr, thresholds = (np.asarray(values, dtype=np.float64).tolist()
                            for values in (curve.fpr, curve.tpr,
                                           curve.thresholds))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("fpr,tpr,threshold\n")
        fh.writelines(f"{f!r},{t!r},{thr!r}\n"
                      for f, t, thr in zip(fpr, tpr, thresholds))


# --- cross-validated evaluation ----------------------------------------------

@dataclass(frozen=True)
class FoldTrace:
    fold: int
    n_train: int
    n_test: int
    n_synthetic: int
    converged: bool  # False when a logistic fit stopped at IRLS_MAX_ITER


@dataclass
class CvResult:
    ratio: str  # ratio_label of the run's oversampling ratio
    confusion: ConfusionMatrix
    auc: float
    curve: RocCurve
    pooled_scores: np.ndarray
    labels: np.ndarray
    traces: list[FoldTrace]

    def row(self) -> dict:
        """This result's report.json row."""
        cm = self.confusion
        return {"ratio": self.ratio, "accuracy": accuracy(cm), "tp": cm.tp,
                "fn": cm.fn, "fp": cm.fp, "tn": cm.tn, "auc": self.auc,
                "sensitivity": sensitivity(cm)}


def ratio_label(ratio: float | str) -> str:
    return ORIGINAL if ratio == ORIGINAL else repr(float(ratio))


@dataclass(frozen=True)
class CvInputs:
    """What every fold task of one evaluation reads."""

    data: EncodedDataset  # the whole cohort, encoded once; missing ages NaN
    model_kind: str
    train_config: TrainConfig


@dataclass(frozen=True)
class FoldTask:
    """One (ratio, fold) fit: its row split and its oversampling seed."""

    fold: int
    train_idx: np.ndarray
    test_idx: np.ndarray
    smote_config: SmoteConfig


@dataclass(frozen=True)
class Pipeline:
    """One fit with the preprocessing it was fitted with: the training
    rows' column statistics, the model fitted on those rows standardized
    and oversampled, and how many synthetic rows oversampling added."""

    stats: ColumnStats
    model: models_mod.LogisticModel | models_mod.GbmModel
    n_synthetic: int

    @property
    def converged(self) -> bool:
        """False when a logistic fit stopped at IRLS_MAX_ITER."""
        return (not isinstance(self.model, models_mod.LogisticModel)
                or self.model.converged)

    def predict(self, data: EncodedDataset) -> np.ndarray:
        """Probabilities for encoded rows, standardized with the
        training statistics (missing ages take the training median)."""
        std, _ = standardize(data, self.stats)
        if isinstance(self.model, models_mod.LogisticModel):
            return models_mod.predict_proba_logistic(self.model, std.matrix)
        return models_mod.predict_proba_gbm(self.model, std.matrix)


def fit_model(
    train: EncodedDataset,
    model_kind: str,
    smote_config: SmoteConfig,
    train_config: TrainConfig,
) -> Pipeline:
    """Standardize, oversample and fit on encoded training rows.

    The column statistics, missing ages' median fill included
    (MissingAge when no row has an age), are fitted on the training
    rows, and oversampling adds to the training rows only.
    """
    fit = {"gbm": models_mod.fit_gbm,
           "logistic": models_mod.fit_logistic}.get(model_kind)
    if fit is None:
        raise ValueError(f"model_kind must be one of {MODEL_KINDS}")
    std_train, stats = standardize(train)
    train_final = smote(std_train, smote_config)
    return Pipeline(stats=stats, model=fit(train_final, train_config),
                    n_synthetic=train_final.n_rows - std_train.n_rows)


def _rows(data: EncodedDataset, idx: np.ndarray) -> EncodedDataset:
    return EncodedDataset(matrix=data.matrix[idx], labels=data.labels[idx],
                          schema=data.schema)


def run_fold(inputs: CvInputs, task: FoldTask) -> tuple[np.ndarray, FoldTrace]:
    """fit_model on one fold's training rows, then predict its held-out
    rows."""
    pipeline = fit_model(_rows(inputs.data, task.train_idx),
                         inputs.model_kind, task.smote_config,
                         inputs.train_config)
    return (pipeline.predict(_rows(inputs.data, task.test_idx)),
            FoldTrace(task.fold, len(task.train_idx), len(task.test_idx),
                      pipeline.n_synthetic, pipeline.converged))


def worker_count(n_tasks: int) -> int:
    """Processes to run n_tasks fold fits on: one per CPU this process
    may use (its affinity mask, so ``taskset`` limits it), at most one
    per task. One where ``fork`` is unavailable, or while other Python
    threads run: a forked child would inherit their locks but not them.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(resample.cpu_count(), n_tasks)


# Set once in each pool worker, before it runs any task.
_worker_inputs: CvInputs | None = None


def _start_worker(inputs: CvInputs, parent: int) -> None:
    global _worker_inputs
    _worker_inputs = inputs
    # The workers already use every CPU between them.
    resample.SEARCH_THREADS = 1
    threading.Thread(target=_exit_with_parent, args=(parent,),
                     daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    """End this worker once the process that started it is gone.

    A pool worker whose parent is killed would otherwise wait on its
    task queue forever: it holds that queue's pipe open itself.
    """
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _run_worker_fold(task: FoldTask) -> tuple[np.ndarray, FoldTrace]:
    return run_fold(_worker_inputs, task)


def _fit_rows(labels: np.ndarray, task: FoldTask) -> int:
    """Rows task's model is fitted on: its training rows and the
    synthetic rows oversampling adds to them."""
    y = labels[task.train_idx]
    minority = int(np.count_nonzero(y))
    return len(y) + synthetic_count(minority, len(y) - minority,
                                    task.smote_config.ratio)


def _run_folds(inputs: CvInputs, tasks: list[FoldTask], workers: int,
               sizes: Sequence[int] = ()
               ) -> list[tuple[np.ndarray, FoldTrace]]:
    """run_fold over tasks, results in task order, on ``workers`` processes.

    Workers are forked, so they inherit ``inputs`` (the encoded cohort)
    instead of unpickling it; only a task's indices and seed go out and
    its scores and trace come back. Tasks are handed out largest
    ``sizes`` first (ties in task order), so the longest fits do not
    start last and leave a worker idle. Results are collected in task
    order: a task's error is raised here, the first in task order, and
    the pool is shut down, its unstarted tasks cancelled, before it
    propagates.
    """
    if workers <= 1:
        return list(map(partial(run_fold, inputs), tasks))
    # Imported here: loading them would add about 2 MB and 20 ms to every
    # CLI command, most of which never start a pool.
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    order = range(len(tasks))
    if sizes:
        order = sorted(order, key=lambda i: -sizes[i])
    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=mp.get_context("fork"),
        initializer=_start_worker,
        initargs=(inputs, os.getpid()),
    )
    try:
        futures = {i: pool.submit(_run_worker_fold, tasks[i]) for i in order}
        return [futures[i].result() for i in range(len(tasks))]
    finally:
        pool.shutdown(cancel_futures=True)


def sweep(
    profiles: Sequence,
    ratios: Sequence[float | str],
    model_kind: str = "gbm",
    k: int = SmoteConfig.k,
    train_config: TrainConfig | None = None,
    n_folds: int = 5,
    seed: int = 0,
    include_income: bool = False,
) -> tuple[list[CvResult], int]:
    """One pooled CV result per oversampling ratio, in the given order,
    and the number of profiles income mode dropped.

    Every ratio uses one fold plan and the same per-fold oversampling
    seeds, derived from ``seed``: a ratio's result depends only on the
    cohort, the ratio, ``seed`` and the options, and differences between
    ratios are paired over the same folds. The cohort is encoded once,
    missing ages left NaN for each fold to impute from its training
    rows. Each (ratio, fold) fit is one run_fold task; GBM tasks run on
    worker_count processes, logistic tasks in this process.
    """
    if not ratios:
        raise ValueError("ratios must be non-empty")
    configs = [SmoteConfig(ratio=ratio, k=k) for ratio in ratios]
    enc = encode(profiles, FeatureSchema(include_income=include_income))
    labels = enc.dataset.labels
    inputs = CvInputs(data=enc.dataset, model_kind=model_kind,
                      train_config=train_config or TrainConfig())
    plan = stratified_folds(labels, n_folds, derive_seed(seed, "folds"))
    splits = [(plan.train_indices(fold), plan.test_indices(fold))
              for fold in range(n_folds)]
    tasks = [FoldTask(fold, train_idx, test_idx,
                      replace(cfg, seed=derive_seed(seed, "smote", fold)))
             for cfg in configs
             for fold, (train_idx, test_idx) in enumerate(splits)]
    workers = worker_count(len(tasks)) if model_kind == "gbm" else 1
    outputs = _run_folds(inputs, tasks, workers,
                         [_fit_rows(labels, task) for task in tasks])

    results = []
    for i, cfg in enumerate(configs):
        runs = outputs[i * n_folds:(i + 1) * n_folds]
        pooled = np.empty(len(labels), dtype=np.float64)
        for (_, test_idx), (scores, _) in zip(splits, runs):
            pooled[test_idx] = scores
        curve = roc_curve(labels, pooled)
        results.append(CvResult(
            ratio=ratio_label(cfg.ratio),
            confusion=confusion(labels, pooled),
            auc=auc(curve),
            curve=curve,
            pooled_scores=pooled,
            labels=labels,
            traces=[trace for _, trace in runs],
        ))
    return results, enc.dropped_missing_income


def cv_evaluate(
    profiles: Sequence,
    model_kind: str,
    smote_config: SmoteConfig,
    train_config: TrainConfig,
    n_folds: int = 5,
    seed: int = 0,
    include_income: bool = False,
) -> CvResult:
    """sweep's result for the one ratio ``smote_config.ratio``, with
    ``smote_config.k`` neighbours; ``smote_config.seed`` is not used."""
    return sweep(profiles, [smote_config.ratio], model_kind, smote_config.k,
                 train_config, n_folds, seed, include_income)[0][0]
