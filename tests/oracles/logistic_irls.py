"""Reference damped-IRLS logistic fitter: two candidate evaluation sites.

The former implementation of readmit.models.fit_logistic, kept to check
the single-loop step halving bit for bit. It evaluates the full Newton
step, then halves and re-evaluates at most 60 times, keeping the last
candidate if none lowers the objective. It fits every column it is
given. Weights, intercept, n_iter and converged must equal
fit_logistic's exactly: as they are on a matrix fit_logistic does not
reference-code, and after the same reduction and centring on one it
does. The objective is looked up as models.logistic_nll_grad at call
time, as fit_logistic does, so a test can replace it for both.
"""

from __future__ import annotations

import numpy as np

from readmit import models
from readmit.features import EncodedDataset
from readmit.models import LogisticModel, TrainConfig

TOL = 1e-8
MAX_ITER = 100


def fit_logistic_irls(data: EncodedDataset,
                      config: TrainConfig) -> LogisticModel:
    ridge = config.logistic.ridge
    x = data.matrix
    y = data.labels.astype(np.float64)
    n, d = x.shape
    x_aug = np.hstack([np.ones((n, 1)), x])
    ridge_diag = np.full(d + 1, ridge)
    ridge_diag[0] = 0.0

    beta = np.zeros(d + 1)
    nll, grad, p = models.logistic_nll_grad(beta, x_aug, y, ridge)
    converged = False
    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        w = np.clip(p * (1.0 - p), 1e-10, None)
        hess = (x_aug * w[:, None]).T @ x_aug
        hess[np.diag_indices_from(hess)] += ridge_diag
        delta = np.linalg.solve(hess, -grad)

        step = 1.0
        cand = beta + delta
        cand_nll, cand_grad, cand_p = models.logistic_nll_grad(
            cand, x_aug, y, ridge)
        for _ in range(60):
            if cand_nll <= nll + 1e-12 * (1.0 + abs(nll)):
                break
            step *= 0.5
            cand = beta + step * delta
            cand_nll, cand_grad, cand_p = models.logistic_nll_grad(
                cand, x_aug, y, ridge)

        change = float(np.max(np.abs(cand - beta)))
        beta, nll, grad, p = cand, cand_nll, cand_grad, cand_p
        if change < TOL:
            converged = True
            break

    return LogisticModel(weights=beta[1:].copy(), intercept=float(beta[0]),
                         converged=converged, n_iter=n_iter)
