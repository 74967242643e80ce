"""Calibration diagnostics, cross-validated log scores, isotonic recalibration.

Two complementary diagnostics: probability calibration (nominal predictive
quantile levels vs empirical coverage of the truth) and marginal calibration
(average predictive distribution vs the response margin).  A forecaster can
pass one and fail the other; both are reported, with the log scores, by
:func:`calibration_report`, the report ``copreg calibrate`` writes.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError
from .files import write_csv, write_json
from .margin import PredictiveKernel
from .predict import (
    GRID_SIZE,
    average_density_cdf,
    margin_grid,
    predict_logpdf_at,
)

#: Default probability grid for the coverage diagnostic.
P_GRID = np.linspace(0.01, 0.99, 99)


def probability_calibration(cdf_at_truth, p_grid=None) -> np.ndarray:
    """Empirical coverage p~_j = (1/n) #{i : u_i < p_j} on the grid."""
    u = np.asarray(cdf_at_truth, dtype=float)
    if np.any((u < 0.0) | (u > 1.0)):
        raise DomainError("CDF values must lie in [0, 1]")
    grid = P_GRID if p_grid is None else np.asarray(p_grid, dtype=float)
    u_sorted = np.sort(u)
    return np.searchsorted(u_sorted, grid, side="left") / u.size


def mean_log_score(density_at_truth) -> float:
    """Mean log predictive density; -inf is surfaced with the offending index."""
    dens = np.asarray(density_at_truth, dtype=float)
    zero = np.flatnonzero(dens <= 0.0)
    if zero.size:
        warnings.warn(
            "zero predictive density at observation indices "
            f"{zero.tolist()[:10]}; mean log score is -inf", RuntimeWarning)
        return float("-inf")
    return float(np.mean(np.log(dens)))


def log_score_se(density_at_truth) -> float:
    return log_score(np.log(np.asarray(density_at_truth, dtype=float)))[1]


def log_score(logpdf_at_truth):
    """``(mean, standard error)`` of log predictive densities at the truths."""
    logs = np.asarray(logpdf_at_truth, dtype=float)
    return float(logs.mean()), float(logs.std(ddof=1) / np.sqrt(logs.size))


def kfold_split(n, folds, seed):
    """Deterministic partition: every index in exactly one fold."""
    if not 2 <= folds <= n:
        raise DomainError(f"need 2 to {n} folds for {n} rows, got {folds}")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def kfold_mls(x, y, fit_predict, folds=10, seed=0):
    """Mean out-of-sample log score over a k-fold partition.

    ``fit_predict(x_train, y_train)`` must return a callable
    ``(x_test, y_test) -> log density values at the test truths`` and be
    deterministic given its inputs (seed anything internal).

    Returns ``(mls, se, fold_means)``: the mean of fold means, a pooled
    per-observation standard error, and the per-fold means.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    parts = kfold_split(y.size, folds, seed)
    fold_means = []
    pooled = []
    for held in parts:
        mask = np.ones(y.size, dtype=bool)
        mask[held] = False
        predict = fit_predict(x[mask], y[mask])
        pooled.append(np.asarray(predict(x[held], y[held]), dtype=float))
        fold_means.append(float(pooled[-1].mean()))
    return (float(np.mean(fold_means)), log_score(np.concatenate(pooled))[1],
            fold_means)


# -- isotonic recalibration ------------------------------------------------------


@dataclass
class IsotonicMap:
    """Monotone map p -> p' fitted to (nominal, empirical) coverage pairs.

    Applying it to predictive CDF values keeps them valid distribution
    functions: the map is nondecreasing with range inside [0, 1] and pinned
    endpoints.
    """

    knots_x: np.ndarray
    knots_y: np.ndarray

    def __call__(self, p):
        return np.clip(np.interp(p, self.knots_x, self.knots_y), 0.0, 1.0)


def recalibrate_isotonic(cdf_at_truth) -> IsotonicMap:
    """Fit the recalibration map from training-forecast CDF values.

    Pairs are (sorted u_i, empirical coverage at u_i), anchored by (0,0) and
    (1,1); the coverage is nondecreasing in u_i, ties included, so it is its
    own isotonic (pool-adjacent-violators) fit.
    """
    u = np.sort(np.asarray(cdf_at_truth, dtype=float))
    if np.any((u < 0.0) | (u > 1.0)):
        raise DomainError("CDF values must lie in [0, 1]")
    emp = np.searchsorted(u, u, side="right") / u.size
    x = np.concatenate([[0.0], u, [1.0]])
    yv = np.concatenate([[0.0], emp, [1.0]])
    keep = np.concatenate([[True], np.diff(x) > 0.0])
    return IsotonicMap(knots_x=x[keep], knots_y=np.clip(yv[keep], 0.0, 1.0))


# -- report ------------------------------------------------------------------------


@dataclass
class CalibrationReport:
    """Diagnostic bundle for one fitted model on one dataset."""

    p_grid: np.ndarray
    p_tilde: np.ndarray
    marginal_grid: np.ndarray
    average_density: np.ndarray
    margin_density: np.ndarray
    average_cdf: np.ndarray
    margin_cdf: np.ndarray
    mls_in_sample: float
    mls_in_sample_se: float
    mls_kfold: float = float("nan")
    mls_kfold_se: float = float("nan")
    fold_scores: list = field(default_factory=list)

    def __post_init__(self):
        if np.any(np.diff(self.p_grid) <= 0.0):
            raise DomainError("probability grid must be strictly increasing")
        if np.any((self.p_tilde < 0.0) | (self.p_tilde > 1.0)) \
                or np.any(np.diff(self.p_tilde) < 0.0):
            raise DomainError("empirical coverage must be nondecreasing in [0,1]")

    @property
    def marginal_distance(self):
        """Sup distance between the average predictive CDF and the margin CDF."""
        return float(np.max(np.abs(self.average_cdf - self.margin_cdf)))

    @property
    def probability_distance(self):
        return float(np.max(np.abs(self.p_tilde - self.p_grid)))

    def save(self, out_dir):
        """Write ``probability_calibration.csv``, ``marginal_calibration.csv``
        and ``scores.json`` into the existing directory ``out_dir``."""
        write_csv(os.path.join(out_dir, "probability_calibration.csv"),
                  ("p", "p_tilde"),
                  np.column_stack([self.p_grid, self.p_tilde]))
        write_csv(os.path.join(out_dir, "marginal_calibration.csv"),
                  ("y", "average_density", "margin_density", "average_cdf",
                   "margin_cdf"),
                  np.column_stack([self.marginal_grid, self.average_density,
                                   self.margin_density, self.average_cdf,
                                   self.margin_cdf]))
        write_json(os.path.join(out_dir, "scores.json"), {
            "mls_in_sample": self.mls_in_sample,
            "mls_in_sample_se": self.mls_in_sample_se,
            "mls_kfold": self.mls_kfold,
            "mls_kfold_se": self.mls_kfold_se,
            "fold_scores": self.fold_scores,
            "marginal_distance": self.marginal_distance,
            "probability_distance": self.probability_distance,
        })


def calibration_report(pm, x, y, grid_size=GRID_SIZE, refit=None, folds=10,
                       seed=0) -> CalibrationReport:
    """Both calibration diagnostics and the log scores of the predictive
    model ``pm`` on the rows (x, y): coverage on :data:`P_GRID`, the average
    predictive against the margin on ``grid_size`` points of
    :func:`~copreg.predict.margin_grid`, and the in-sample mean log score.

    With ``refit``, a callable ``(x_train, y_train) -> PredictiveModel``,
    the report adds the ``folds``-fold log score of :func:`kfold_mls`, its
    folds drawn from ``seed``.
    """
    f, s = pm.location_scale(np.atleast_2d(x))
    at_truth = PredictiveKernel(pm.margin, y)
    p_tilde = probability_calibration(at_truth.cdf(f, s), P_GRID)
    mls_in, mls_in_se = log_score(at_truth.logpdf(f, s))

    on_grid = PredictiveKernel(pm.margin, margin_grid(pm.margin,
                                                      num=grid_size))
    avg_density, avg_cdf = average_density_cdf(on_grid, f, s)

    if refit is None:
        mls_k, mls_k_se, fold_scores = float("nan"), float("nan"), []
    else:
        mls_k, mls_k_se, fold_scores = kfold_mls(
            x, y, lambda x_tr, y_tr: partial(predict_logpdf_at,
                                             refit(x_tr, y_tr)),
            folds=folds, seed=seed)

    return CalibrationReport(
        p_grid=P_GRID, p_tilde=p_tilde, marginal_grid=on_grid.y,
        average_density=avg_density,
        margin_density=np.exp(on_grid.margin_logpdf), average_cdf=avg_cdf,
        margin_cdf=on_grid.margin_cdf,
        mls_in_sample=mls_in, mls_in_sample_se=mls_in_se, mls_kfold=mls_k,
        mls_kfold_se=mls_k_se, fold_scores=fold_scores)
