"""Calibration diagnostics, k-fold scoring, isotonic recalibration."""

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from copreg.calibration import (
    IsotonicMap,
    kfold_mls,
    kfold_split,
    log_score_se,
    mean_log_score,
    probability_calibration,
    recalibrate_isotonic,
)
from copreg.errors import DomainError
from copreg.margin import fit_kde

P_GRID = np.linspace(0.01, 0.99, 99)


# -- probability calibration ------------------------------------------------------


def test_uniform_forecaster_is_probability_calibrated():
    u = np.random.default_rng(0).uniform(size=10_000)
    p_tilde = probability_calibration(u, P_GRID)
    assert np.max(np.abs(p_tilde - P_GRID)) < 0.02


def test_degenerate_point_mass_forecaster():
    u = np.full(200, 0.5)
    grid = np.array([0.1, 0.5, 0.9])
    np.testing.assert_array_equal(probability_calibration(u, grid),
                                  np.array([0.0, 0.0, 1.0]))


def test_misspecified_scale_forecaster_s_curve():
    # N(0,1) forecaster facing N(0, 4) truth; coverage curve has the closed
    # form Phi(ndtri(p)/2), re-derived here by brute-force simulation
    rng = np.random.default_rng(1)
    y = rng.normal(scale=2.0, size=200_000)
    u = ndtr(y)
    p_tilde = probability_calibration(u, P_GRID)
    closed = ndtr(ndtri(P_GRID) / 2.0)
    brute = np.array([(rng.normal(scale=2.0, size=100_000)
                       < ndtri(p)).mean() for p in P_GRID[::10]])
    assert np.max(np.abs(p_tilde - closed)) < 0.01
    assert np.max(np.abs(brute - closed[::10])) < 0.01
    # S-shape: under-coverage below the median, over-coverage above
    assert np.all(p_tilde[P_GRID < 0.45] > P_GRID[P_GRID < 0.45])
    assert np.all(p_tilde[P_GRID > 0.55] < P_GRID[P_GRID > 0.55])


def test_probability_calibration_output_is_nondecreasing_step():
    u = np.random.default_rng(2).beta(2.0, 5.0, size=500)
    p_tilde = probability_calibration(u, P_GRID)
    assert np.all(np.diff(p_tilde) >= 0.0)


def test_probability_calibration_rejects_bad_values():
    with pytest.raises(DomainError):
        probability_calibration(np.array([0.5, 1.2]))


# -- log scores ----------------------------------------------------------------------


def test_mls_of_exact_forecaster_matches_negative_entropy():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(60_000)
    mls = mean_log_score(norm.pdf(y))
    target = -0.5 * np.log(2.0 * np.pi * np.e)  # about -1.4189
    assert abs(mls - target) < 4.0 * log_score_se(norm.pdf(y)) + 1e-3


def test_margin_forecaster_beats_mislocated_gaussian_on_heavy_tails():
    rng = np.random.default_rng(4)
    y = rng.standard_t(df=3, size=2_000)
    margin = fit_kde(y)
    mls_margin = mean_log_score(margin.pdf(y))
    mls_bad = mean_log_score(norm.pdf(y, loc=5.0, scale=1.0))
    assert mls_margin > mls_bad


def test_zero_density_surfaced_not_clipped():
    with pytest.warns(RuntimeWarning, match="indices"):
        out = mean_log_score(np.array([0.2, 0.0, 0.4]))
    assert out == float("-inf")


# -- k-fold ---------------------------------------------------------------------------


def test_kfold_split_is_partition_and_deterministic():
    parts_a = kfold_split(103, 10, seed=5)
    parts_b = kfold_split(103, 10, seed=5)
    joined = np.sort(np.concatenate(parts_a))
    np.testing.assert_array_equal(joined, np.arange(103))
    for a, b in zip(parts_a, parts_b):
        np.testing.assert_array_equal(a, b)
    assert any(not np.array_equal(a, b)
               for a, b in zip(parts_a, kfold_split(103, 10, seed=6)))


def test_kfold_mls_is_mean_of_fold_means():
    # deterministic stub forecaster: log density -1 on even train sizes,
    # -2 otherwise, so the arithmetic is checkable by hand
    def fit_predict(x_train, y_train):
        val = -1.0 if x_train.shape[0] % 2 == 0 else -2.0
        return lambda x_test, y_test: np.full(y_test.size, val)

    x = np.zeros((40, 2))
    y = np.zeros(40)
    mls, se, folds = kfold_mls(x, y, fit_predict, folds=4, seed=0)
    # train size is 30 (even) for every fold
    assert folds == [-1.0] * 4
    assert mls == -1.0


def test_kfold_requires_two_folds():
    with pytest.raises(DomainError):
        kfold_split(10, 1, seed=0)


def test_kfold_split_refuses_more_folds_than_rows():
    # 100 folds of 60 rows would leave 40 folds empty
    with pytest.raises(DomainError):
        kfold_split(60, 100, seed=0)
    assert [part.size for part in kfold_split(3, 3, seed=0)] == [1, 1, 1]


# -- isotonic recalibration --------------------------------------------------------------


def test_isotonic_map_near_identity_for_calibrated_input():
    u = np.random.default_rng(6).uniform(size=10_000)
    cal = recalibrate_isotonic(u)
    p = np.linspace(0.0, 1.0, 201)
    assert np.max(np.abs(cal(p) - p)) < 0.03


def test_recalibrated_training_forecasts_are_calibrated():
    rng = np.random.default_rng(7)
    # badly mis-scaled forecaster
    u = ndtr(rng.normal(scale=2.0, size=5_000))
    cal = recalibrate_isotonic(u)
    p_tilde = probability_calibration(cal(u), P_GRID)
    assert np.max(np.abs(p_tilde - P_GRID)) < 0.02


def test_recalibration_preserves_forecast_ranks():
    rng = np.random.default_rng(8)
    u = ndtr(rng.normal(scale=1.7, size=800))
    cal = recalibrate_isotonic(u)
    levels = np.sort(rng.uniform(size=50))
    mapped = cal(levels)
    assert np.all(np.diff(mapped) >= 0.0)


def test_recalibrated_cdf_is_still_a_distribution_function():
    rng = np.random.default_rng(9)
    u = ndtr(rng.normal(scale=0.5, size=2_000))
    cal = recalibrate_isotonic(u)
    y = np.linspace(-6.0, 6.0, 400)
    recal_cdf = cal(ndtr(y))
    assert np.all(np.diff(recal_cdf) >= 0.0)
    assert recal_cdf[0] == pytest.approx(0.0, abs=1e-6)
    assert recal_cdf[-1] == pytest.approx(1.0, abs=1e-6)


def test_isotonic_handles_ties_via_pava():
    u = np.array([0.2, 0.2, 0.2, 0.8, 0.8])
    cal = recalibrate_isotonic(u)
    assert np.all(np.diff(cal(np.linspace(0, 1, 50))) >= 0.0)
    assert isinstance(cal, IsotonicMap)


# -- diagnostic independence ---------------------------------------------------------------


def test_marginal_and_probability_calibration_are_independent():
    # anti-correlated forecasts: each observation gets the *wrong* mixture
    # component, so the average forecast still equals the margin (marginal
    # calibration passes) while coverage is badly off (probability fails)
    rng = np.random.default_rng(10)
    n = 20_000
    comp = rng.integers(0, 2, size=n)
    y = rng.normal(loc=np.where(comp == 0, -1.5, 1.5), scale=0.4)

    forecast_loc = np.where(comp == 0, 1.5, -1.5)  # deliberately swapped
    u = ndtr((y - forecast_loc) / 0.4)

    # probability calibration: badly violated
    p_tilde = probability_calibration(u, P_GRID)
    assert np.max(np.abs(p_tilde - P_GRID)) > 0.3

    # marginal calibration: the average forecast CDF matches the data margin
    grid = np.linspace(-4.0, 4.0, 200)
    avg_cdf = 0.5 * (ndtr((grid - 1.5) / 0.4) + ndtr((grid + 1.5) / 0.4))
    emp_cdf = np.searchsorted(np.sort(y), grid, side="right") / n
    assert np.max(np.abs(avg_cdf - emp_cdf)) < 0.02
