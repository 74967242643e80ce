"""Predictive distributions: normalization, inversion, sampling, averaging."""

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import kstest

from copreg.copula import ShrinkageState
from copreg.errors import DomainError
from copreg.margin import PredictiveKernel, fit_kde
from copreg.nnet import Dense, Network
from copreg.predict import (
    GRID_SIZE,
    ROW_CHUNK,
    PredictiveModel,
    TransformCurve,
    _row_block,
    average_predictive_cdf,
    average_predictive_density,
    default_grid,
    export_density_csv,
    margin_grid,
    predict_cdf,
    predict_cdf_at,
    predict_density,
    predict_quantile,
    predictive_expectation,
    sample_predictive,
)


class IdentityBasis:
    """Stub basis provider: the features are the basis functions."""

    def extract_basis(self, x):
        return np.asarray(x, dtype=float)


class ZeroBasis:
    def extract_basis(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        return out[0] if np.asarray(x).ndim == 1 else out


@pytest.fixture(scope="module")
def gamma_margin():
    rng = np.random.default_rng(50)
    return fit_kde(rng.gamma(2.0, 1.5, size=400))


def make_random_pm(rng, margin, q=3, n_draws=40):
    thetas = []
    for _ in range(n_draws):
        if rng.random() < 0.5:
            thetas.append(ShrinkageState(
                "horseshoe", lam=rng.uniform(0.2, 1.5, q),
                tau=rng.uniform(0.3, 1.2), nu=np.ones(q), xi=1.0))
        else:
            thetas.append(ShrinkageState("ridge", tau2=rng.uniform(0.2, 2.0)))
    mean_var = np.vstack([t.prior_variance_diag(q) for t in thetas]).mean(0)
    beta = rng.normal(size=q) * np.sqrt(mean_var)
    return PredictiveModel(margin=margin, network=IdentityBasis(),
                           beta_mean=beta, theta_draws=thetas)


def neutral_pm(margin, q=3):
    """beta_hat = 0 and every scaling factor exactly 1."""
    thetas = [ShrinkageState("ridge", tau2=1.0) for _ in range(5)]
    return PredictiveModel(margin=margin, network=ZeroBasis(),
                           beta_mean=np.zeros(q), theta_draws=thetas)


def test_neutral_model_density_equals_margin(gamma_margin):
    pm = neutral_pm(gamma_margin)
    grid = margin_grid(gamma_margin, num=256)
    dens = predict_density(pm, np.zeros(3), grid)
    np.testing.assert_allclose(dens, gamma_margin.pdf(grid), rtol=1e-10)


def test_neutral_model_quantiles_equal_margin(gamma_margin):
    pm = neutral_pm(gamma_margin)
    for p in (0.05, 0.25, 0.5, 0.9):
        assert predict_quantile(pm, np.zeros(3), p) == pytest.approx(
            gamma_margin.quantile(p), abs=1e-8)


def test_random_models_normalize_on_default_grid(gamma_margin):
    rng = np.random.default_rng(51)
    for _ in range(25):
        pm = make_random_pm(rng, gamma_margin)
        x0 = rng.normal(size=3)
        grid = default_grid(pm, x0)
        total = np.trapezoid(predict_density(pm, x0, grid), grid)
        assert abs(total - 1.0) < 1e-3


def test_density_nonnegative_everywhere(gamma_margin):
    rng = np.random.default_rng(52)
    pm = make_random_pm(rng, gamma_margin)
    grid = np.linspace(-30.0, 60.0, 512)  # far beyond the data range
    dens = predict_density(pm, rng.normal(size=3), grid)
    assert np.all(dens >= 0.0)
    assert np.all(np.isfinite(dens))


def test_transform_sampling_matches_cdf(gamma_margin):
    rng = np.random.default_rng(53)
    pm = make_random_pm(rng, gamma_margin)
    x0 = np.array([0.4, -0.2, 0.9])
    draws = sample_predictive(pm, x0, 100_000, np.random.default_rng(7))
    stat = kstest(draws, lambda y: predict_cdf(pm, x0, y)).statistic
    assert stat < 0.02


def test_cdf_quantile_round_trip(gamma_margin):
    rng = np.random.default_rng(54)
    pm = make_random_pm(rng, gamma_margin)
    x0 = rng.normal(size=3)
    y = predict_quantile(pm, x0, 0.37)
    assert predict_cdf(pm, x0, y) == pytest.approx(0.37, abs=1e-8)


def test_quantile_domain_error(gamma_margin):
    pm = neutral_pm(gamma_margin)
    with pytest.raises(DomainError):
        predict_quantile(pm, np.zeros(3), 1.0)


def test_cdf_derivative_matches_density(gamma_margin):
    rng = np.random.default_rng(55)
    pm = make_random_pm(rng, gamma_margin)
    x0 = rng.normal(size=3)
    grid = np.linspace(predict_quantile(pm, x0, 0.01),
                       predict_quantile(pm, x0, 0.99), 200)
    step = 1e-5 * (grid[-1] - grid[0])
    deriv = (predict_cdf(pm, x0, grid + step)
             - predict_cdf(pm, x0, grid - step)) / (2.0 * step)
    dens = predict_density(pm, x0, grid)
    rel = np.abs(deriv - dens) / np.abs(dens)
    assert np.max(rel) < 1e-3


def test_quantile_strictly_increasing(gamma_margin):
    rng = np.random.default_rng(56)
    pm = make_random_pm(rng, gamma_margin)
    x0 = rng.normal(size=3)
    ps = np.linspace(0.01, 0.99, 99)
    qs = predict_quantile(pm, x0, ps)
    assert np.all(np.diff(qs) > 0.0)


def test_quantile_commutes_with_margin_map(gamma_margin):
    # monotone-transform equivariance, recomposed from margin primitives
    from scipy.special import ndtr, ndtri
    rng = np.random.default_rng(57)
    pm = make_random_pm(rng, gamma_margin)
    x0 = rng.normal(size=3)
    f_hat, s_hat = pm.location_scale(x0)
    for p in (0.1, 0.5, 0.93):
        direct = predict_quantile(pm, x0, p)
        recomposed = gamma_margin.quantile(
            float(ndtr(s_hat * f_hat + s_hat * ndtri(p))))
        assert direct == pytest.approx(recomposed, abs=1e-10)


def test_prediction_depends_on_x_only_through_basis(gamma_margin):
    # a relu unit that never sees the second feature
    net = Network([Dense(np.array([[1.0, 0.0]]), activation="relu"),
                   Dense(np.array([[0.8]]), activation="linear")], (2,))
    thetas = [ShrinkageState("ridge", tau2=0.7) for _ in range(4)]
    pm = PredictiveModel(margin=gamma_margin, network=net,
                         beta_mean=np.array([0.5]), theta_draws=thetas)
    xa = np.array([1.3, 5.0])
    xb = np.array([1.3, -7.0])
    grid = margin_grid(gamma_margin, num=64)
    np.testing.assert_array_equal(predict_density(pm, xa, grid),
                                  predict_density(pm, xb, grid))


def test_average_predictive_density_single_and_collapse(gamma_margin):
    rng = np.random.default_rng(58)
    pm = make_random_pm(rng, gamma_margin)
    grid = margin_grid(gamma_margin, num=128)
    x = rng.normal(size=(1, 3))
    np.testing.assert_allclose(average_predictive_density(pm, x, grid),
                               predict_density(pm, x[0], grid), rtol=1e-12)
    neutral = neutral_pm(gamma_margin)
    xs = rng.normal(size=(20, 3))
    np.testing.assert_allclose(
        average_predictive_density(neutral, xs, grid),
        gamma_margin.pdf(grid), rtol=1e-10)


def test_export_density_csv(tmp_path, gamma_margin):
    rng = np.random.default_rng(59)
    pm = make_random_pm(rng, gamma_margin)
    paths = export_density_csv(pm, rng.normal(size=(3, 3)), tmp_path, num=64)
    assert len(paths) == 3
    rows = np.loadtxt(paths[1], delimiter=",", skiprows=1)
    assert rows.shape == (64, 3)
    assert np.all(np.diff(rows[:, 2]) >= 0.0)


def test_predictive_expectation_matches_grid_integral(gamma_margin):
    rng = np.random.default_rng(60)
    pm = make_random_pm(rng, gamma_margin)
    xs = rng.normal(size=(4, 3))
    fast = predictive_expectation(pm, xs)
    for i in range(4):
        grid = default_grid(pm, xs[i], num=2048, tail=1e-6)
        dens = predict_density(pm, xs[i], grid)
        direct = np.trapezoid(grid * dens, grid) / np.trapezoid(dens, grid)
        assert fast[i] == pytest.approx(direct, rel=5e-3)


def fine_mean(pm, x0):
    """Posterior mean by trapezoid quadrature of predict_density, on a grid of
    step h / 64 over the margin plus the images of 4001 pseudo-responses
    spanning +-12 predictive sd, so a law narrower than a kernel resolves."""
    margin, h = pm.margin, pm.margin.bandwidth
    f_hat, s_hat = pm.location_scale(x0)
    lo, hi = margin.sample[0] - 12.0 * h, margin.sample[-1] + 12.0 * h
    z = s_hat * f_hat + s_hat * np.linspace(-12.0, 12.0, 4001)
    nodes = np.union1d(np.linspace(lo, hi, int(64.0 * (hi - lo) / h) + 1),
                       margin.quantile(np.clip(ndtr(z), 1e-12, 1.0 - 1e-12)))
    dens = predict_density(pm, x0, nodes)
    return np.trapezoid(nodes * dens, nodes) / np.trapezoid(dens, nodes)


def test_predictive_expectation_on_staircase_margin_matches_quadrature():
    # Log integer data: the margin is a staircase of kernels far narrower
    # than the steps between them, and at s = 0.007 the predictive law is
    # narrower than one kernel.
    rng = np.random.default_rng(61)
    counts = np.maximum(np.rint(np.exp(rng.normal(np.log(12.0), 0.25, 18))),
                        1.0)
    margin = fit_kde(np.log(counts))
    x0 = np.ones(1)
    for s in (0.007, 0.03, 0.2, 0.72):
        for z_mean in (-1.5, 0.3, 1.2):
            # one basis function equal to 1: f = beta and s = 1/sqrt(1 + tau2)
            pm = PredictiveModel(
                margin=margin, network=IdentityBasis(),
                beta_mean=np.array([z_mean / s]),
                theta_draws=[ShrinkageState("ridge", tau2=s ** -2 - 1.0)])
            assert pm.location_scale(x0)[1] == pytest.approx(s, rel=1e-12)
            fast = predictive_expectation(pm, x0[None, :])[0]
            assert abs(fast - fine_mean(pm, x0)) < 1e-6, (s, z_mean)


def test_cdf_only_kernel_is_bit_identical_to_full_kernel(gamma_margin):
    rng = np.random.default_rng(62)
    y = np.concatenate([rng.uniform(-5.0, 30.0, 300),
                        [gamma_margin.sample[0], np.inf, -np.inf]])
    full = PredictiveKernel(gamma_margin, y)
    lean = PredictiveKernel.cdf_only(gamma_margin, y)
    np.testing.assert_array_equal(lean.z, full.z)
    paired = (rng.normal(size=y.size), rng.uniform(0.1, 1.0, y.size))
    for f, s in ((0.3, 0.8), paired):
        np.testing.assert_array_equal(lean.cdf(f, s), full.cdf(f, s))

    pm = make_random_pm(rng, gamma_margin)
    x = rng.normal(size=(40, 3))
    y_obs = rng.gamma(2.0, 1.5, size=40)
    f_all, s_all = pm.location_scale(x)
    np.testing.assert_array_equal(
        predict_cdf_at(pm, x, y_obs),
        PredictiveKernel(gamma_margin, y_obs).cdf(f_all, s_all))
    grid = margin_grid(gamma_margin, num=64)
    full_grid = PredictiveKernel(gamma_margin, grid)
    expect = full_grid.cdf(f_all[:, None], s_all[:, None]).sum(axis=0) / 40
    np.testing.assert_array_equal(average_predictive_cdf(pm, x, grid), expect)


def test_sample_predictive_builds_one_transform_curve_per_model(
        gamma_margin, monkeypatch):
    import copreg.predict as predict

    rng = np.random.default_rng(63)
    pm = make_random_pm(rng, gamma_margin)
    x0 = rng.normal(size=3)
    fresh = TransformCurve(gamma_margin)
    builds = []

    class CountingCurve(TransformCurve):
        def __init__(self, margin):
            builds.append(1)
            super().__init__(margin)

    monkeypatch.setattr(predict, "TransformCurve", CountingCurve)
    for seed in range(3):
        draws = sample_predictive(pm, x0, 10, np.random.default_rng(seed))
        f_hat, s_hat = pm.location_scale(x0)
        normal = np.random.default_rng(seed).standard_normal(10)
        z0 = s_hat * f_hat + s_hat * normal
        np.testing.assert_array_equal(draws, fresh.lookup(z0))
    assert len(builds) == 1


def test_row_blocks_shrink_only_beyond_the_default_grid():
    # grids up to GRID_SIZE points keep ROW_CHUNK rows, so their sums stay
    # bit for bit; a finer grid takes fewer rows, down to one
    assert _row_block(1) == _row_block(GRID_SIZE) == ROW_CHUNK
    assert _row_block(4 * GRID_SIZE) == ROW_CHUNK // 4
    assert _row_block(200_000) == 1
