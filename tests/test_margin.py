"""Margin model: density/CDF consistency, inversion, pseudo-response transform."""

import json

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from copreg.errors import DataError, DegenerateMarginError, DomainError
from copreg.margin import EPS_F, MarginModel, fit_kde, to_pseudo


@pytest.fixture(scope="module")
def normal_margin():
    rng = np.random.default_rng(42)
    y = rng.normal(size=1000)
    return y, fit_kde(y)


def test_pdf_close_to_generating_density(normal_margin):
    # oracle: the analytic density of the generating N(0,1) law
    _, m = normal_margin
    assert abs(m.pdf(0.0) - 1.0 / np.sqrt(2.0 * np.pi)) < 0.05


def test_pdf_integrates_to_one(normal_margin):
    _, m = normal_margin
    lo = m.sample[0] - 10.0 * m.bandwidth
    hi = m.sample[-1] + 10.0 * m.bandwidth
    total, err = quad(lambda t: float(m.pdf(t)), lo, hi, limit=400)
    assert abs(total - 1.0) < 1e-6


def test_cdf_half_at_center_of_symmetric_sample():
    c = 1.7
    base = np.array([0.1, 0.5, 1.1, 2.0, 3.3])
    y = np.concatenate([base, 2 * c - base])
    m = fit_kde(y)
    assert m.cdf(c) == pytest.approx(0.5, abs=1e-14)


def test_quantile_cdf_round_trip(normal_margin):
    _, m = normal_margin
    rng = np.random.default_rng(7)
    ys = rng.uniform(-3, 3, size=100)
    back = m.quantile(m.cdf(ys))
    assert np.max(np.abs(back - ys)) < 1e-8


def test_cdf_left_tail_vanishes(normal_margin):
    _, m = normal_margin
    assert m.cdf(m.sample[0] - 20.0 * m.bandwidth) < 1e-6


def test_quantile_matches_empirical_fraction(normal_margin):
    y, m = normal_margin
    n = y.size
    q25 = m.quantile(0.25)
    frac = np.mean(y < q25)
    assert abs(frac - 0.25) < 3.0 / np.sqrt(n)


def test_quantile_domain_error(normal_margin):
    _, m = normal_margin
    with pytest.raises(DomainError):
        m.quantile(0.0)
    with pytest.raises(DomainError):
        m.quantile(np.array([0.5, 1.0]))


def test_pseudo_response_zero_at_median(normal_margin):
    _, m = normal_margin
    med = m.quantile(0.5)
    assert to_pseudo(m, np.array([med]))[0] == pytest.approx(0.0, abs=1e-7)


def test_pseudo_response_is_standard_normal_under_own_margin(normal_margin):
    # probability-integral-transform oracle: simulate from the fitted mixture
    # itself (uniform kernel pick + Gaussian jitter), then z must be ~N(0,1)
    _, m = normal_margin
    rng = np.random.default_rng(11)
    n = 2000
    centers = rng.choice(m.sample, size=n, replace=True)
    draws = centers + m.bandwidth * rng.standard_normal(n)
    z = to_pseudo(m, draws)
    stat = kstest(z, "norm").statistic
    assert stat < 0.05


def test_pseudo_response_monotone(normal_margin):
    _, m = normal_margin
    ys = np.sort(np.random.default_rng(3).uniform(-4, 4, size=200))
    z = to_pseudo(m, ys)
    assert np.all(np.diff(z) >= 0.0)


def test_pseudo_response_always_finite(normal_margin):
    _, m = normal_margin
    z = to_pseudo(m, np.array([-1e6, 1e6]))
    assert np.all(np.isfinite(z))


def test_cdf_derivative_matches_pdf(normal_margin):
    _, m = normal_margin
    grid = np.linspace(m.quantile(0.001), m.quantile(0.999), 200)
    step = m.bandwidth / 50.0
    deriv = (m.cdf(grid + step) - m.cdf(grid - step)) / (2.0 * step)
    rel = np.abs(deriv - m.pdf(grid)) / np.abs(m.pdf(grid))
    assert np.max(rel) < 1e-3


def test_rank_invariance_under_affine_rescale():
    rng = np.random.default_rng(5)
    y = rng.gamma(2.0, size=300)
    z1 = to_pseudo(fit_kde(y), y)
    y2 = 3.5 * y - 12.0
    z2 = to_pseudo(fit_kde(y2), y2)
    assert np.array_equal(np.argsort(z1), np.argsort(z2))


def test_bandwidth_deterministic():
    rng = np.random.default_rng(9)
    y = rng.normal(size=200)
    assert fit_kde(y).bandwidth == fit_kde(y.copy()).bandwidth


def test_fit_kde_rejects_degenerate_samples():
    with pytest.raises(DegenerateMarginError):
        fit_kde(np.ones(50))
    with pytest.raises(DegenerateMarginError):
        fit_kde(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DomainError):
        fit_kde(np.array([1.0, 2.0, np.nan, 4.0, 5.0]))


def test_margin_json_round_trip(normal_margin):
    _, m = normal_margin
    m2 = MarginModel.from_json(m.to_json())
    assert m2.bandwidth == m.bandwidth
    assert np.array_equal(m2.sample, m.sample)
    ys = np.linspace(-2, 2, 9)
    np.testing.assert_array_equal(m2.cdf(ys), m.cdf(ys))


def test_degenerate_samples_are_data_errors():
    assert issubclass(DegenerateMarginError, DataError)


def test_margin_json_holds_the_one_clamp_width(normal_margin):
    _, m = normal_margin
    doc = json.loads(m.to_json())
    assert doc["eps_f"] == EPS_F == 1e-6
    doc["eps_f"] = 1e-3
    with pytest.raises(DomainError, match="eps_f"):
        MarginModel.from_json(json.dumps(doc))


def test_margin_grid_csv(tmp_path, normal_margin):
    _, m = normal_margin
    path = tmp_path / "margin_grid.csv"
    m.grid_csv(path, num=64)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (64, 3)
    assert np.all(np.diff(rows[:, 2]) >= 0)


def test_quantile_terminates_at_large_response_scale():
    # near 2e6 the float spacing exceeds the 1e-10 bisection width
    rng = np.random.default_rng(0)
    y = 2e6 + 3e5 * rng.normal(size=200)
    med = fit_kde(y).quantile(0.5)
    assert np.isfinite(med)
    assert y.min() < med < y.max()
