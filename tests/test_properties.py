"""Property tests of the predictive kernel and the margin, over random models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from copreg.copula import ShrinkageState
from copreg.margin import fit_kde
from copreg.predict import (
    PredictiveModel,
    average_predictive_cdf,
    average_predictive_density,
    margin_grid,
    predict_cdf,
    predict_cdf_at,
    predict_density,
    predict_density_at,
)

SEEDS = st.integers(0, 2**32 - 1)


class IdentityBasis:
    def extract_basis(self, x):
        return np.asarray(x, dtype=float)


def random_model(seed, q=3):
    """A skewed margin and a mixed horseshoe/ridge posterior, from one seed."""
    rng = np.random.default_rng(seed)
    margin = fit_kde(rng.gamma(rng.uniform(0.5, 4.0), rng.uniform(0.1, 10.0),
                               size=int(rng.integers(20, 150))))
    thetas = []
    for _ in range(int(rng.integers(1, 30))):
        if rng.random() < 0.5:
            thetas.append(ShrinkageState(
                "horseshoe", lam=rng.uniform(0.05, 3.0, q),
                tau=rng.uniform(0.1, 2.0), nu=np.ones(q), xi=1.0))
        else:
            thetas.append(ShrinkageState("ridge", tau2=rng.uniform(0.01, 5.0)))
    pm = PredictiveModel(margin=margin, network=IdentityBasis(),
                         beta_mean=rng.normal(scale=2.0, size=q),
                         theta_draws=thetas)
    return pm, rng


def wide_grid(margin, num):
    """Sorted points from far below to far above the sample."""
    span = margin.sample[-1] - margin.sample[0] + 20.0 * margin.bandwidth
    return np.linspace(margin.sample[0] - span, margin.sample[-1] + span, num)


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_predictive_cdf_is_a_distribution_function(seed):
    pm, rng = random_model(seed)
    y = wide_grid(pm.margin, 400)
    cdf = predict_cdf(pm, rng.normal(scale=3.0, size=3), y)
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))
    assert np.all(np.diff(cdf) >= 0.0)


@settings(max_examples=30, deadline=None)
@given(SEEDS, st.integers(1, 40))
def test_paired_batch_matches_per_row_laws(seed, rows):
    pm, rng = random_model(seed)
    x = rng.normal(scale=2.0, size=(rows, 3))
    y = rng.choice(wide_grid(pm.margin, 200), size=rows)
    dens = [predict_density(pm, x[i], y[i]) for i in range(rows)]
    cdf = [predict_cdf(pm, x[i], y[i]) for i in range(rows)]
    np.testing.assert_allclose(predict_density_at(pm, x, y), dens,
                               rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(predict_cdf_at(pm, x, y), cdf,
                               rtol=1e-12, atol=1e-300)


@settings(max_examples=10, deadline=None)
@given(SEEDS, st.integers(1, 1100))
def test_row_averages_match_mean_of_per_row_laws(seed, rows):
    # up to 1100 rows, so averages span several row chunks
    pm, rng = random_model(seed)
    x = rng.normal(scale=2.0, size=(rows, 3))
    grid = margin_grid(pm.margin, num=24)
    cdfs = np.array([predict_cdf(pm, row, grid) for row in x])
    dens = np.array([predict_density(pm, row, grid) for row in x])
    np.testing.assert_allclose(average_predictive_cdf(pm, x, grid),
                               cdfs.mean(axis=0), rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(average_predictive_density(pm, x, grid),
                               dens.mean(axis=0), rtol=1e-12, atol=1e-300)


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.floats(-1e7, 1e7), st.floats(-2.0, 6.0),
       st.integers(20, 120), st.floats(-1.0, 1.0))
def test_margin_quantile_inverts_cdf_at_any_scale(seed, loc, log_scale, n,
                                                  offset):
    rng = np.random.default_rng(seed)
    sample = loc + 10.0 ** log_scale * rng.standard_normal(n)
    margin = fit_kde(sample)
    # within a bandwidth of a data point the density is bounded below,
    # so the inversion is well conditioned
    y = margin.sample[rng.integers(n)] + offset * margin.bandwidth
    back = margin.quantile(margin.cdf(y))
    tol = 1e-10 + 4.0 * np.spacing(abs(y)) + 1e-9 * margin.bandwidth
    assert abs(back - y) <= tol
