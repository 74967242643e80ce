"""Property tests of the predictive kernel, the margin, recalibration and
bundles, over random models."""

import tempfile
import tracemalloc

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, ndtr

from copreg.calibration import recalibrate_isotonic
from copreg import margin as margin_module
from copreg.copula import ShrinkageState
from copreg.lfi import LfiFitConfig, SimBatch, default_voles_prior, lfi_fit
from copreg.margin import (
    BANDWIDTH_GRID_SIZE,
    MarginModel,
    PredictiveKernel,
    fit_kde,
)
from copreg.pipeline import CopulaRegression
from copreg.predict import (
    PredictiveModel,
    average_predictive_cdf,
    average_predictive_density,
    margin_grid,
    predict_cdf,
    predict_cdf_at,
    predict_density,
    predict_density_at,
    predictive_expectation,
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


# -- the margin against the all-pairs and dense (queries x sample) oracles ------

KINDS = st.sampled_from(["normal", "lognormal", "student2", "integers",
                         "rounded", "clusters"])


def margin_sample(kind, seed, n):
    """Samples with ties (integers, rounded) and heavy tails (student2)."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.uniform(-50, 50) + rng.uniform(0.1, 10) * rng.normal(size=n)
    if kind == "lognormal":
        return np.exp(rng.normal(0.0, rng.uniform(0.3, 1.5), size=n))
    if kind == "student2":
        return rng.standard_t(2, size=n)
    if kind == "integers":  # like the blowfly delay
        return rng.integers(2, int(rng.integers(4, 60)), size=n).astype(float)
    if kind == "rounded":
        return np.round(3.0 * rng.normal(size=n), 1)
    far = rng.uniform(5.0, 500.0)
    return np.concatenate([rng.normal(size=n - n // 3 - 1),
                           far + 0.01 * rng.normal(size=n // 3), [-far]])


def oracle_bandwidth(y):
    """The grid-searched LSCV bandwidth summed over all n(n-1)/2 pairs."""
    n = y.size
    sd = np.std(y, ddof=1)
    grid = np.exp(np.linspace(np.log(sd / (10.0 * n)), np.log(10.0 * sd),
                              BANDWIDTH_GRID_SIZE))
    i, j = np.triu_indices(n, k=1)
    q = (y[i] - y[j]) ** 2
    costs = []
    for h in grid:
        e = np.exp(q * (-0.5 / (h * h)))
        quad = (2.0 * np.sqrt(e).sum() + n) / (2.0 * np.sqrt(np.pi) * h * n * n)
        fit = 2.0 * e.sum() / (np.sqrt(2.0 * np.pi) * h * n * (n - 1))
        costs.append(quad - 2.0 * fit)
    return float(grid[int(np.argmin(costs))])


def dense_margin(margin, y):
    """CDF, density and log density summed over every (query, sample) term."""
    t = (y[:, None] - margin.sample) / margin.bandwidth
    log_norm = np.log(margin.sample.size * margin.bandwidth * np.sqrt(2 * np.pi))
    logpdf = logsumexp(-0.5 * t * t, axis=1) - log_norm
    return ndtr(t).mean(axis=1), np.exp(-0.5 * t * t).sum(axis=1) / np.exp(log_norm), logpdf


@settings(max_examples=60)
@given(KINDS, SEEDS, st.integers(5, 400))
def test_bandwidth_matches_all_pairs_oracle(kind, seed, n):
    y = margin_sample(kind, seed, n)
    assume(np.std(y) > 0)
    assert fit_kde(y).bandwidth == oracle_bandwidth(y)


@settings(max_examples=6)
@given(KINDS, SEEDS, st.integers(600, 1600))
def test_binned_bandwidth_matches_all_pairs_oracle(kind, seed, n):
    # enough distinct values that the larger bandwidths are binned
    y = margin_sample(kind, seed, n)
    assume(np.std(y) > 0)
    assert fit_kde(y).bandwidth == oracle_bandwidth(y)


def assert_close_where_normal(got, want, rtol):
    """Relative agreement where the oracle is a normal float, else both tiny.

    Sums of subnormal terms carry no relative precision, so below 1e-280 the
    oracle only bounds the value.
    """
    normal = want > 1e-280
    np.testing.assert_allclose(got[normal], want[normal], rtol=rtol, atol=0)
    assert np.all((got[~normal] >= 0) & (got[~normal] <= 1e-279))


@settings(max_examples=60)
@given(KINDS, SEEDS, st.integers(5, 300), st.floats(0.05, 5.0))
def test_windowed_evaluation_matches_dense_sums(kind, seed, n, widen):
    y = margin_sample(kind, seed, n)
    assume(np.std(y) > 0)
    h = widen * fit_kde(y).bandwidth
    margin = MarginModel(np.sort(y), h)
    rng = np.random.default_rng(seed)
    span = y.max() - y.min() + 60.0 * h
    queries = np.concatenate([
        rng.choice(y, 40) + h * rng.normal(scale=3.0, size=40),
        np.linspace(y.min() - span, y.max() + span, 80),
        [-1e6, 1e6, y.min() - 40.0 * h, y.max() + 40.0 * h]])
    cdf, pdf, logpdf = dense_margin(margin, queries)
    got_cdf, got_logpdf = margin.cdf_logpdf(queries)
    np.testing.assert_array_equal(got_cdf, margin.cdf(queries))
    np.testing.assert_array_equal(got_logpdf, margin.logpdf(queries))
    assert_close_where_normal(got_cdf, cdf, 1e-12)
    assert_close_where_normal(margin.pdf(queries), pdf, 1e-12)
    # at +-1e6 the log density is near -1e13, where float spacing is ~1e-3
    np.testing.assert_allclose(got_logpdf, logpdf, rtol=1e-13, atol=1e-10)


@settings(max_examples=60)
@given(KINDS, SEEDS, st.integers(5, 300), st.floats(-1.0, 1.0))
def test_quantile_recovers_points_from_their_cdf(kind, seed, n, offset):
    y = margin_sample(kind, seed, n)
    assume(np.std(y) > 0)
    margin = fit_kde(y)
    # within a bandwidth of a data point the density is bounded below
    points = margin.sample[np.random.default_rng(seed).integers(n, size=20)]
    points = points + offset * margin.bandwidth
    back = margin.quantile(margin.cdf(points))
    np.testing.assert_allclose(back, points, rtol=0, atol=1e-8)


def test_margin_at_paper_scale_fits_in_memory():
    # n = 20000: the all-pairs search held ~8 GB, the dense log density 3 GB
    rng = np.random.default_rng(20_000)
    y = 1.0 + np.exp(rng.normal(0.0, 0.9, size=20_000))
    tracemalloc.start()
    try:
        margin = fit_kde(y)
        logpdf = PredictiveKernel(margin, y).logpdf(0.3, 1.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(logpdf))
    assert peak < 64 * 2**20


def mixed_queries(y, h, rng):
    """Queries in dense and sparse windows, in the tails, at +-1e6 and
    non-finite."""
    span = y.max() - y.min() + 60.0 * h
    return np.concatenate([
        rng.choice(y, 60) + h * rng.uniform(-1.0, 1.0, size=60),
        rng.choice(y, 30) + h * rng.normal(scale=3.0, size=30),
        np.linspace(y.min() - span, y.max() + span, 60),
        [-1e6, 1e6, y.min() - 40.0 * h, y.max() + 40.0 * h,
         -np.inf, np.inf, np.nan]])


@settings(max_examples=20, deadline=None)
@given(KINDS, SEEDS, st.integers(1000, 4000), st.floats(0.05, 5.0))
def test_expansion_matches_dense_sums_at_large_n(kind, seed, n, widen):
    y = margin_sample(kind, seed, n)
    assume(np.std(y) > 0)
    h = widen * fit_kde(y).bandwidth
    margin = MarginModel(np.sort(y), h)
    queries = mixed_queries(y, h, np.random.default_rng(seed))
    got_cdf, got_logpdf = margin.cdf_logpdf(queries)
    np.testing.assert_array_equal(got_cdf, margin.cdf(queries))
    np.testing.assert_array_equal(got_logpdf, margin.logpdf(queries))
    odd = ~np.isfinite(queries)
    np.testing.assert_array_equal(got_cdf[odd], [0.0, 1.0, np.nan])
    np.testing.assert_array_equal(got_logpdf[odd], [-np.inf, -np.inf, np.nan])
    cdf, pdf, logpdf = dense_margin(margin, queries[~odd])
    assert_close_where_normal(got_cdf[~odd], cdf, 1e-12)
    assert_close_where_normal(margin.pdf(queries[~odd]), pdf, 1e-12)
    np.testing.assert_allclose(got_logpdf[~odd], logpdf, rtol=1e-13,
                               atol=1e-10)


def test_dense_windows_take_the_expansion(monkeypatch):
    rng = np.random.default_rng(7)
    y = rng.normal(size=3000)
    margin = fit_kde(y)
    rows = []
    expand = margin_module._expansion_sums

    def spy(clusters, h, q, lo, hi, t_near, idx, *sums):
        rows.append(idx.size)
        return expand(clusters, h, q, lo, hi, t_near, idx, *sums)

    monkeypatch.setattr(margin_module, "_expansion_sums", spy)
    queries = mixed_queries(y, margin.bandwidth, rng)
    got_cdf, got_logpdf = margin.cdf_logpdf(queries)
    # the 60 queries within a bandwidth of a point of the bulk, at least
    assert len(rows) == 1 and 60 <= rows[0] < queries.size
    finite = np.isfinite(queries)
    cdf, _, logpdf = dense_margin(margin, queries[finite])
    assert_close_where_normal(got_cdf[finite], cdf, 1e-12)
    np.testing.assert_allclose(got_logpdf[finite], logpdf, rtol=1e-13,
                               atol=1e-10)


@settings(max_examples=10, deadline=None)
@given(KINDS, SEEDS)
def test_each_query_evaluates_alike_alone_or_in_a_batch(kind, seed):
    y = margin_sample(kind, seed, 2000)
    assume(np.std(y) > 0)
    margin = fit_kde(y)
    queries = mixed_queries(y, margin.bandwidth, np.random.default_rng(seed))
    cdf, logpdf = margin.cdf_logpdf(queries)
    kernel = PredictiveKernel.cdf_only(margin, queries)
    np.testing.assert_array_equal(kernel.margin_cdf, cdf)
    for i in range(queries.size):
        one_cdf, one_logpdf = margin.cdf_logpdf(queries[i:i + 1])
        assert one_cdf.tobytes() == cdf[i:i + 1].tobytes()
        assert one_logpdf.tobytes() == logpdf[i:i + 1].tobytes()
        assert np.float64(margin.cdf(queries[i])).tobytes() == cdf[i].tobytes()


def test_far_outlier_keeps_the_clusters_small():
    # range / h = 1e7: one cluster per bandwidth-wide bin would need 1.7 GB
    rng = np.random.default_rng(3)
    y = np.append(rng.normal(size=4999), 1e6)
    margin = MarginModel(np.sort(y), 0.1)
    tracemalloc.start()
    try:
        cdf, logpdf = margin.cdf_logpdf(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert margin._clusters()[0].size < 200
    assert np.all(np.isfinite(logpdf)) and cdf[y.argmax()] > 0.5
    assert peak < 16 * 2**20


# -- isotonic recalibration and bundles -------------------------------------------


def pava(y):
    """Pool-adjacent-violators oracle: the nondecreasing least-squares fit."""
    blocks = []
    for value in y:
        blocks.append([float(value), 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            (a, na), (b, nb) = blocks[-2:]
            blocks[-2:] = [[(a * na + b * nb) / (na + nb), na + nb]]
    return np.repeat([b[0] for b in blocks], [b[1] for b in blocks])


@settings(max_examples=100)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=120),
       st.integers(1, 6))
def test_isotonic_map_is_monotone_with_pinned_endpoints(values, digits):
    u = np.round(values, digits)  # coarse rounding makes ties
    cal = recalibrate_isotonic(u)
    np.testing.assert_array_equal(pava(cal.knots_y), cal.knots_y)
    p = np.linspace(0.0, 1.0, 257)
    out = cal(p)
    assert out[0] == 0.0 and out[-1] == 1.0
    assert np.all(np.diff(out) >= 0.0)
    assert np.all((out >= 0.0) & (out <= 1.0))


TINY_LFI = LfiFitConfig(kernel_sizes=(5, 3), filter_counts=(3, 2),
                        dense_width=6, epochs=2, batch_size=32,
                        variant="ridge", burnin=10, draws=10)


@settings(max_examples=5)
@given(SEEDS)
def test_lfi_bundle_round_trip_keeps_axis_and_predictions(seed):
    rng = np.random.default_rng(seed)
    prior = default_voles_prior()
    params = prior.sample_matrix(rng, 40)
    series = rng.poisson(20.0 * params[:, [1]] + 5.0, size=(40, 16))
    batch = SimBatch(params, series, tuple(prior.names), prior=prior)
    j = int(rng.integers(prior.dim))
    fit = lfi_fit(batch, j, config=TINY_LFI, seed=seed % 1000,
                  return_bundle=True)
    with tempfile.TemporaryDirectory() as out:
        fit.save(out)
        back = CopulaRegression.load(out)
    assert back.meta["axis"] == prior.params[j].axis
    assert {key: back.meta[key] for key in fit.meta} == fit.meta
    pm, pm_back = fit.predictive, back.predictive
    x = series[:6].astype(float)
    grid = margin_grid(pm.margin, num=64)
    np.testing.assert_array_equal(predict_density(pm_back, x[0], grid),
                                  predict_density(pm, x[0], grid))
    np.testing.assert_array_equal(predict_cdf(pm_back, x[0], grid),
                                  predict_cdf(pm, x[0], grid))
    np.testing.assert_array_equal(predictive_expectation(pm_back, x),
                                  predictive_expectation(pm, x))


@settings(max_examples=60)
@given(KINDS, SEEDS, st.integers(5, 300), st.floats(-60.0, 60.0))
def test_kernel_keeps_the_margin_values_of_its_one_pass(kind, seed, n, far):
    # reports read margin_cdf and exp(margin_logpdf) in place of
    # margin.cdf(y) and margin.pdf(y): the same bits, in the tails, far
    # outside the sample and at non-finite points too
    y = margin_sample(kind, seed, n)
    assume(np.std(y) > 0)
    margin = fit_kde(y)
    h = margin.bandwidth
    rng = np.random.default_rng(seed)
    span = y.max() - y.min()
    points = np.concatenate([
        rng.choice(y, 30) + h * rng.normal(scale=5.0, size=30),
        [y.min() + far * h, y.max() + far * h, y.min() - abs(far) * span,
         y.max() + abs(far) * span, -1e6, 1e6, -np.inf, np.inf]])
    full = PredictiveKernel(margin, points)
    np.testing.assert_array_equal(full.margin_cdf, margin.cdf(points))
    np.testing.assert_array_equal(full.margin_logpdf, margin.logpdf(points))
    np.testing.assert_array_equal(np.exp(full.margin_logpdf),
                                  margin.pdf(points))
    lean = PredictiveKernel.cdf_only(margin, points)
    np.testing.assert_array_equal(lean.margin_cdf, margin.cdf(points))
    assert lean.margin_logpdf is None
