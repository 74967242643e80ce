"""Copula core: scaling, dense oracles, likelihood identity, Gibbs sampler."""

import time

import numpy as np
import pytest

from scipy.special import ndtr, ndtri

from copreg.copula import (
    RIDGE_RATE,
    PosteriorDraws,
    ShrinkageState,
    cond_loglik,
    copula_logdensity,
    corr_matrix,
    run_mcmc,
    run_mcmc_pseudo,
    sample_beta,
    sample_theta,
    scaling,
    scaling_rows,
)
from copreg.errors import DomainError, NumericalError, ShapeError
from copreg.margin import fit_kde, to_pseudo

_LOG_2PI = np.log(2.0 * np.pi)


def random_state(rng, variant, q):
    if variant == "horseshoe":
        return ShrinkageState("horseshoe", lam=rng.uniform(0.2, 2.0, q),
                              tau=rng.uniform(0.3, 1.5),
                              nu=rng.uniform(0.5, 2.0, q),
                              xi=rng.uniform(0.5, 2.0))
    return ShrinkageState("ridge", tau2=rng.uniform(0.2, 3.0))


# -- scaling ------------------------------------------------------------------


def test_scaling_zero_basis_vector_gives_one():
    st = ShrinkageState("ridge", tau2=2.0)
    assert scaling(np.zeros(6), st) == 1.0


def test_scaling_unit_vector_ridge_closed_form():
    st = ShrinkageState("ridge", tau2=1.0)
    psi = np.zeros(5)
    psi[0] = 1.0
    assert scaling(psi, st) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)


def test_scaling_matches_dense_linear_algebra():
    rng = np.random.default_rng(1)
    for variant in ("horseshoe", "ridge"):
        for _ in range(20):
            q = rng.integers(1, 8)
            st = random_state(rng, variant, q)
            psi = rng.normal(size=q)
            p_dense = np.diag(1.0 / st.prior_variance_diag(q))
            ref = 1.0 / np.sqrt(1.0 + psi @ np.linalg.inv(p_dense) @ psi)
            assert abs(scaling(psi, st) - ref) < 1e-12


def test_scaling_in_unit_interval_and_one_iff_zero_quadform():
    rng = np.random.default_rng(2)
    st = random_state(rng, "horseshoe", 4)
    for _ in range(200):
        psi = rng.normal(size=4) * rng.uniform(0, 10)
        s = scaling(psi, st)
        assert 0.0 < s <= 1.0
        assert (s == 1.0) == (float(np.dot(psi * psi,
                                           st.prior_variance_diag(4))) == 0.0)


# -- correlation matrix oracle ---------------------------------------------------


def test_corr_matrix_identity_for_zero_basis():
    st = ShrinkageState("ridge", tau2=1.3)
    np.testing.assert_allclose(corr_matrix(np.zeros((5, 3)), st), np.eye(5),
                               atol=1e-15)


def test_corr_matrix_unit_diagonal_and_psd():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, q = rng.integers(2, 9), rng.integers(1, 5)
        variant = "horseshoe" if rng.random() < 0.5 else "ridge"
        st = random_state(rng, variant, q)
        r = corr_matrix(rng.normal(size=(n, q)) * 2.0, st)
        assert np.max(np.abs(np.diag(r) - 1.0)) < 1e-12
        np.testing.assert_array_equal(r, r.T)
        assert np.linalg.eigvalsh(r).min() >= -1e-10


def test_corr_matrix_refuses_large_n():
    st = ShrinkageState("ridge", tau2=1.0)
    with pytest.raises(DomainError, match="oracle"):
        corr_matrix(np.zeros((65, 2)), st)


def test_corr_matrix_invariant_to_noise_scale():
    # the pseudo-response noise scale cancels: correlations of
    # sigma^2 (I + B V B^T) match corr_matrix for any sigma
    rng = np.random.default_rng(4)
    basis = rng.normal(size=(4, 3))
    st = random_state(rng, "horseshoe", 3)
    v = st.prior_variance_diag(3)
    r = corr_matrix(basis, st)
    for sigma in (0.1, 1.0, 10.0):
        cov = sigma ** 2 * (np.eye(4) + (basis * v) @ basis.T)
        d = 1.0 / np.sqrt(np.diag(cov))
        np.testing.assert_allclose(cov * d[:, None] * d[None, :], r,
                                   atol=1e-12)


# -- copula density oracle ----------------------------------------------------------


def test_copula_logdensity_zero_for_independence():
    rng = np.random.default_rng(5)
    st = random_state(rng, "horseshoe", 3)
    u = rng.uniform(0.05, 0.95, size=6)
    assert copula_logdensity(u, np.zeros((6, 3)), st) == pytest.approx(0.0,
                                                                       abs=1e-12)


def test_copula_logdensity_bivariate_closed_form():
    rng = np.random.default_rng(6)
    basis = np.array([[0.8], [1.3]])
    st = ShrinkageState("ridge", tau2=0.9)
    rho = corr_matrix(basis, st)[0, 1]
    for _ in range(10):
        u = rng.uniform(0.05, 0.95, size=2)
        z = ndtri(u)
        det = 1.0 - rho * rho
        ref = -0.5 * np.log(det) - (rho * rho * (z[0] ** 2 + z[1] ** 2)
                                    - 2.0 * rho * z[0] * z[1]) / (2.0 * det)
        assert copula_logdensity(u, basis, st) == pytest.approx(ref, abs=1e-10)


def test_copula_logdensity_domain_and_singular_errors():
    st = ShrinkageState("ridge", tau2=1.0)
    with pytest.raises(DomainError):
        copula_logdensity(np.array([0.0, 0.5]), np.zeros((2, 1)), st)
    # two identical rows with enormous prior variance drive R singular
    basis = np.array([[1.0], [1.0]])
    big = ShrinkageState("ridge", tau2=1e18)
    with pytest.raises(NumericalError, match="jitter"):
        copula_logdensity(np.array([0.4, 0.6]), basis, big)


# -- conditional likelihood -----------------------------------------------------------


@pytest.fixture(scope="module")
def small_margin():
    rng = np.random.default_rng(7)
    y = np.concatenate([rng.normal(-1.0, 0.6, 40), rng.normal(1.2, 0.8, 40)])
    return fit_kde(y)


def test_cond_loglik_independence_limit(small_margin):
    rng = np.random.default_rng(8)
    y = rng.choice(small_margin.sample, size=5)
    basis = rng.normal(size=(5, 2))
    tiny = ShrinkageState("ridge", tau2=1e-30)
    got = cond_loglik(y, basis, np.zeros(2), tiny, small_margin)
    assert got == pytest.approx(float(np.sum(small_margin.logpdf(y))),
                                abs=1e-9)


def test_cond_loglik_matches_mc_integrated_copula_density(small_margin):
    # integration oracle: E_beta[exp(cond_loglik)] under the prior equals
    # exp(copula_logdensity + sum log p_Y) for every theta
    rng = np.random.default_rng(9)
    m = small_margin
    for variant in ("horseshoe", "ridge"):
        n, q = 4, 2
        basis = rng.normal(size=(n, q)) * 0.8
        y = rng.choice(m.sample, size=n)
        st = random_state(rng, variant, q)
        v = st.prior_variance_diag(q)
        draws = 200_000
        betas = rng.normal(size=(draws, q)) * np.sqrt(v)
        z = to_pseudo(m, y)
        s = scaling_rows(basis, st)
        mu = (betas @ basis.T) * s
        resid = (z - mu) / s
        ll = ((-0.5 * resid * resid).sum(axis=1) - 0.5 * n * _LOG_2PI
              - np.log(s).sum() + m.logpdf(y).sum()
              - float((-0.5 * z * z - 0.5 * _LOG_2PI).sum()))
        vals = np.exp(ll)
        est = vals.mean()
        se = vals.std() / np.sqrt(draws)
        target = np.exp(copula_logdensity(np.clip(m.cdf(y), 1e-12, 1 - 1e-12),
                                          basis, st) + m.logpdf(y).sum())
        assert abs(est - target) < 3.0 * se


def test_cond_loglik_invariant_to_relabeling(small_margin):
    rng = np.random.default_rng(10)
    n, q = 8, 3
    y = rng.choice(small_margin.sample, size=n)
    basis = rng.normal(size=(n, q))
    st = random_state(rng, "horseshoe", q)
    beta = rng.normal(size=q)
    base = cond_loglik(y, basis, beta, st, small_margin)
    perm = rng.permutation(n)
    assert cond_loglik(y[perm], basis[perm], beta, st,
                       small_margin) == pytest.approx(base, rel=1e-12)


def test_cond_loglik_linear_runtime(small_margin):
    # the margin is held fixed; doubling n should roughly double wall time
    rng = np.random.default_rng(11)
    st = ShrinkageState("ridge", tau2=1.0)
    q = 8
    beta = rng.normal(size=q)

    def best_time(n):
        y = rng.choice(small_margin.sample, size=n)
        basis = rng.normal(size=(n, q))
        cond_loglik(y, basis, beta, st, small_margin)  # warm
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            cond_loglik(y, basis, beta, st, small_margin)
            times.append(time.perf_counter() - t0)
        return min(times)

    t1 = best_time(10_000)
    t2 = best_time(20_000)
    assert t2 / t1 < 2.0 * 1.6  # linear growth with generous scheduling slack


# -- sample_beta ---------------------------------------------------------------------


def test_sample_beta_prior_recovery_with_zero_basis():
    rng = np.random.default_rng(12)
    q = 4
    st = ShrinkageState("horseshoe", lam=np.array([0.5, 1.0, 2.0, 0.8]),
                        tau=1.0, nu=np.ones(q), xi=1.0)
    basis = np.zeros((6, q))
    z = rng.normal(size=6)
    draws = np.array([sample_beta(z, basis, st, rng) for _ in range(10_000)])
    ratio = draws.var(axis=0) / st.prior_variance_diag(q)
    assert np.all(np.abs(ratio - 1.0) < 0.05)


def test_sample_beta_scalar_conjugate_closed_form():
    rng = np.random.default_rng(13)
    st = ShrinkageState("ridge", tau2=1.0)
    basis = np.array([[1.0]])
    z = np.array([1.0])
    draws = np.array([sample_beta(z, basis, st, rng)[0]
                      for _ in range(100_000)])
    # posterior: precision 1 + 1 = 2, mean (1/s)/2 with s = 1/sqrt(2)
    expect_mean = np.sqrt(2.0) / 2.0
    se = draws.std() / np.sqrt(draws.size)
    assert abs(draws.mean() - expect_mean) < 3.0 * se
    assert draws.var() == pytest.approx(0.5, rel=0.05)


def test_sample_beta_deterministic_given_seed():
    st = ShrinkageState("ridge", tau2=0.7)
    basis = np.random.default_rng(0).normal(size=(10, 3))
    z = np.random.default_rng(1).normal(size=10)
    a = sample_beta(z, basis, st, np.random.default_rng(42))
    b = sample_beta(z, basis, st, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sample_beta_rejects_a_non_finite_basis(bad):
    basis = np.random.default_rng(0).normal(size=(10, 3))
    basis[4, 1] = bad
    z = np.random.default_rng(1).normal(size=10)
    with pytest.raises(NumericalError, match="not finite"):
        sample_beta(z, basis, ShrinkageState("ridge", tau2=0.7),
                    np.random.default_rng(42))


# -- sample_theta ----------------------------------------------------------------------


def test_horseshoe_no_data_chain_recovers_half_cauchy_prior():
    # with a zero basis the (beta, theta) chain samples the prior, so
    # lambda_j / tau is HalfCauchy(0,1) with median 1
    rng = np.random.default_rng(14)
    q = 3
    st = ShrinkageState.initial("horseshoe", q)
    basis = np.zeros((2, q))
    z = np.zeros(2)
    ratios = []
    for it in range(40_000):
        beta = sample_beta(z, basis, st, rng)
        st = sample_theta(beta, st, rng)
        if it >= 2_000:
            ratios.append(st.lam / st.tau)
    med = np.median(np.array(ratios), axis=0)
    assert np.all(np.abs(med - 1.0) < 0.10)


def test_ridge_tau2_concentrates_near_beta_norm():
    rng = np.random.default_rng(15)
    q = 50
    beta = np.full(q, 10.0)
    st = ShrinkageState("ridge", tau2=50.0)
    kept = []
    for it in range(12_000):
        st = sample_theta(beta, st, rng)
        if it >= 2_000:
            kept.append(st.tau2)
    kept = np.array(kept)
    target = float(beta @ beta) / q
    assert abs(kept.mean() - target) / target < 0.15
    # independent quadrature oracle for the same conditional mean; the
    # integrand spans hundreds of log-units, so integrate exponent-normalized
    # on a log grid
    c = 0.5 * float(beta @ beta)
    log_t = np.linspace(np.log(1.0), np.log(4000.0), 200_001)
    t = np.exp(log_t)
    log_f = (-(q + 1) / 2.0 * np.log(t) - c / t - RIDGE_RATE * np.sqrt(t)
             + log_t)
    w = np.exp(log_f - log_f.max())
    mean_ref = float((t * w).sum() / w.sum())
    assert kept.mean() == pytest.approx(mean_ref, rel=0.05)


def test_sample_theta_scales_stay_positive():
    rng = np.random.default_rng(16)
    st_h = ShrinkageState.initial("horseshoe", 2)
    st_r = ShrinkageState.initial("ridge", 2)
    for it in range(50_000):
        beta = rng.normal(size=2) * rng.uniform(0.01, 30.0)
        st_h = sample_theta(beta, st_h, rng)
        st_r = sample_theta(beta, st_r, rng)
        assert np.all(st_h.lam > 0) and st_h.tau > 0
        assert np.all(st_h.nu > 0) and st_h.xi > 0
        assert st_r.tau2 > 0


# -- run_mcmc ---------------------------------------------------------------------------


def test_run_mcmc_recovers_generating_coefficients():
    rng = np.random.default_rng(17)
    n, q = 500, 5
    basis = rng.normal(size=(n, q)) / np.sqrt(q)
    beta_star = rng.normal(size=q)
    st = ShrinkageState("ridge", tau2=1.0)
    s = scaling_rows(basis, st)
    z = s * (basis @ beta_star) + s * rng.standard_normal(n)
    draws = run_mcmc_pseudo(z, basis, "ridge", burnin=500, draws=1000,
                            rng=np.random.default_rng(18))
    sd = draws.beta_draws.std(axis=0)
    assert np.all(np.abs(draws.beta_mean - beta_star) < 3.0 * sd)


def test_run_mcmc_matches_exact_quadrature_on_tiny_instance(small_margin):
    # quadrature oracle: beta integrated analytically given tau2 (the model
    # is conditionally Gaussian), tau2 on a fine log grid
    rng = np.random.default_rng(19)
    m = small_margin
    n = 4
    basis = rng.normal(size=(n, 1))
    y = rng.choice(m.sample, size=n)
    z = to_pseudo(m, y)
    b = basis[:, 0]
    psi0, y0 = 0.9, 0.4
    z0 = float(to_pseudo(m, np.array([y0]))[0])
    ratio0 = float(np.exp(m.logpdf(y0) - (-0.5 * z0 * z0 - 0.5 * _LOG_2PI)))

    t2_grid = np.exp(np.linspace(np.log(1e-6), np.log(1e6), 4001))
    log_post = np.empty_like(t2_grid)
    pred = np.empty_like(t2_grid)
    for k, t2 in enumerate(t2_grid):
        s = 1.0 / np.sqrt(1.0 + b * b * t2)
        w = z / s
        cov = np.eye(n) + t2 * np.outer(b, b)
        _, logdet = np.linalg.slogdet(cov)
        loglik = (-0.5 * (n * _LOG_2PI + logdet + w @ np.linalg.solve(cov, w))
                  - np.log(s).sum())
        logprior = (np.log(RIDGE_RATE) - np.log(2.0) - 0.5 * np.log(t2)
                    - RIDGE_RATE * np.sqrt(t2))
        log_post[k] = loglik + logprior + np.log(t2)  # log-grid jacobian
        prec = float(b @ b) + 1.0 / t2
        mb = float(b @ w) / prec
        s0 = 1.0 / np.sqrt(1.0 + psi0 * psi0 * t2)
        mu = s0 * psi0 * mb
        var = s0 * s0 * (psi0 * psi0 / prec + 1.0)
        pred[k] = (ratio0 * np.exp(-0.5 * (z0 - mu) ** 2 / var)
                   / np.sqrt(2.0 * np.pi * var))
    weights = np.exp(log_post - log_post.max())
    exact = float((pred * weights).sum() / weights.sum())

    draws = run_mcmc(y, basis, "ridge", m, burnin=2000, draws=8000,
                     rng=np.random.default_rng(20))
    t2v = np.array([st.tau2 for st in draws.theta_draws])
    s0 = 1.0 / np.sqrt(1.0 + psi0 * psi0 * t2v)
    mu = s0 * psi0 * draws.beta_draws[:, 0]
    vals = ratio0 * np.exp(-0.5 * ((z0 - mu) / s0) ** 2) / (np.sqrt(2.0 * np.pi) * s0)
    assert abs(vals.mean() - exact) / exact < 0.05


def test_run_mcmc_deterministic_given_seed(small_margin):
    rng = np.random.default_rng(21)
    y = rng.choice(small_margin.sample, size=30)
    basis = rng.normal(size=(30, 3))
    runs = []
    for _ in range(2):
        d = run_mcmc(y, basis, "horseshoe", small_margin, burnin=50, draws=100,
                     rng=np.random.default_rng(77))
        runs.append(d)
    np.testing.assert_array_equal(runs[0].beta_draws, runs[1].beta_draws)
    for a, b in zip(runs[0].theta_draws, runs[1].theta_draws):
        np.testing.assert_array_equal(a.flat(), b.flat())


def test_run_mcmc_requires_rng(small_margin):
    with pytest.raises(DomainError):
        run_mcmc_pseudo(np.zeros(3), np.zeros((3, 1)), "ridge")


# -- PosteriorDraws --------------------------------------------------------------------


def test_posterior_draws_mean_identity_and_validation():
    rng = np.random.default_rng(22)
    beta = rng.normal(size=(50, 3))
    thetas = [ShrinkageState("ridge", tau2=float(t))
              for t in rng.uniform(0.5, 2.0, 50)]
    draws = PosteriorDraws("ridge", beta, thetas)
    np.testing.assert_allclose(draws.beta_mean, beta.mean(axis=0), atol=1e-12)
    with pytest.raises(ShapeError):
        PosteriorDraws("ridge", np.empty((0, 3)), [])


def test_posterior_draws_csv_round_trip(tmp_path, small_margin):
    rng = np.random.default_rng(23)
    y = rng.choice(small_margin.sample, size=25)
    basis = rng.normal(size=(25, 2))
    for variant in ("horseshoe", "ridge"):
        d = run_mcmc(y, basis, variant, small_margin, burnin=20, draws=40,
                     rng=np.random.default_rng(3))
        csv_path = tmp_path / f"{variant}.csv"
        hdr_path = tmp_path / f"{variant}.json"
        d.save_csv(csv_path, hdr_path)
        back = PosteriorDraws.load_csv(csv_path, hdr_path)
        np.testing.assert_allclose(back.beta_draws, d.beta_draws, rtol=1e-15)
        np.testing.assert_allclose(back.theta_draws[5].flat(),
                                   d.theta_draws[5].flat(), rtol=1e-15)


def test_shrinkage_state_validation():
    with pytest.raises(DomainError):
        ShrinkageState("ridge", tau2=-1.0)
    with pytest.raises(DomainError):
        ShrinkageState("horseshoe", lam=np.array([1.0, -1.0]), tau=1.0,
                       nu=np.ones(2), xi=1.0)
    with pytest.raises(DomainError):
        ShrinkageState("lasso", tau2=1.0)


def test_slice_sampler_nan_target_raises_instead_of_hanging():
    from copreg.copula import _slice_sample
    with pytest.raises(NumericalError, match="slice"):
        _slice_sample(lambda x: float("nan"), 0.0, np.random.default_rng(0))
