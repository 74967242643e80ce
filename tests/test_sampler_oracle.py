"""The Gibbs sweep against a per-coordinate reference, bit for bit.

``reference_run_mcmc_pseudo`` is the sampler written one scalar step at a
time: ``sample_beta`` recomputes B^T B and s on every call, and each horseshoe
coordinate draws its own proposal and re-sums the whole log likelihood.
:func:`copreg.copula.run_mcmc_pseudo` draws the proposals as one vector and
keeps running sums; it must consume the same random stream and take the same
Metropolis-Hastings decisions, so its chains equal the reference exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular

from copreg import copula
from copreg.copula import (
    PosteriorDraws,
    ShrinkageState,
    _ess,
    _horseshoe_globals,
    _inv_gamma,
    _ridge_log_target,
    _slice_sample,
    run_mcmc_pseudo,
    scaling_rows,
)
from copreg.errors import DomainError

# -- reference: the per-coordinate sweep ---------------------------------------------


def reference_sample_beta(z, basis, state, rng):
    q = basis.shape[1]
    v = state.prior_variance_diag(q)
    s = scaling_rows(basis, state)
    prec = basis.T @ basis
    prec[np.diag_indices(q)] += 1.0 / v
    rhs = basis.T @ (z / s)
    low = np.linalg.cholesky(prec)
    mean = cho_solve((low, True), rhs)
    noise = solve_triangular(low.T, rng.standard_normal(q), lower=False)
    return mean + noise


def reference_scale_loglik(z, mean_vals, t_vals):
    u = 1.0 + t_vals
    root = np.sqrt(u)
    return float(np.sum(-0.5 * z * z * u + z * mean_vals * root
                        + 0.5 * np.log(u)))


def reference_theta_update(beta, state, rng, z, basis_sq, mean_vals):
    q = beta.size
    if state.variant == "horseshoe":
        lam2 = state.lam * state.lam
        nu = state.nu
        t_vals = basis_sq @ lam2
        cur_ll = reference_scale_loglik(z, mean_vals, t_vals)
        accepted = 0
        log_u = np.log(rng.random(q))
        for j in range(q):
            prop = _inv_gamma(rng, 1.0, 1.0 / nu[j] + 0.5 * beta[j] * beta[j])
            t_star = t_vals + basis_sq[:, j] * (prop - lam2[j])
            new_ll = reference_scale_loglik(z, mean_vals, t_star)
            if log_u[j] < new_ll - cur_ll:
                lam2[j] = prop
                t_vals = t_star
                cur_ll = new_ll
                accepted += 1
        return _horseshoe_globals(lam2, state, rng), accepted / q
    row_norms = basis_sq.sum(axis=1)
    half_bnorm_sq = 0.5 * float(beta @ beta)

    def log_target(x):
        return (_ridge_log_target(x, q, half_bnorm_sq)
                + reference_scale_loglik(z, mean_vals, np.exp(x) * row_norms))

    x1 = _slice_sample(log_target, np.log(state.tau2), rng)
    return ShrinkageState("ridge", tau2=float(np.exp(x1))), 1.0


def reference_run_mcmc_pseudo(z, basis, variant, burnin, draws, rng, thin=1):
    n, q = basis.shape
    state = ShrinkageState.initial(variant, q)
    beta = np.linalg.solve(basis.T @ basis + np.eye(q), basis.T @ z)
    basis_sq = basis * basis
    kept_beta = np.empty((draws, q))
    kept_theta = []
    total = burnin + draws * thin
    acc_sum = 0.0
    for it in range(total):
        beta = reference_sample_beta(z, basis, state, rng)
        state, acc = reference_theta_update(beta, state, rng, z, basis_sq,
                                            basis @ beta)
        acc_sum += acc
        if it >= burnin and (it - burnin) % thin == 0:
            kept_beta[len(kept_theta)] = beta
            kept_theta.append(state)
    scale_chain = np.array(
        [s.tau if variant == "horseshoe" else s.tau2 for s in kept_theta])
    diagnostics = {
        "acceptance": acc_sum / total,
        "ess_beta_norm": _ess(np.sum(kept_beta * kept_beta, axis=1)),
        "ess_scale": _ess(np.log(scale_chain)),
    }
    return PosteriorDraws(variant, kept_beta, kept_theta,
                          diagnostics=diagnostics)


# -- helpers -------------------------------------------------------------------------------


def random_instance(seed, n, q, zero_column=False):
    """A network-like basis (ReLU features, some exact zeros) and z."""
    gen = np.random.default_rng(seed)
    basis = np.maximum(gen.normal(size=(n, q)) @ gen.normal(size=(q, q))
                       / np.sqrt(q), 0.0)
    if zero_column:
        basis[:, gen.integers(q)] = 0.0
    z = gen.normal(size=n)
    return z, basis


def assert_same_chain(got, ref):
    assert got.variant == ref.variant
    np.testing.assert_array_equal(got.beta_draws, ref.beta_draws)
    assert len(got.theta_draws) == len(ref.theta_draws)
    for a, b in zip(got.theta_draws, ref.theta_draws):
        np.testing.assert_array_equal(a.flat(), b.flat())
    assert got.diagnostics == ref.diagnostics


def both_chains(z, basis, variant, burnin, draws, seed, thin=1):
    got = run_mcmc_pseudo(z, basis, variant, burnin=burnin, draws=draws,
                          rng=np.random.default_rng(seed), thin=thin)
    ref = reference_run_mcmc_pseudo(z, basis, variant, burnin, draws,
                                    np.random.default_rng(seed), thin=thin)
    return got, ref


# -- tests -----------------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["horseshoe", "ridge"])
@pytest.mark.parametrize("n,q,zero_column,thin", [
    (60, 8, False, 1),
    (40, 6, True, 1),     # an all-zero basis column
    (5, 12, False, 1),    # q > n
    (30, 5, True, 3),     # thinned
])
def test_chain_equals_per_coordinate_reference(variant, n, q, zero_column,
                                               thin):
    z, basis = random_instance(n * 100 + q, n, q, zero_column)
    got, ref = both_chains(z, basis, variant, burnin=15, draws=12, seed=n + q,
                           thin=thin)
    assert_same_chain(got, ref)


def test_zero_column_proposals_always_accepted():
    # a column that no row loads on leaves the likelihood unchanged, so its
    # lambda^2 proposal is accepted every sweep, as in the reference
    z, basis = random_instance(3, 25, 4)
    basis[:, :] = 0.0
    got, ref = both_chains(z, basis, "horseshoe", burnin=5, draws=5, seed=9)
    assert got.diagnostics["acceptance"] == 1.0
    assert_same_chain(got, ref)


@settings(max_examples=25)
@given(n=st.integers(1, 40), q=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), zero_column=st.booleans(),
       thin=st.integers(1, 3),
       variant=st.sampled_from(["horseshoe", "ridge"]))
def test_chain_equals_reference_property(n, q, seed, zero_column, thin,
                                         variant):
    z, basis = random_instance(seed, n, q, zero_column)
    got, ref = both_chains(z, basis, variant, burnin=3, draws=4, seed=seed,
                           thin=thin)
    assert_same_chain(got, ref)


@pytest.mark.parametrize("q", [1, 7, 64])
def test_vector_gamma_draws_equal_scalar_draws(q):
    # the sweep draws its q proposals in one call; the stream must be the
    # one that q scalar draws consume
    vec = np.random.default_rng(q).gamma(1.0, size=q)
    rng = np.random.default_rng(q)
    scalars = np.array([rng.gamma(1.0) for _ in range(q)])
    np.testing.assert_array_equal(vec, scalars)


@pytest.mark.parametrize("burnin,draws,thin", [(0, 1, 1), (4, 3, 2),
                                               (2, 5, 3)])
def test_one_sample_beta_call_per_sweep(monkeypatch, burnin, draws, thin):
    calls = []
    real = copula.sample_beta

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(copula, "sample_beta", spy)
    z, basis = random_instance(5, 20, 4)
    run_mcmc_pseudo(z, basis, "horseshoe", burnin=burnin, draws=draws,
                    rng=np.random.default_rng(0), thin=thin)
    assert len(calls) == burnin + draws * thin


@pytest.mark.parametrize("burnin,draws,thin", [
    (10, 0, 1), (10, -3, 1), (10, 5, 0), (10, 5, -1), (-5, 5, 1)])
def test_bad_sampler_sizes_raise_domain_error(burnin, draws, thin):
    z, basis = random_instance(6, 10, 3)
    with pytest.raises(DomainError):
        run_mcmc_pseudo(z, basis, "horseshoe", burnin=burnin, draws=draws,
                        rng=np.random.default_rng(0), thin=thin)


# -- the benchmark's shapes ---------------------------------------------------------


def batchnorm_like_instance(seed, n, q):
    """A dense basis like a BatchNorm layer's output: columns centred,
    scaled and shifted, with no exact zeros; and z."""
    gen = np.random.default_rng(seed)
    raw = gen.normal(size=(n, q)) @ gen.normal(size=(q, q)) / np.sqrt(q)
    basis = ((raw - raw.mean(axis=0)) / raw.std(axis=0)
             * gen.uniform(0.5, 1.5, size=q) + gen.normal(0.0, 0.2, size=q))
    assert np.all(basis != 0.0)
    return gen.normal(size=n), basis


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n,q,kind", [
    (18, 51, "batchnorm"),   # lfi-blowfly: q > n, a dense basis
    (225, 65, "relu"),       # tabular-kfold: a ReLU basis with zeros
])
def test_horseshoe_chain_equals_reference_at_bench_shapes(n, q, kind, seed):
    if kind == "batchnorm":
        z, basis = batchnorm_like_instance(seed, n, q)
    else:
        z, basis = random_instance(seed, n, q)
    got, ref = both_chains(z, basis, "horseshoe", burnin=20, draws=20,
                           seed=seed + 1)
    assert 0.0 < got.diagnostics["acceptance"] < 1.0
    assert_same_chain(got, ref)
