"""Energy score and composite predictive scores."""

import numpy as np
import pytest

from copreg.errors import DomainError
from copreg.lfi import (
    bivariate_kde_logpdf,
    blowfly_model,
    composite_scores,
    energy_score,
)
from copreg.lfi.scoring import score_options


def test_energy_score_zero_for_perfect_deterministic_forecast():
    obs = np.array([3.0, -1.0])
    samples = np.tile(obs, (10, 1))
    assert energy_score(samples, obs) == 0.0


def test_energy_score_matches_brute_force_double_sum():
    rng = np.random.default_rng(1)
    samples = rng.normal(size=(40, 2))
    obs = rng.normal(size=2)
    m = samples.shape[0]
    term1 = sum(np.sqrt(((samples[i] - obs) ** 2).sum())
                for i in range(m)) / m
    term2 = sum(np.sqrt(((samples[i] - samples[j]) ** 2).sum())
                for i in range(m) for j in range(m)) / (2.0 * m * m)
    assert abs(energy_score(samples, obs) - (term1 - term2)) < 1e-12


def test_energy_score_mean_matches_analytic_reference():
    # forecast == truth == N(0, I2): E[ES] = 0.5 E||X - X'|| = sqrt(pi)/2
    rng = np.random.default_rng(2)
    m = 4000
    samples = rng.normal(size=(m, 2))
    diffs = samples[:, None, :] - samples[None, :, :]
    pair_term = np.sqrt((diffs ** 2).sum(-1)).sum() / (2.0 * m * m)
    obs = rng.normal(size=(10_000, 2))
    cross = np.sqrt(
        ((samples[None, :, :] - obs[:, None, :]) ** 2).sum(-1)).mean(axis=1)
    mean_es = float((cross - pair_term).mean())
    assert abs(mean_es - np.sqrt(np.pi) / 2.0) / (np.sqrt(np.pi) / 2.0) < 0.02
    # spot check the estimator implementation against the same quantities
    single = energy_score(samples, obs[0])
    assert single == pytest.approx(cross[0] - pair_term, abs=1e-12)


def test_energy_score_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(50):
        samples = rng.normal(size=(30, 2)) * rng.uniform(0.1, 5.0)
        obs = rng.normal(size=2) * 3.0
        assert energy_score(samples, obs) >= 0.0


def test_energy_score_rejects_tiny_samples():
    with pytest.raises(DomainError):
        energy_score(np.zeros((1, 2)), np.zeros(2))


def test_bivariate_kde_matches_direct_sum():
    rng = np.random.default_rng(4)
    samples = rng.normal(size=(200, 2)) * np.array([2.0, 0.5])
    point = np.array([0.3, -0.1])
    h = np.maximum(samples.std(axis=0, ddof=1) * 200 ** (-1 / 6), 0.5)
    dens = np.mean([
        np.exp(-0.5 * (((point - s) / h) ** 2).sum())
        / (2.0 * np.pi * h[0] * h[1]) for s in samples])
    assert bivariate_kde_logpdf(samples, point) == pytest.approx(
        np.log(dens), abs=1e-10)


def test_bivariate_kde_handles_degenerate_column():
    samples = np.column_stack([np.full(50, 7.0),
                               np.random.default_rng(5).normal(size=50)])
    out = bivariate_kde_logpdf(samples, np.array([7.0, 0.0]))
    assert np.isfinite(out)


def test_composite_scores_pair_count_and_ordering():
    model = blowfly_model(series_length=120)
    rng = np.random.default_rng(6)
    true_rho = np.array([0.2, 5.0, 300.0, 0.2, 12.0, 0.2])
    observed = model.simulate(true_rho, np.random.default_rng(100))
    cls_true, ces_true = composite_scores(
        true_rho, observed, model, reps=400, rng=np.random.default_rng(7))
    # badly wrong recruitment scale and population scale
    bad_rho = np.array([0.2, 25.0, 3000.0, 0.2, 12.0, 0.2])
    cls_bad, ces_bad = composite_scores(
        bad_rho, observed, model, reps=400, rng=np.random.default_rng(7))
    assert np.isfinite(cls_true) and np.isfinite(ces_true)
    assert ces_true <= 0.0  # negated nonnegative score
    assert cls_true > cls_bad
    assert ces_true > ces_bad


def test_composite_scores_requires_rng_and_test_window():
    model = blowfly_model(series_length=50)
    rho = np.array([0.2, 5.0, 300.0, 0.2, 12.0, 0.2])
    obs = model.simulate(rho, np.random.default_rng(0))
    with pytest.raises(DomainError):
        composite_scores(rho, obs, model)
    with pytest.raises(DomainError):
        composite_scores(rho, obs, model, train_frac=0.999,
                         rng=np.random.default_rng(1))


class _NoSimulation:
    def simulate(self, *args, **kwargs):
        raise AssertionError("composite_scores simulated")


def test_score_options_state_the_defaults_and_the_limits():
    assert score_options() == {"train_frac": 0.8, "reps": 1000}
    # a length-3 series at 0.5 keeps the pair (d_2, d_3); at 0.8 none
    assert score_options(0.5, 2, 3) == {"train_frac": 0.5, "reps": 2}
    with pytest.raises(DomainError, match="length 3"):
        score_options(0.8, 2, 3)


@pytest.mark.parametrize("options", [
    {"reps": 1}, {"reps": 0}, {"reps": 2.5}, {"train_frac": float("nan")},
    {"train_frac": 1.0}, {"train_frac": 0.99}])
def test_composite_scores_rejects_options_before_simulating(options):
    # one replicate row used to fail in the pair kernel density only after
    # every replicate was simulated; a NaN train_frac raised ValueError
    with pytest.raises(DomainError):
        composite_scores(np.ones(6), np.arange(30.0), _NoSimulation(),
                         rng=np.random.default_rng(0), **options)
