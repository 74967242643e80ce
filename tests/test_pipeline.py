"""Full estimation pipeline on synthetic data, plus bundle round trips."""

import os

import numpy as np
import pytest

from copreg.calibration import probability_calibration
from copreg.errors import ConfigError, DataError, DomainError, ShapeError
from copreg.nnet import TrainConfig, build_ffn
from copreg.pipeline import (
    CopulaRegression,
    FeatureScaler,
    FitConfig,
    _norm_pdf,
    fit_copula_regression,
    fit_gaussian_baseline,
)
from copreg.predict import (
    average_predictive_cdf,
    margin_grid,
    predict_cdf_at,
    predict_density_at,
)


def skewed_dataset(n=300, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 3))
    mean = 1.5 * x[:, 0] - 0.8 * x[:, 1] ** 2
    y = mean + rng.gamma(2.0, 0.6, size=n)  # right-skewed noise
    return x, y


@pytest.fixture(scope="module")
def small_fit():
    x, y = skewed_dataset()
    cfg = TrainConfig(epochs=60, seed=1)
    net = build_ffn(3, width=16, seed=1)
    return x, y, fit_copula_regression(x, y, variant="ridge", network=net,
                                       train_cfg=cfg, burnin=200, draws=300,
                                       seed=1)


def test_fit_produces_consistent_shapes(small_fit):
    x, y, fit = small_fit
    assert fit.draws.beta_draws.shape == (300, 16)
    assert fit.predictive.q == 16
    dens = predict_density_at(fit.predictive, x[:5], y[:5])
    assert dens.shape == (5,)
    assert np.all(dens > 0.0)


def test_fit_is_marginally_calibrated_in_sample(small_fit):
    x, y, fit = small_fit
    pm = fit.predictive
    grid = margin_grid(fit.margin, num=256)
    avg_cdf = average_predictive_cdf(pm, x, grid)
    sup = np.max(np.abs(avg_cdf - fit.margin.cdf(grid)))
    assert sup < 0.05


def test_fit_is_roughly_probability_calibrated(small_fit):
    x, y, fit = small_fit
    u = predict_cdf_at(fit.predictive, x, y)
    p_grid = np.linspace(0.05, 0.95, 19)
    p_tilde = probability_calibration(u, p_grid)
    assert np.max(np.abs(p_tilde - p_grid)) < 0.2


def test_feature_scaler_continuous_vs_indicator():
    x = np.column_stack([np.linspace(3.0, 9.0, 8),
                         np.array([0, 1, 0, 1, 1, 0, 1, 0], dtype=float)])
    sc = FeatureScaler.fit(x)
    out = sc.transform(x)
    assert out[:, 0].min() == 0.0 and out[:, 0].max() == 1.0
    np.testing.assert_array_equal(out[:, 1], x[:, 1])
    back = FeatureScaler.from_json(sc.to_json())
    np.testing.assert_array_equal(back.transform(x), out)


@pytest.mark.parametrize("width", [1, 2, 4])
def test_feature_scaler_rejects_inputs_of_another_width(width):
    # one column used to be broadcast over all three, silently
    sc = FeatureScaler.fit(np.random.default_rng(0).uniform(size=(20, 3)))
    with pytest.raises(ShapeError):
        sc.transform(np.ones((5, width)))


def test_bundle_round_trip(tmp_path, small_fit):
    x, y, fit = small_fit
    out = tmp_path / "bundle"
    fit.save(out)
    back = CopulaRegression.load(out)
    grid = margin_grid(fit.margin, num=64)
    np.testing.assert_allclose(
        average_predictive_cdf(back.predictive, x[:20], grid),
        average_predictive_cdf(fit.predictive, x[:20], grid), atol=1e-12)
    assert back.meta["variant"] == "ridge"


def test_bundle_load_missing_file(tmp_path):
    with pytest.raises(DataError, match="missing"):
        CopulaRegression.load(tmp_path)


def test_gaussian_baseline_density_and_cdf():
    x, y = skewed_dataset(n=200, seed=3)
    base = fit_gaussian_baseline(x, y, network=build_ffn(3, width=8, seed=2,
                                                         output_bias=True),
                                 train_cfg=TrainConfig(epochs=40, seed=2))
    dens = base.density_at(x[:10], y[:10])
    assert dens.shape == (10,)
    assert np.all(dens > 0.0)
    pad = 4.0 * np.sqrt(base.sigma2)
    grid = np.linspace(y.min() - pad, y.max() + pad, 256)
    avg = base.average_density(x, grid)
    total = np.trapezoid(avg, grid)
    assert total == pytest.approx(1.0, abs=0.02)
    cdf = base.average_cdf(x, grid)
    assert np.all(np.diff(cdf) >= 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_norm_pdf_equals_scipy_bit_for_bit(seed):
    from scipy.stats import norm

    rng = np.random.default_rng(seed)
    scale = float(np.sqrt(rng.gamma(2.0)))
    loc = 3.0 * rng.normal(size=50)
    y = 4.0 * rng.normal(size=300)
    # average_density: a (rows, 1) loc against a (1, grid) y
    assert np.array_equal(_norm_pdf(y[None, :], loc[:, None], scale),
                          norm.pdf(y[None, :], loc=loc[:, None], scale=scale))
    # density_at: one y per row
    assert np.array_equal(_norm_pdf(y[:50], loc, scale),
                          norm.pdf(y[:50], loc=loc, scale=scale))


@pytest.mark.parametrize("network,ffn", [
    ({"width": 8, "dropout": 0.2}, {"width": 8, "dropout_rate": 0.2}),
    ({}, {})])
def test_fit_config_saves_the_bundle_of_the_hand_built_fit(tmp_path, network,
                                                           ffn):
    x, y = skewed_dataset(n=60)
    spec = FitConfig(network=network, train={"epochs": 5},
                     mcmc={"variant": "ridge", "burnin": 20, "draws": 30})
    spec.fit(x, y, seed=4).save(tmp_path / "spec")
    fit_copula_regression(
        x, y, network=build_ffn(x.shape[1], seed=4, **ffn),
        train_cfg=TrainConfig(epochs=5, seed=4), variant="ridge", burnin=20,
        draws=30, seed=4).save(tmp_path / "hand")
    names = sorted(os.listdir(tmp_path / "hand"))
    assert sorted(os.listdir(tmp_path / "spec")) == names
    for name in names:
        assert ((tmp_path / "spec" / name).read_bytes()
                == (tmp_path / "hand" / name).read_bytes()), name


@pytest.mark.parametrize("blocks,key", [
    ({"mcmc": {"width": 8}}, "mcmc"),
    ({"mcmc": {"variant": "lasso"}}, "mcmc"),
    ({"network": {"epochs": 3}}, "network"),
    ({"network": {"width": 0}}, "network"),
    ({"network": {"dropout": 1.0}}, "network"),
    ({"train": {"variant": "ridge"}}, "train"),
    ({"train": {"epochs": 0}}, "train")])
def test_fit_config_names_the_block_of_a_bad_option(blocks, key):
    with pytest.raises(ConfigError, match=f"invalid '{key}' options"):
        FitConfig(**blocks)


def test_fit_rejects_mismatched_rows():
    with pytest.raises(DataError):
        fit_copula_regression(np.zeros((5, 2)), np.zeros(4))


@pytest.mark.parametrize("sizes", [{"draws": 0}, {"thin": 0},
                                   {"burnin": -1}, {"variant": "lasso"}])
def test_bad_sampler_sizes_fail_before_training(monkeypatch, sizes):
    import copreg.pipeline as pipeline

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(pipeline, "train", no_training)
    x, y = skewed_dataset(n=40)
    with pytest.raises(DomainError):
        fit_copula_regression(x, y, **sizes)
