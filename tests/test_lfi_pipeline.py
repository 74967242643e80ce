"""LFI pipeline: batch generation, per-parameter fits, evaluation logic."""

import os

import numpy as np
import pytest

from copreg.errors import ConfigError
from copreg.lfi import (
    BlowflyParams,
    LfiFitConfig,
    PriorSpec,
    SimBatch,
    SimModel,
    VolesParams,
    blowfly_model,
    eval_simulation,
    fit_all_parameters,
    generate_training,
    lfi_fit,
    marginal_calibration_distance,
    voles_model,
)
from copreg.lfi.pipeline import param_seed

TINY_CNN = LfiFitConfig(kernel_sizes=(7, 5), filter_counts=(4, 3),
                        dense_width=12, epochs=15, batch_size=64,
                        variant="ridge", burnin=100, draws=200)


def test_model_parameter_counts_match_experiments():
    assert blowfly_model().prior.dim == 6
    assert blowfly_model().series_length == 275
    assert voles_model().prior.dim == 9
    assert voles_model().series_length == 90


def test_generate_training_split_arithmetic_and_determinism():
    model = blowfly_model(series_length=60)
    train_a, test_a = generate_training(model, 50, split=0.8, seed=3)
    assert train_a.n == 40 and test_a.n == 10
    assert train_a.series_length == 60
    train_b, test_b = generate_training(model, 50, split=0.8, seed=3)
    np.testing.assert_array_equal(train_a.params, train_b.params)
    np.testing.assert_array_equal(train_a.series, train_b.series)
    np.testing.assert_array_equal(test_a.series, test_b.series)
    train_c, _ = generate_training(model, 50, split=0.8, seed=4)
    assert not np.array_equal(train_a.series, train_c.series)


def test_generate_training_rejects_bad_split():
    with pytest.raises(ConfigError):
        generate_training(blowfly_model(series_length=30), 10, split=1.0)


def test_lfi_fit_config_rejects_a_bool_l2():
    with pytest.raises(ValueError):
        LfiFitConfig(l2=True)


@pytest.mark.slow
def test_generate_training_paper_scale_split():
    model = blowfly_model(series_length=30)
    train, test = generate_training(model, 10_000, split=0.8, seed=0)
    assert train.n == 8_000 and test.n == 2_000


@pytest.mark.parametrize("name,record", [("blowfly", BlowflyParams),
                                         ("voles", VolesParams)])
def test_a_prior_lists_its_simulator_parameters_in_record_order(name,
                                                                record):
    # without a prior, a simulator runs under its shipped one, whose
    # entries are the record's names; a prior row maps to them by position
    model = SimModel(name)
    assert tuple(model.prior.names) == record.names
    row = model.prior.sample_matrix(np.random.default_rng(1), 1)[0]
    params = record.from_array(row)
    assert [getattr(params, n) for n in record.names] == [
        round(v) if n == "delay" else v for n, v in zip(record.names, row)]
    other = "voles" if name == "blowfly" else "blowfly"
    for prior in (PriorSpec(model.prior.params[:-1]),
                  PriorSpec(model.prior.params[::-1]), SimModel(other).prior):
        with pytest.raises(ConfigError, match=", ".join(record.names)):
            SimModel(name, prior)


def test_shipped_prior_files_load(tmp_path):
    import os

    from copreg.lfi.priors import PriorSpec

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name, dim in (("blowfly_prior.json", 6), ("voles_prior.json", 9)):
        prior = PriorSpec.load(os.path.join(here, "src", "copreg", "data",
                                           name))
        assert prior.dim == dim
        draws = prior.sample_matrix(np.random.default_rng(0), 50)
        assert draws.shape == (50, dim)
        assert np.all(draws > 0.0)


def test_sim_batch_csv_round_trip(tmp_path):
    model = blowfly_model(series_length=40)
    train, _ = generate_training(model, 12, split=0.75, seed=1)
    path = tmp_path / "batch.csv"
    train.save_csv(path)
    back = SimBatch.load_csv(path, param_names=train.param_names)
    np.testing.assert_allclose(back.params, train.params, rtol=1e-15)
    np.testing.assert_array_equal(back.series, train.series)


def test_lfi_fit_returns_posterior_regressor():
    model = blowfly_model(series_length=60)
    train, test = generate_training(model, 120, split=0.8, seed=5)
    pm = lfi_fit(train, param_index=1, config=TINY_CNN, seed=2)
    # predictive machinery works on unseen series
    from copreg.predict import predict_cdf_at, predictive_expectation
    series = test.series.astype(float)
    u = predict_cdf_at(pm, series, np.log(test.params[:, 1]))
    assert u.shape == (test.n,)
    assert np.all((u > 0.0) & (u < 1.0))
    est = predictive_expectation(pm, series)
    assert np.all(np.isfinite(est))


def test_fit_all_parameters_builds_one_model_per_parameter():
    model = blowfly_model(series_length=50)
    train, _ = generate_training(model, 60, split=0.9, seed=6)
    sub = SimBatch(train.params[:, :2], train.series, train.param_names[:2],
                   seed=0)
    models = fit_all_parameters(sub, config=TINY_CNN, seed=1)
    assert len(models) == 2


def test_fit_all_parameters_returns_each_parameters_lfi_fit_bundle(tmp_path):
    model = blowfly_model(series_length=30)
    train, _ = generate_training(model, 40, split=0.9, seed=2)
    config = LfiFitConfig(kernel_sizes=(5, 3), filter_counts=(3, 2),
                          dense_width=6, epochs=2, batch_size=16,
                          variant="ridge", burnin=10, draws=20)
    bundles = fit_all_parameters(train, config, seed=5, return_bundle=True)
    assert len(bundles) == model.prior.dim
    for j, bundle in enumerate(bundles):
        alone = lfi_fit(train, j, config=config, seed=param_seed(5, j),
                        return_bundle=True)
        bundle.save(tmp_path / f"loop{j}")
        alone.save(tmp_path / f"alone{j}")
        names = sorted(os.listdir(tmp_path / f"alone{j}"))
        assert sorted(os.listdir(tmp_path / f"loop{j}")) == names
        for name in names:
            assert ((tmp_path / f"loop{j}" / name).read_bytes()
                    == (tmp_path / f"alone{j}" / name).read_bytes()), name


def test_information_free_simulator_recovers_prior():
    # series carry no information about the parameter, so the test-averaged
    # posterior must reproduce the prior (the no-data limit of marginal
    # calibration)
    # the sup distance carries the finite-sample error of the fitted margin
    # (about 1.36/sqrt(n) in Kolmogorov terms), so n must be comfortably
    # above what the tolerance implies
    rng = np.random.default_rng(7)
    n, t_len = 1200, 40
    prior_mu, prior_sigma = np.log(2.0), 0.5
    params = np.exp(rng.normal(prior_mu, prior_sigma, size=(n, 1)))
    series = rng.poisson(100.0, size=(n, t_len))
    batch = SimBatch(params, series, ("theta",), seed=0)
    pm = lfi_fit(batch, 0, config=TINY_CNN, seed=3)

    test_series = rng.poisson(100.0, size=(150, t_len))
    test_batch = SimBatch(np.exp(rng.normal(prior_mu, prior_sigma,
                                            size=(150, 1))),
                          test_series, ("theta",), seed=1)
    reference = rng.normal(prior_mu, prior_sigma, size=20_000)
    dist = marginal_calibration_distance(pm, test_batch, reference)
    assert dist < 0.05


def test_eval_simulation_reports_mse_se_coverage():
    model = blowfly_model(series_length=60)
    train, test = generate_training(model, 150, split=0.8, seed=8)
    sub_train = SimBatch(train.params[:, :1], train.series,
                         train.param_names[:1], seed=0)
    sub_test = SimBatch(test.params[:, :1], test.series,
                        test.param_names[:1], seed=0)
    models = fit_all_parameters(sub_train, config=TINY_CNN, seed=4)
    table = eval_simulation(models, sub_test)
    entry = table["survival_rate"]
    assert set(entry) == {"mse", "se", "coverage"}
    assert entry["mse"] >= 0.0
    assert 0.0 <= entry["coverage"] <= 1.0


def test_coverage_counter_semantics():
    # the central-interval rule on CDF values: degenerate forecasts whose
    # interval misses the truth count zero; containing intervals count one
    alpha = 0.025
    u = np.array([0.0, 1.0, 0.5, 0.3, 0.99])
    covered = (u >= alpha) & (u <= 1.0 - alpha)
    np.testing.assert_array_equal(covered,
                                  [False, False, True, True, False])
