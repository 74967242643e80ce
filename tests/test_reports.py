"""``lfi-score`` and ``calibrate`` write the reports of one library function
each, ``lfi_report`` and ``calibration_report``; each report is built from
its documented seeds and grids, and the command line builds none itself."""

import ast
import filecmp
import json

import numpy as np
import pytest

import copreg.cli
from copreg.calibration import (
    P_GRID,
    CalibrationReport,
    calibration_report,
    kfold_mls,
    log_score,
    probability_calibration,
)
from copreg.cli import main
from copreg.files import load_table, write_json
from copreg.lfi import (
    SimBatch,
    blowfly_model,
    composite_scores,
    eval_simulation,
    lfi_report,
    marginal_calibration_distance,
    voles_model,
)
from copreg.margin import MarginModel
from copreg.nnet import Network, TrainConfig, build_ffn
from copreg.pipeline import CopulaRegression, fit_copula_regression
from copreg.predict import (
    PredictiveModel,
    average_predictive_cdf,
    average_predictive_density,
    margin_grid,
    predict_cdf_at,
    predict_logpdf_at,
    predictive_expectation,
)

SEED = 4
SCORE_REPS = 5
TINY_LFI = {"simulator": "blowfly", "series_length": 30, "n_total": 10,
            "split": 0.8, "score_reps": SCORE_REPS,
            "lfi_fit": {"kernel_sizes": [5, 2], "filter_counts": [2, 2],
                        "dense_width": 4, "epochs": 2, "batch_size": 4,
                        "variant": "ridge", "burnin": 5, "draws": 5}}
FAST_FIT = {"network": {"width": 8}, "train": {"epochs": 20},
            "mcmc": {"variant": "ridge", "burnin": 50, "draws": 100}}
GRID = 64
CALIBRATE_FILES = ("probability_calibration.csv", "marginal_calibration.csv",
                   "scores.json")


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _same_files(dir_a, dir_b, names):
    for name in names:
        assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False), name


# -- lfi-score ----------------------------------------------------------------


@pytest.fixture(scope="module")
def lfi_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("lfi")
    cfg = write_config(root / "lfi.json", TINY_LFI)
    assert main(["lfi", "--config", cfg, "--out", str(root / "run"),
                 "--seed", str(SEED)]) == 0
    return root / "run"


def _lfi_inputs(run):
    model = blowfly_model(series_length=TINY_LFI["series_length"])
    test = SimBatch.load_csv(str(run / "test.csv"), prior=model.prior)
    models = [CopulaRegression.load(str(run / f"param_{name}")).predictive
              for name in model.prior.names]
    return model, test, models, test.series[0].astype(float)


def test_lfi_score_writes_lfi_report(tmp_path, lfi_run):
    model, test, models, observed = _lfi_inputs(lfi_run)
    write_json(tmp_path / "lfi_report.json",
               lfi_report(models, test, observed, model, SEED,
                          reps=SCORE_REPS))
    _same_files(lfi_run, tmp_path, ["lfi_report.json"])


def test_lfi_report_draws_the_prior_reference_and_replicates_from_the_seed(
        tmp_path, lfi_run):
    model, test, models, observed = _lfi_inputs(lfi_run)
    params = model.prior.params
    reference = model.prior.sample_matrix(np.random.default_rng(SEED + 1),
                                          20_000)
    rho_hat = np.array([prior.rounded(predictive_expectation(
        models[j], observed[None, :], func=prior.from_axis)[0])
        for j, prior in enumerate(params)])
    cls, ces = composite_scores(rho_hat, observed, model, reps=SCORE_REPS,
                                rng=np.random.default_rng(SEED))
    write_json(tmp_path / "lfi_report.json", {
        "simulator": "blowfly",
        "parameters": eval_simulation(models, test),
        "marginal_calibration": {prior.name: marginal_calibration_distance(
            models[j], test, prior.to_axis(reference[:, j]))
            for j, prior in enumerate(params)},
        "composite": {"log_score": cls, "neg_energy_score": ces,
                      "point_estimate": rho_hat.tolist()}})
    _same_files(lfi_run, tmp_path, ["lfi_report.json"])


# -- calibrate ----------------------------------------------------------------


@pytest.fixture(scope="module")
def tabular_fit(tmp_path_factory):
    root = tmp_path_factory.mktemp("tabular")
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, size=(60, 3))
    y = 1.2 * x[:, 0] + rng.gamma(2.0, 0.5, size=60)
    dataset = root / "toy.csv"
    np.savetxt(dataset, np.column_stack([x, y]), delimiter=",",
               header="x1,x2,x3,response", comments="", fmt="%.17g")
    cfg = write_config(root / "fit.json", {"dataset": str(dataset),
                                           **FAST_FIT})
    assert main(["fit", "--config", cfg, "--out", str(root / "bundle"),
                 "--seed", str(SEED)]) == 0
    return root / "bundle", dataset


def _refit(x, y):
    """The model that ``fit`` builds from FAST_FIT, fitted to (x, y)."""
    return fit_copula_regression(
        x, y, network=build_ffn(x.shape[1], width=8, seed=SEED),
        train_cfg=TrainConfig(epochs=20, seed=SEED), seed=SEED,
        variant="ridge", burnin=50, draws=100).predictive


@pytest.mark.parametrize("folds", [0, 2])
def test_calibrate_writes_calibration_report(tmp_path, tabular_fit, folds):
    bundle, dataset = tabular_fit
    cfg = write_config(tmp_path / "cal.json", {
        "bundle": str(bundle), "dataset": str(dataset), "folds": folds,
        "grid_size": GRID})
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "cli"),
                 "--seed", str(SEED)]) == 0

    fit = CopulaRegression.load(str(bundle))
    _, table = load_table(str(dataset))
    x, y = table[:, :-1], table[:, -1]
    refit = _refit if folds else None
    (tmp_path / "library").mkdir()
    calibration_report(fit.predictive, x, y, GRID, refit=refit, folds=folds,
                       seed=SEED).save(tmp_path / "library")
    _same_files(tmp_path / "cli", tmp_path / "library", CALIBRATE_FILES)

    # the same report from its parts: the grids, and the folds of the seed
    pm = fit.predictive
    grid = margin_grid(fit.margin, num=GRID)
    mls_k, mls_k_se, fold_scores = float("nan"), float("nan"), []
    if folds:
        mls_k, mls_k_se, fold_scores = kfold_mls(
            x, y, lambda x_tr, y_tr: lambda x_te, y_te: predict_logpdf_at(
                _refit(x_tr, y_tr), x_te, y_te), folds=folds, seed=SEED)
    mls_in, mls_in_se = log_score(predict_logpdf_at(pm, x, y))
    (tmp_path / "parts").mkdir()
    CalibrationReport(
        p_grid=P_GRID,
        p_tilde=probability_calibration(predict_cdf_at(pm, x, y), P_GRID),
        marginal_grid=grid,
        average_density=average_predictive_density(pm, x, grid),
        margin_density=fit.margin.pdf(grid),
        average_cdf=average_predictive_cdf(pm, x, grid),
        margin_cdf=fit.margin.cdf(grid), mls_in_sample=mls_in,
        mls_in_sample_se=mls_in_se, mls_kfold=mls_k, mls_kfold_se=mls_k_se,
        fold_scores=fold_scores).save(tmp_path / "parts")
    _same_files(tmp_path / "cli", tmp_path / "parts", CALIBRATE_FILES)


# -- the command line builds no report ----------------------------------------


#: What the two reports are built from; the command line calls the report
#: functions instead.
REPORT_PARTS = {
    "eval_simulation", "marginal_calibration_distance", "composite_scores",
    "predictive_expectation", "probability_calibration", "kfold_mls",
    "log_score", "average_predictive_cdf", "average_predictive_density",
    "margin_grid"}


def test_the_command_line_uses_no_part_of_a_report():
    with open(copreg.cli.__file__) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name.rpartition(".")[2], node.asname})
    assert not names & REPORT_PARTS


# -- one evaluation per row set -----------------------------------------------


TINY_VOLES = {**TINY_LFI, "simulator": "voles", "series_length": 20,
              "n_total": 16, "split": 0.75}


@pytest.fixture(scope="module")
def voles_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("voles")
    cfg = write_config(root / "lfi.json", TINY_VOLES)
    assert main(["lfi", "--config", cfg, "--out", str(root / "run"),
                 "--seed", str(SEED)]) == 0
    return root / "run"


def test_voles_lfi_report_equals_its_parts_on_the_logit_axis(tmp_path,
                                                              voles_run):
    # lfi_report evaluates each posterior at the test series once for both
    # tables; eval_simulation and marginal_calibration_distance each on
    # their own give the same bytes, season_amplitude on its logit axis
    model = voles_model(series_length=TINY_VOLES["series_length"])
    assert model.prior.params[1].name == "season_amplitude"
    assert model.prior.params[1].axis == "logit"
    test = SimBatch.load_csv(str(voles_run / "test.csv"), prior=model.prior)
    models = [CopulaRegression.load(str(voles_run / f"param_{name}"))
              .predictive for name in model.prior.names]
    observed = test.series[0].astype(float)
    params = model.prior.params
    reference = model.prior.sample_matrix(np.random.default_rng(SEED + 1),
                                          20_000)
    rho_hat = np.array([prior.rounded(predictive_expectation(
        models[j], observed[None, :], func=prior.from_axis)[0])
        for j, prior in enumerate(params)])
    cls, ces = composite_scores(rho_hat, observed, model, reps=SCORE_REPS,
                                rng=np.random.default_rng(SEED))
    write_json(tmp_path / "lfi_report.json", {
        "simulator": "voles",
        "parameters": eval_simulation(models, test),
        "marginal_calibration": {prior.name: marginal_calibration_distance(
            models[j], test, prior.to_axis(reference[:, j]))
            for j, prior in enumerate(params)},
        "composite": {"log_score": cls, "neg_energy_score": ces,
                      "point_estimate": rho_hat.tolist()}})
    _same_files(voles_run, tmp_path, ["lfi_report.json"])


def _count_calls(monkeypatch, owner, name):
    """Record the first argument after ``self`` of every call of
    ``owner.name``, which goes on as before."""
    seen = []
    method = getattr(owner, name)

    def counting(self, values, *args, **kwargs):
        seen.append(np.array(values, dtype=float))
        return method(self, values, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return seen


def test_calibration_report_evaluates_each_row_set_once(tabular_fit,
                                                        monkeypatch):
    # location_scale ran four times over x, the margin twice at y and four
    # times on the grid (two kernels, margin.pdf and margin.cdf)
    bundle, dataset = tabular_fit
    fit = CopulaRegression.load(str(bundle))
    _, table = load_table(str(dataset))
    x, y = table[:, :-1], table[:, -1]
    grid = margin_grid(fit.margin, num=GRID)
    rows = _count_calls(monkeypatch, PredictiveModel, "location_scale")
    points = _count_calls(monkeypatch, MarginModel, "_evaluate")
    calibration_report(fit.predictive, x, y, GRID, folds=0)
    assert len(rows) == 1 and np.array_equal(rows[0], x)
    assert sum(np.array_equal(p, y) for p in points) == 1
    assert sum(np.array_equal(p, grid) for p in points) == 1


def test_lfi_report_extracts_each_basis_once_per_series_set(lfi_run,
                                                             monkeypatch):
    # each parameter's network ran over the test series three times: for
    # the posterior mean, the coverage and the calibration distance
    model, test, models, observed = _lfi_inputs(lfi_run)
    series = _count_calls(monkeypatch, Network, "extract_basis")
    lfi_report(models, test, observed, model, SEED, reps=SCORE_REPS)
    on_test = [s for s in series if np.array_equal(s, test.series)]
    on_observed = [s for s in series if np.array_equal(s, observed[None, :])]
    assert len(on_test) == len(on_observed) == len(models)
    assert len(series) == 2 * len(models)
