"""Command-line surface: configs, artifacts, exit codes, reproducibility."""

import ast
import contextlib
import filecmp
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copreg.cli import EXIT_CONFIG, EXIT_DATA, load_table, main


def write_config(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    rng = np.random.default_rng(0)
    n = 120
    x = rng.uniform(-1.0, 1.0, size=(n, 3))
    y = 1.2 * x[:, 0] + rng.gamma(2.0, 0.5, size=n)
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    rows = np.column_stack([x, y])
    np.savetxt(path, rows, delimiter=",", header="x1,x2,x3,response",
               comments="", fmt="%.17g")
    return str(path)


FAST_FIT = {
    "network": {"width": 8},
    "train": {"epochs": 20},
    "mcmc": {"variant": "ridge", "burnin": 50, "draws": 100},
}


#: What only the fit specs and the LFI fit loop may name: network builders,
#: training and sampler options, fit functions and per-parameter seeds.
FIT_PARTS = {"build_ffn", "build_cnn", "Dropout", "TrainConfig",
             "check_sampler", "fit_copula_regression", "lfi_fit", "param_seed"}


def test_the_command_line_builds_no_network_and_runs_no_fit_loop():
    import copreg.cli as cli

    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name.rpartition(".")[2], node.asname})
    assert not names & FIT_PARTS


def test_load_table_reports_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
    from copreg.errors import DataError
    with pytest.raises(DataError, match="row 3, column 'b'"):
        load_table(str(path))


def test_fit_writes_bundle(tmp_path, dataset_csv):
    cfg = write_config(tmp_path / "fit.json",
                       {"dataset": dataset_csv, **FAST_FIT})
    out = tmp_path / "bundle"
    assert main(["fit", "--config", cfg, "--out", str(out),
                 "--seed", "5"]) == 0
    for name in ("margin.json", "network.json", "draws.csv",
                 "draws_header.json", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert "config_hash" in manifest


def test_fit_with_a_network_too_large_for_memory_exits_config(
        tmp_path, capsys, dataset_csv, monkeypatch):
    # an oversized network.width is simulated: a real one would take the
    # machine's memory before numpy raised
    import copreg.pipeline as pipeline

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(pipeline, "build_ffn", out_of_memory)
    cfg = write_config(tmp_path / "fit.json",
                       {"dataset": dataset_csv, **FAST_FIT})
    out = tmp_path / "bundle"
    assert main(["fit", "--config", cfg, "--out", str(out),
                 "--seed", "5"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "network.width" in err
    assert not out.exists()


def test_fit_reruns_byte_identical(tmp_path, dataset_csv):
    cfg = write_config(tmp_path / "fit.json",
                       {"dataset": dataset_csv, **FAST_FIT})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["fit", "--config", cfg, "--out", str(out_a),
                 "--seed", "9"]) == 0
    assert main(["fit", "--config", cfg, "--out", str(out_b),
                 "--seed", "9"]) == 0
    for name in ("margin.json", "network.json", "draws.csv",
                 "draws_header.json", "manifest.json"):
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_predict_and_calibrate_commands(tmp_path, dataset_csv):
    fit_cfg = write_config(tmp_path / "fit.json",
                           {"dataset": dataset_csv, **FAST_FIT})
    bundle = tmp_path / "bundle"
    assert main(["fit", "--config", fit_cfg, "--out", str(bundle),
                 "--seed", "3"]) == 0

    pred_cfg = write_config(tmp_path / "pred.json",
                            {"bundle": str(bundle), "dataset": dataset_csv,
                             "grid_size": 64})
    pred_out = tmp_path / "pred"
    assert main(["predict", "--config", pred_cfg, "--out", str(pred_out),
                 "--seed", "3"]) == 0
    files = sorted(os.listdir(pred_out))
    assert "pred_00000.csv" in files

    cal_cfg = write_config(tmp_path / "cal.json",
                           {"bundle": str(bundle), "dataset": dataset_csv,
                            "folds": 2, "refit": FAST_FIT})
    cal_out = tmp_path / "cal"
    assert main(["calibrate", "--config", cal_cfg, "--out", str(cal_out),
                 "--seed", "3"]) == 0
    scores = json.loads((cal_out / "scores.json").read_text())
    assert np.isfinite(scores["mls_in_sample"])
    assert np.isfinite(scores["mls_kfold"])
    assert len(scores["fold_scores"]) == 2
    curve = np.loadtxt(cal_out / "probability_calibration.csv",
                       delimiter=",", skiprows=1)
    assert curve.shape == (99, 2)


def test_lfi_pipeline_end_to_end(tmp_path):
    cfg = write_config(tmp_path / "lfi.json", {
        "simulator": "blowfly",
        "series_length": 50,
        "n_total": 60,
        "split": 0.8,
        "score_reps": 60,
        "lfi_fit": {"kernel_sizes": [7, 5], "filter_counts": [4, 3],
                    "dense_width": 8, "epochs": 6, "batch_size": 48,
                    "variant": "ridge", "burnin": 40, "draws": 60},
    })
    out = tmp_path / "lfi"
    assert main(["lfi", "--config", cfg, "--out", str(out),
                 "--seed", "11"]) == 0
    report = json.loads((out / "lfi_report.json").read_text())
    assert report["simulator"] == "blowfly"
    assert len(report["parameters"]) == 6  # one row per model parameter
    first = next(iter(report["parameters"].values()))
    assert set(first) == {"mse", "se", "coverage"}
    assert np.isfinite(report["composite"]["log_score"])
    assert (out / "train.csv").exists() and (out / "test.csv").exists()


def test_lfi_simulate_deterministic(tmp_path):
    cfg = write_config(tmp_path / "sim.json", {
        "simulator": "blowfly", "series_length": 40, "n_total": 20,
        "split": 0.5})
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    for out in (out_a, out_b):
        assert main(["lfi-simulate", "--config", cfg, "--out", str(out),
                     "--seed", "2"]) == 0
    assert filecmp.cmp(out_a / "train.csv", out_b / "train.csv",
                       shallow=False)
    assert filecmp.cmp(out_a / "test.csv", out_b / "test.csv", shallow=False)


def test_voles_report_has_nine_rows(tmp_path):
    cfg = write_config(tmp_path / "voles.json", {
        "simulator": "voles",
        "series_length": 20,
        "n_total": 40,
        "split": 0.75,
        "score_reps": 40,
        "lfi_fit": {"kernel_sizes": [5, 3], "filter_counts": [3, 2],
                    "dense_width": 6, "epochs": 4, "batch_size": 30,
                    "variant": "ridge", "burnin": 30, "draws": 40},
    })
    out = tmp_path / "voles"
    assert main(["lfi", "--config", cfg, "--out", str(out),
                 "--seed", "21"]) == 0
    report = json.loads((out / "lfi_report.json").read_text())
    assert len(report["parameters"]) == 9


def test_lfi_score_runs_on_voles_with_estimates_in_prior_support(tmp_path):
    # At these sizes and seed the season amplitude, regressed on the log
    # axis, had a posterior-mean estimate of 1, outside [0, 1), and
    # lfi-score exited 4; on its prior's logit axis the estimate stays inside.
    from copreg.lfi.priors import PriorSpec

    prior_file = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src", "copreg", "data",
        "voles_prior.json")
    cfg = write_config(tmp_path / "voles.json", {
        "simulator": "voles", "prior_file": prior_file, "n_total": 16,
        "split": 0.75, "series_length": 32, "score_reps": 20,
        "data_dir": str(tmp_path / "data"), "fit_dir": str(tmp_path / "fit"),
        "lfi_fit": {"kernel_sizes": [9, 3], "filter_counts": [16, 4],
                    "dense_width": 50, "epochs": 20, "batch_size": 64,
                    "patience": 20, "variant": "ridge", "burnin": 30,
                    "draws": 30},
    })
    for task, out in (("lfi-simulate", "data"), ("lfi-fit", "fit"),
                      ("lfi-score", "score")):
        assert main([task, "--config", cfg, "--out", str(tmp_path / out),
                     "--seed", "84"]) == 0, task
    report = json.loads((tmp_path / "score" / "lfi_report.json").read_text())
    estimate = report["composite"]["point_estimate"]
    for value, param in zip(estimate, PriorSpec.load(prior_file).params):
        manifest = json.loads(
            (tmp_path / "fit" / f"param_{param.name}" / "manifest.json")
            .read_text())
        assert manifest["axis"] == param.axis
        assert value > 0.0, param.name
        if param.dist == "logitnormal":
            assert value < 1.0, param.name
        if param.integer:
            assert value == round(value) and value >= 1.0, param.name


def test_kfold_score_stays_finite_for_a_response_beyond_the_training_range(
        tmp_path):
    # The held-out response 30 units past the largest training response has
    # a predictive density that underflows to 0, but a log density of a few
    # thousand below zero, which is the honest score.
    rng = np.random.default_rng(12)
    n = 60
    x = rng.uniform(-1.0, 1.0, size=(n, 3))
    y = np.exp(rng.normal(0.0, 0.5, size=n))
    y[7] = np.delete(y, 7).max() + 30.0
    data = tmp_path / "outlier.csv"
    np.savetxt(data, np.column_stack([x, y]), delimiter=",",
               header="x1,x2,x3,response", comments="", fmt="%.17g")
    fit_cfg = write_config(tmp_path / "fit.json",
                           {"dataset": str(data), **FAST_FIT})
    assert main(["fit", "--config", fit_cfg, "--out",
                 str(tmp_path / "bundle"), "--seed", "4"]) == 0
    cal_cfg = write_config(tmp_path / "cal.json",
                           {"bundle": str(tmp_path / "bundle"),
                            "dataset": str(data), "folds": 3})
    assert main(["calibrate", "--config", cal_cfg, "--out",
                 str(tmp_path / "cal"), "--seed", "4"]) == 0
    scores = json.loads((tmp_path / "cal" / "scores.json").read_text())
    assert len(scores["fold_scores"]) == 3
    assert np.all(np.isfinite(scores["fold_scores"]))
    assert np.isfinite(scores["mls_kfold"])
    assert np.isfinite(scores["mls_kfold_se"])
    assert min(scores["fold_scores"]) < -100.0  # the outlier's fold


def test_exit_codes(tmp_path, dataset_csv):
    # missing config file
    assert main(["fit", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    # config without a seed
    cfg = write_config(tmp_path / "no_seed.json", {"dataset": dataset_csv})
    assert main(["fit", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    # missing dataset
    cfg2 = write_config(tmp_path / "bad_data.json",
                        {"dataset": str(tmp_path / "nope.csv"), "seed": 1})
    assert main(["fit", "--config", cfg2,
                 "--out", str(tmp_path / "o")]) == EXIT_DATA


def test_fit_bundle_keeps_variant_and_refit_honours_config(
        tmp_path, dataset_csv, monkeypatch):
    import copreg.pipeline as pipeline
    from copreg.nnet.layers import Dropout
    from copreg.pipeline import CopulaRegression

    fit_cfg = write_config(tmp_path / "fit.json", {
        "dataset": dataset_csv, "network": {"width": 8, "dropout": 0.1},
        "train": {"epochs": 10},
        "mcmc": {"variant": "ridge", "burnin": 20, "draws": 40, "thin": 2}})
    bundle = tmp_path / "bundle"
    assert main(["fit", "--config", fit_cfg, "--out", str(bundle),
                 "--seed", "4"]) == 0
    meta = CopulaRegression.load(str(bundle)).meta
    assert meta["variant"] == "ridge"
    assert meta["thin"] == 2
    assert meta["task"] == "fit"

    calls = []
    real_fit = pipeline.fit_copula_regression

    def spy(x, y, **kwargs):
        calls.append(kwargs)
        return real_fit(x, y, **kwargs)

    monkeypatch.setattr(pipeline, "fit_copula_regression", spy)
    cal_cfg = write_config(tmp_path / "cal.json",
                           {"bundle": str(bundle), "dataset": dataset_csv,
                            "folds": 2})
    assert main(["calibrate", "--config", cal_cfg,
                 "--out", str(tmp_path / "cal"), "--seed", "4"]) == 0
    assert len(calls) == 2
    for kwargs in calls:
        assert kwargs["variant"] == "ridge"
        assert kwargs["thin"] == 2
        rates = [layer.rate for layer in kwargs["network"].layers
                 if isinstance(layer, Dropout)]
        assert rates and all(rate == 0.1 for rate in rates)


@pytest.mark.parametrize("task,options", [
    ("fit", {"train": {"epochs": 0}}),
    ("fit", {"train": {"epoch": 3}}),
    ("lfi-fit", {"lfi_fit": {"epochs": 0}}),
    ("lfi-fit", {"lfi_fit": {"epoch": 3}}),
    ("lfi", {"lfi_fit": {"epochs": 0}}),
])
def test_bad_training_options_exit_config(tmp_path, dataset_csv, task,
                                          options):
    payload = {"dataset": dataset_csv, "simulator": "blowfly",
               "data_dir": str(tmp_path / "no_data"), **options}
    cfg = write_config(tmp_path / "bad.json", payload)
    out = tmp_path / "out"
    assert main([task, "--config", cfg, "--out", str(out),
                 "--seed", "1"]) == EXIT_CONFIG
    assert not (out / "train.csv").exists()


@pytest.mark.parametrize("task,options", [
    ("fit", {"network": {"dropout": 1.0}}),
    ("fit", {"network": {"depth": 3}}),
    ("fit", {"mcmc": {"variant": "lasso"}}),
    ("lfi-fit", {"lfi_fit": {"variant": "lasso"}}),
    ("lfi", {"lfi_fit": {"variant": "lasso"}}),
    ("fit", {"mcmc": {"draws": 0}}),
    ("fit", {"mcmc": {"draws": -3}}),
    ("fit", {"mcmc": {"thin": 0}}),
    ("fit", {"mcmc": {"thin": -1}}),
    ("fit", {"mcmc": {"burnin": -5}}),
    ("lfi-fit", {"lfi_fit": {"draws": 0}}),
    ("lfi-fit", {"lfi_fit": {"thin": 0}}),
    ("lfi", {"lfi_fit": {"burnin": -5}}),
    ("lfi", {"lfi_fit": {"draws": -3}}),
    ("lfi-fit", {"lfi_fit": {"draws": "many"}}),
    ("lfi-fit", {"lfi_fit": {"kernel_sizes": [7, 5, 3]}}),
    ("lfi", {"lfi_fit": {"kernel_sizes": [7, 5, 3]}}),
    ("lfi-fit", {"lfi_fit": {"kernel_sizes": 7}}),
    ("lfi-fit", {"lfi_fit": {"dense_width": 0}}),
    ("lfi", {"lfi_fit": {"dense_width": 0}}),
    ("lfi-fit", {"lfi_fit": {"filter_counts": [0, 2]}}),
    ("lfi", {"lfi_fit": {"filter_counts": [0, 2]}}),
    ("lfi-fit", {"lfi_fit": {"l2": -1}}),
    ("lfi", {"lfi_fit": {"l2": -1}}),
    ("lfi", {"series_length": 40, "lfi_fit": {"kernel_sizes": [60, 5]}}),
])
def test_bad_model_options_exit_config_before_loading_data(tmp_path, task,
                                                          options):
    # the dataset and data_dir do not exist: a data error (exit 3) would mean
    # the options were checked only after trying to load them
    payload = {"dataset": str(tmp_path / "missing.csv"),
               "simulator": "blowfly", "data_dir": str(tmp_path / "no_data"),
               **options}
    cfg = write_config(tmp_path / "bad.json", payload)
    out = tmp_path / "out"
    assert main([task, "--config", cfg, "--out", str(out),
                 "--seed", "1"]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("task,options", [
    ("fit", {"train": [1, 2]}),
    ("fit", {"seed": "one"}),
    ("fit", {"seed": 2.5}),
    ("fit", {"seed": -1}),
    ("predict", {"grid_size": "fine"}),
    ("predict", {"grid_size": 0}),
    ("calibrate", {"grid_size": "fine"}),
    ("calibrate", {"folds": "ten"}),
    ("calibrate", {"folds": -1}),
    ("lfi-simulate", {"n_total": "many"}),
    ("lfi-simulate", {"n_total": -3}),
    ("lfi-simulate", {"n_total": 0}),
    ("lfi-simulate", {"n_total": 2.5}),
    ("lfi-simulate", {"n_total": True}),
    ("lfi-simulate", {"n_total": float("inf")}),
    ("lfi-simulate", {"split": "most"}),
    ("lfi-simulate", {"split": 1.0}),
    ("lfi-simulate", {"series_length": "long"}),
    ("lfi-simulate", {"series_length": -2}),
    ("lfi-simulate", {"series_length": 0}),
    ("lfi-simulate", {"simulator": "voles", "series_length": 0}),
    ("lfi-score", {"score_reps": "lots"}),
    ("lfi-score", {"score_reps": 0}),
    ("lfi-score", {"train_frac": "most"}),
    ("lfi-score", {"train_frac": float("nan")}),
    ("lfi", {"score_reps": "lots"}),
    ("lfi", {"n_total": 0}),
    ("fit", {"train": {"epochs": 2.5}}),
    ("fit", {"train": {"batch_size": 2.5}}),
    ("fit", {"train": {"batch_size": -5}}),
    ("fit", {"train": {"patience": 0}}),
    ("fit", {"train": {"learning_rate": -1}}),
    ("fit", {"train": {"epochs": True}}),
    ("fit", {"network": {"width": 2.5}}),
    ("fit", {"mcmc": {"burnin": "10"}}),
    ("fit", {"mcmc": {"draws": 5.7}}),
    ("lfi-fit", {"lfi_fit": {"epochs": 2.5}}),
    ("lfi-fit", {"lfi_fit": {"batch_size": 2.5}}),
    ("lfi-fit", {"lfi_fit": {"batch_size": -5}}),
    ("lfi-fit", {"lfi_fit": {"patience": 0}}),
    ("lfi-fit", {"lfi_fit": {"burnin": 5.9}}),
    ("lfi", {"lfi_fit": {"epochs": True}}),
    ("fit", {"train": {"learning_rate": True}}),
    ("fit", {"train": {"beta1": 0.5}}),  # Adam's constants are not options
    ("fit", {"train": {"eps": -1}}),
    ("fit", {"network": {"dropout": False}}),
    ("lfi-fit", {"lfi_fit": {"l2": True}}),
    ("lfi-score", {"score_reps": 1}),
    ("lfi", {"score_reps": 1}),
    ("lfi", {"train_frac": 0.999}),  # no pair in 275 steps
])
def test_bad_config_values_exit_config_without_a_traceback(
        tmp_path, capsys, task, options):
    # the config seed is used (no --seed), and no input exists: a config
    # error must come before any data is read or written
    payload = {"dataset": str(tmp_path / "missing.csv"),
               "bundle": str(tmp_path / "no_bundle"), "simulator": "blowfly",
               "data_dir": str(tmp_path / "no_data"),
               "fit_dir": str(tmp_path / "no_fit"), "seed": 1, **options}
    cfg = write_config(tmp_path / "bad.json", payload)
    out = tmp_path / "out"
    assert main([task, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("sigma", True), ("mu", "a"), ("mu", float("nan")), ("scale", 1.0)])
def test_bad_prior_file_entries_exit_config(tmp_path, capsys, key, value):
    shipped = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src", "copreg", "data",
        "blowfly_prior.json")
    with open(shipped) as fh:
        prior = json.load(fh)
    prior["params"][0][key] = value
    prior_file = write_config(tmp_path / "prior.json", prior)
    cfg = write_config(tmp_path / "sim.json", {
        "simulator": "blowfly", "prior_file": prior_file, "n_total": 4,
        "series_length": 20})
    out = tmp_path / "out"
    assert main(["lfi-simulate", "--config", cfg, "--out", str(out),
                 "--seed", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    '{"params": [1, 2]}', '{"params": {"name": "a"}}', '{"params": []}',
    '{"priors": []}', '[]', '{"params": [', '{"params": [{"name": "a", '
    '"dist": "lognormal", "mu": 0.0}]}'])
def test_bad_prior_files_exit_config(tmp_path, capsys, text):
    prior_file = tmp_path / "prior.json"
    prior_file.write_text(text)
    cfg = write_config(tmp_path / "sim.json", {
        "simulator": "blowfly", "prior_file": str(prior_file), "n_total": 4,
        "series_length": 20})
    out = tmp_path / "out"
    assert main(["lfi-simulate", "--config", cfg, "--out", str(out),
                 "--seed", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def _shipped_prior(simulator):
    return os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src", "copreg", "data",
        f"{simulator}_prior.json")


BLOWFLY_PARAMS = ("survival_rate", "recruitment_scale", "scaling_pop",
                  "recruit_noise_var", "delay", "survival_noise_var")


@pytest.mark.parametrize("case", ["short", "swapped", "voles"])
@pytest.mark.parametrize("task", ["lfi-simulate", "lfi"])
def test_a_prior_off_the_simulator_parameters_exits_config(tmp_path, capsys,
                                                           task, case):
    # A prior row maps to the simulator's parameters by position.  A prior
    # one entry short ended in an IndexError; one with survival_rate and
    # recruit_noise_var swapped, or the voles prior, ran on with every
    # parameter mis-mapped.
    prior_file = _shipped_prior("blowfly")
    if case == "voles":
        prior_file = _shipped_prior("voles")
    else:
        with open(prior_file) as fh:
            prior = json.load(fh)
        params = prior["params"]
        if case == "short":
            del params[-1]
        else:
            params[0], params[3] = params[3], params[0]
        prior_file = write_config(tmp_path / "prior.json", prior)
    cfg = write_config(tmp_path / "sim.json", {
        "simulator": "blowfly", "prior_file": prior_file, "n_total": 8,
        "series_length": 20, "score_reps": 5,
        "lfi_fit": {"kernel_sizes": [5, 2], "filter_counts": [2, 2],
                    "dense_width": 4, "epochs": 2, "batch_size": 4,
                    "variant": "ridge", "burnin": 5, "draws": 5}})
    out = tmp_path / "out"
    assert main([task, "--config", cfg, "--out", str(out),
                 "--seed", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert ", ".join(BLOWFLY_PARAMS) in err
    assert not (out / "train.csv").exists()


@pytest.fixture(scope="module")
def toy_bundle(tmp_path_factory, dataset_csv):
    root = tmp_path_factory.mktemp("toy_bundle")
    cfg = write_config(root / "fit.json", {"dataset": dataset_csv, **FAST_FIT})
    assert main(["fit", "--config", cfg, "--out", str(root / "bundle"),
                 "--seed", "2"]) == 0
    return root / "bundle"


def _corrupt_table(path, kind):
    """Rewrite the CSV at ``path`` under its own header: a non-numeric
    cell, a short row, or no rows at all."""
    header = path.read_text().splitlines()[0]
    width = header.count(",") + 1
    good = ",".join(["1"] * width)
    body = {"cell": [good, ",".join(["1"] * (width - 1) + ["zz"])],
            "ragged": [good, ",".join(["1"] * (width - 1))],
            "header_only": []}[kind]
    path.write_text("\n".join([header, *body]) + "\n")


def _table_command(tmp_path, task, toy_bundle, dataset_csv):
    """(argv, the table that ``task`` reads) for a ``task`` whose input
    table is corrupted before it runs."""
    out = str(tmp_path / "out")
    if task == "fit":
        table = tmp_path / "data.csv"
        shutil.copy(dataset_csv, table)
        cfg = {"dataset": str(table), **FAST_FIT}
    elif task == "predict":
        bundle = tmp_path / "bundle"
        shutil.copytree(toy_bundle, bundle)
        table = bundle / "draws.csv"
        cfg = {"bundle": str(bundle), "dataset": dataset_csv}
    else:
        data = tmp_path / "data"
        data.mkdir()
        table = data / ("train.csv" if task == "lfi-fit" else "test.csv")
        table.write_text(",".join([f"rho_{j + 1}" for j in range(6)]
                                  + [f"d_{t + 1}" for t in range(20)]) + "\n")
        cfg = {"simulator": "blowfly", "data_dir": str(data),
               "fit_dir": str(tmp_path / "no_fit")}
    return ["--config", write_config(tmp_path / "cfg.json", cfg), "--out",
            out, "--seed", "1"], table


@pytest.mark.parametrize("kind", ["cell", "ragged", "header_only"])
@pytest.mark.parametrize("task", ["fit", "lfi-fit", "lfi-score", "predict"])
def test_malformed_input_tables_exit_data(tmp_path, capsys, toy_bundle,
                                          dataset_csv, task, kind):
    argv, table = _table_command(tmp_path, task, toy_bundle, dataset_csv)
    _corrupt_table(table, kind)
    assert main([task, *argv]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert str(table) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _margin_sample(change):
    """A margin.json edit: the sample becomes ``change(sample)``, with its
    hash recomputed so that only the sample's values are wrong."""
    def edit(text):
        doc = json.loads(text)
        sample = np.asarray(change(doc["sample"]), dtype=float)
        return json.dumps({**doc, "sample": sample.tolist(), "sample_sha256":
                           hashlib.sha256(sample.tobytes()).hexdigest()})
    return edit


def _set_cell(csv_text, column, value):
    """``csv_text`` with cell ``column`` of its first data row set to
    ``value``."""
    header, row, *rest = csv_text.splitlines()
    cells = row.split(",")
    cells[column] = value
    return "\n".join([header, ",".join(cells), *rest]) + "\n"


def _first_weight(text, value):
    """network.json with its first layer's first weight set to ``value``."""
    doc = json.loads(text)
    doc["layers"][0]["weights"][0][0] = value
    return json.dumps(doc)


@pytest.mark.parametrize("name,edit", [
    ("margin.json", lambda text: text[:-1]),
    ("margin.json", lambda text: "{}"),
    ("network.json", lambda text: json.dumps(
        {k: v for k, v in json.loads(text).items() if k != "input_shape"})),
    ("network.json", lambda text: "[]"),
    ("scaler.json", lambda text: '{"lo": [0.0]}'),
    ("draws_header.json", lambda text: '{"variant": "ridge"}'),
    ("draws_header.json", lambda text: "not json"),
    ("manifest.json", lambda text: "[1]"),
    pytest.param("scaler.json",
                 lambda text: '{"lo": [0.0, 0.0], "span": [1.0, 1.0]}',
                 id="scaler.json-narrower-than-network"),
    pytest.param("margin.json", lambda text: text.replace(
        '"eps_f": 1e-06', '"eps_f": 0.001'), id="margin.json-other-eps_f"),
    pytest.param("network.json", lambda text: json.dumps(
        {**json.loads(text), "layers": json.loads(text)["layers"][:-1]}),
        id="network.json-no-output-layer"),
    pytest.param("scaler.json", lambda text: json.dumps(
        {**json.loads(text), "span": json.loads(text)["span"][:-1]}),
        id="scaler.json-span-shorter-than-lo"),
    pytest.param("scaler.json", lambda text: json.dumps(
        {**json.loads(text), "span": [0.0] * len(json.loads(text)["span"])}),
        id="scaler.json-zero-span"),
    pytest.param("scaler.json", lambda text: json.dumps(
        {**json.loads(text), "lo": [math.nan] * len(json.loads(text)["lo"])}),
        id="scaler.json-nan-lo"),
    pytest.param("margin.json", lambda text: json.dumps(
        {**json.loads(text), "bandwidth": math.nan}),
        id="margin.json-nan-bandwidth"),
    pytest.param("margin.json", lambda text: json.dumps(
        {**json.loads(text), "bandwidth": math.inf}),
        id="margin.json-infinite-bandwidth"),
    pytest.param("margin.json", _margin_sample(lambda x: x[::-1]),
                 id="margin.json-reversed-sample"),
    pytest.param("margin.json", _margin_sample(lambda x: [math.nan, *x[1:]]),
                 id="margin.json-nan-in-sample"),
    pytest.param("margin.json", _margin_sample(lambda x: []),
                 id="margin.json-empty-sample"),
    pytest.param("network.json", lambda text: _first_weight(text, math.nan),
                 id="network.json-nan-weight"),
    pytest.param("network.json", lambda text: _first_weight(text, math.inf),
                 id="network.json-infinite-weight"),
    pytest.param("draws.csv", lambda text: _set_cell(text, 0, "nan"),
                 id="draws.csv-nan-beta"),
    pytest.param("draws.csv", lambda text: _set_cell(text, -1, "inf"),
                 id="draws.csv-infinite-scale"),
    pytest.param("draws.csv", lambda text: _set_cell(text, -1, "-1"),
                 id="draws.csv-negative-scale"),
])
def test_malformed_bundle_files_exit_data(tmp_path, capsys, toy_bundle,
                                          dataset_csv, name, edit):
    bundle = tmp_path / "bundle"
    shutil.copytree(toy_bundle, bundle)
    path = bundle / name
    path.write_text(edit(path.read_text()))
    cfg = write_config(tmp_path / "pred.json",
                       {"bundle": str(bundle), "dataset": dataset_csv})
    out = tmp_path / "out"
    assert main(["predict", "--config", cfg, "--out", str(out),
                 "--seed", "1"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and name in err
    assert not out.exists()


def test_lfi_fit_rejects_a_prior_that_does_not_match_the_data(tmp_path,
                                                              capsys):
    # blowfly training data (6 parameters) under the voles prior (9)
    cfg = write_config(tmp_path / "blowfly.json", {
        "simulator": "blowfly", "series_length": 20, "n_total": 10,
        "lfi_fit": {"kernel_sizes": [5, 2]}})
    data = tmp_path / "data"
    assert main(["lfi-simulate", "--config", cfg, "--out", str(data),
                 "--seed", "1"]) == 0
    voles = write_config(tmp_path / "voles.json", {
        "simulator": "voles", "data_dir": str(data),
        "lfi_fit": {"kernel_sizes": [5, 2]}})
    out = tmp_path / "fit"
    assert main(["lfi-fit", "--config", voles, "--out", str(out),
                 "--seed", "1"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "6" in err and "9" in err
    assert not out.exists()


# (task, block, key, low, high, whole, include_low): every numeric option of
# the ``fit`` network/train/mcmc blocks and of the ``lfi_fit`` block, valid
# in [low, high) when ``include_low`` is set and in (low, high) otherwise
NUMERIC_OPTIONS = [
    ("fit", "network", "width", 1, math.inf, True, True),
    ("fit", "network", "dropout", 0.0, 1.0, False, True),
    ("fit", "train", "epochs", 1, math.inf, True, True),
    ("fit", "train", "batch_size", 1, math.inf, True, True),
    ("fit", "train", "patience", 1, math.inf, True, True),
    ("fit", "train", "learning_rate", 0.0, math.inf, False, False),
    ("fit", "train", "val_fraction", 0.0, 1.0, False, False),
    ("fit", "mcmc", "burnin", 0, math.inf, True, True),
    ("fit", "mcmc", "draws", 1, math.inf, True, True),
    ("fit", "mcmc", "thin", 1, math.inf, True, True),
    ("lfi-fit", "lfi_fit", "kernel_sizes", 1, math.inf, True, True),
    ("lfi-fit", "lfi_fit", "filter_counts", 1, math.inf, True, True),
    ("lfi-fit", "lfi_fit", "dense_width", 1, math.inf, True, True),
    ("lfi-fit", "lfi_fit", "l2", 0.0, math.inf, False, True),
    ("lfi-fit", "lfi_fit", "epochs", 1, math.inf, True, True),
    ("lfi-fit", "lfi_fit", "batch_size", 1, math.inf, True, True),
    ("lfi-fit", "lfi_fit", "patience", 1, math.inf, True, True),
    ("lfi-fit", "lfi_fit", "burnin", 0, math.inf, True, True),
    ("lfi-fit", "lfi_fit", "draws", 1, math.inf, True, True),
    ("lfi-fit", "lfi_fit", "thin", 1, math.inf, True, True),
]
PAIRS = ("kernel_sizes", "filter_counts")


def _in_range(low, high, whole, include_low):
    if whole:
        # bounded: a network built before the data is read stays small
        ints = st.integers(low, low + 1000)
        return ints | ints.map(float)
    finite = high < math.inf
    return st.floats(low, high if finite else None,
                     exclude_min=not include_low, exclude_max=finite,
                     allow_nan=False, allow_infinity=False)


def _out_of_range(low, high, whole, include_low):
    bad = [st.booleans(), st.text(max_size=4),
           st.sampled_from([math.nan, math.inf, -math.inf]),
           st.integers(max_value=low - 1) if whole
           else st.floats(max_value=low, exclude_max=include_low,
                          allow_nan=False)]
    if high < math.inf:
        bad.append(st.floats(min_value=high, allow_nan=False))
    if whole:
        bad.append(st.floats(allow_nan=False, allow_infinity=False).filter(
            lambda v: not v.is_integer()))
    return st.one_of(bad)


def _run_with_option(task, block, key, value):
    """(exit code, stderr, whether ``--out`` exists) of ``task`` with one
    option set and neither its dataset nor its data directory present."""
    with tempfile.TemporaryDirectory() as tmp:
        payload = {"dataset": os.path.join(tmp, "missing.csv"),
                   "simulator": "blowfly",
                   "data_dir": os.path.join(tmp, "no_data"), "seed": 1,
                   block: {key: [value, 1] if key in PAIRS else value}}
        cfg = write_config(os.path.join(tmp, "cfg.json"), payload)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([task, "--config", cfg, "--out", out])
        return code, err.getvalue(), os.path.exists(out)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bad_numeric_options_exit_config(data):
    task, block, key, *bounds = data.draw(st.sampled_from(NUMERIC_OPTIONS))
    value = data.draw(_out_of_range(*bounds), label="value")
    code, err, wrote = _run_with_option(task, block, key, value)
    assert code == EXIT_CONFIG and err.startswith("config error: ")
    assert not wrote


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_numeric_options_in_range_pass_the_config_stage(data):
    task, block, key, *bounds = data.draw(st.sampled_from(NUMERIC_OPTIONS))
    value = data.draw(_in_range(*bounds), label="value")
    code, err, wrote = _run_with_option(task, block, key, value)
    assert code == EXIT_DATA and err.startswith("data error: ")
    assert not wrote


def test_config_that_is_not_an_object_exits_config(tmp_path):
    cfg = write_config(tmp_path / "list.json", [{"seed": 1}])
    assert main(["fit", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_calibrate_rejects_bad_refit_options_before_refitting(
        tmp_path, dataset_csv, monkeypatch):
    import copreg.pipeline as pipeline

    bundle = tmp_path / "bundle"
    fit_cfg = write_config(tmp_path / "fit.json",
                           {"dataset": dataset_csv, **FAST_FIT})
    assert main(["fit", "--config", fit_cfg, "--out", str(bundle),
                 "--seed", "2"]) == 0
    manifest = bundle / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["config"]["mcmc"]["variant"] = "lasso"
    manifest.write_text(json.dumps(doc))

    def no_refit(*args, **kwargs):
        raise AssertionError("refit started")

    monkeypatch.setattr(pipeline, "fit_copula_regression", no_refit)
    cal_cfg = write_config(tmp_path / "cal.json",
                           {"bundle": str(bundle), "dataset": dataset_csv,
                            "folds": 2})
    assert main(["calibrate", "--config", cal_cfg,
                 "--out", str(tmp_path / "cal"), "--seed", "2"]) == EXIT_CONFIG


@pytest.mark.parametrize("mcmc", [{"draws": 0}, {"thin": -1}, {"burnin": -5}])
def test_calibrate_rejects_bad_refit_sampler_sizes_before_refitting(
        tmp_path, dataset_csv, monkeypatch, mcmc):
    import copreg.pipeline as pipeline

    bundle = tmp_path / "bundle"
    fit_cfg = write_config(tmp_path / "fit.json",
                           {"dataset": dataset_csv, **FAST_FIT})
    assert main(["fit", "--config", fit_cfg, "--out", str(bundle),
                 "--seed", "2"]) == 0
    manifest = bundle / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["config"]["mcmc"].update(mcmc)
    manifest.write_text(json.dumps(doc))

    def no_refit(*args, **kwargs):
        raise AssertionError("refit started")

    monkeypatch.setattr(pipeline, "fit_copula_regression", no_refit)
    cal_cfg = write_config(tmp_path / "cal.json",
                           {"bundle": str(bundle), "dataset": dataset_csv,
                            "folds": 2})
    assert main(["calibrate", "--config", cal_cfg,
                 "--out", str(tmp_path / "cal"), "--seed", "2"]) == EXIT_CONFIG


def test_kfold_calibrate_refuses_bundles_that_fit_did_not_write(
        tmp_path, monkeypatch):
    # An lfi-fit bundle records no fit config: k-fold refits of it used to
    # fall back to the tabular defaults and score a different model.
    import copreg.pipeline as pipeline
    from copreg.lfi.priors import default_blowfly_prior

    cfg = write_config(tmp_path / "lfi.json", {
        "simulator": "blowfly", "series_length": 40, "n_total": 20,
        "split": 0.8, "data_dir": str(tmp_path / "data"),
        "lfi_fit": {"kernel_sizes": [7, 5], "filter_counts": [3, 2],
                    "dense_width": 6, "epochs": 2, "batch_size": 16,
                    "variant": "ridge", "burnin": 10, "draws": 20}})
    for task, out in (("lfi-simulate", "data"), ("lfi-fit", "fit")):
        assert main([task, "--config", cfg, "--out", str(tmp_path / out),
                     "--seed", "6"]) == 0, task
    bundle = tmp_path / "fit" / "param_delay"

    calls = []
    real_fit = pipeline.fit_copula_regression

    def spy(x, y, **kwargs):
        calls.append(kwargs)
        return real_fit(x, y, **kwargs)

    monkeypatch.setattr(pipeline, "fit_copula_regression", spy)
    cal_cfg = write_config(tmp_path / "cal.json", {
        "bundle": str(bundle), "dataset": str(tmp_path / "missing.csv"),
        "folds": 2})
    assert main(["calibrate", "--config", cal_cfg,
                 "--out", str(tmp_path / "cal"), "--seed", "6"]) == EXIT_CONFIG
    assert calls == []
    assert not (tmp_path / "cal").exists()

    # in-sample diagnostics need no refit and still run
    rows = np.loadtxt(tmp_path / "data" / "train.csv", delimiter=",",
                      skiprows=1)
    prior = default_blowfly_prior()
    j = prior.names.index("delay")
    series = rows[:, prior.dim:]
    table = np.column_stack([series, prior.params[j].to_axis(rows[:, j])])
    header = [f"d_{t + 1}" for t in range(series.shape[1])] + ["delay"]
    data = tmp_path / "delay.csv"
    np.savetxt(data, table, delimiter=",", header=",".join(header),
               comments="", fmt="%.17g")
    cal_cfg = write_config(tmp_path / "cal0.json", {
        "bundle": str(bundle), "dataset": str(data), "folds": 0,
        "grid_size": 32})
    assert main(["calibrate", "--config", cal_cfg,
                 "--out", str(tmp_path / "cal0"), "--seed", "6"]) == 0
    assert calls == []
    scores = json.loads((tmp_path / "cal0" / "scores.json").read_text())
    assert np.isfinite(scores["mls_in_sample"])


def test_lfi_fit_rejects_kernels_longer_than_the_series(tmp_path):
    # the series length is known only once train.csv is read; a kernel
    # longer than it is a config/data mismatch, not a numerical failure
    cfg = write_config(tmp_path / "lfi.json", {
        "simulator": "blowfly", "series_length": 40, "n_total": 10,
        "split": 0.8, "data_dir": str(tmp_path / "data"),
        "lfi_fit": {"kernel_sizes": [60, 5]}})
    assert main(["lfi-simulate", "--config", cfg, "--out",
                 str(tmp_path / "data"), "--seed", "1"]) == 0
    out = tmp_path / "fit"
    assert main(["lfi-fit", "--config", cfg, "--out", str(out),
                 "--seed", "1"]) == EXIT_CONFIG
    assert not list(out.glob("param_*"))


def test_every_command_writes_the_manifest_contract(tmp_path, dataset_csv):
    record = {"version", "seed", "config_hash", "config", "task"}

    def run(task, payload, out):
        cfg = write_config(tmp_path / f"{task}.json", payload)
        assert main([task, "--config", cfg, "--out", str(tmp_path / out),
                     "--seed", "3"]) == 0, task
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert record <= set(manifest), task
        assert manifest["task"] == task and manifest["seed"] == 3
        return manifest

    bundle = tmp_path / "bundle"
    manifest = run("fit", {"dataset": dataset_csv, **FAST_FIT}, "bundle")
    assert {"kind", "variant", "burnin", "thin"} <= set(manifest)
    header = json.loads((bundle / "draws_header.json").read_text())
    assert not {"seed", "burnin", "thin"} & set(header)
    assert (bundle / "scaler.json").exists()
    run("predict", {"bundle": str(bundle), "dataset": dataset_csv,
                    "grid_size": 32}, "pred")
    run("calibrate", {"bundle": str(bundle), "dataset": dataset_csv,
                      "folds": 0, "grid_size": 32}, "cal")

    lfi = {"simulator": "blowfly", "series_length": 30, "n_total": 20,
           "split": 0.8, "score_reps": 20, "data_dir": str(tmp_path / "data"),
           "fit_dir": str(tmp_path / "fit"),
           "lfi_fit": {"kernel_sizes": [5, 3], "filter_counts": [3, 2],
                       "dense_width": 6, "epochs": 2, "batch_size": 16,
                       "variant": "ridge", "burnin": 10, "draws": 10}}
    steps = {task: run(task, lfi, out) for task, out in (
        ("lfi-simulate", "data"), ("lfi-fit", "fit"), ("lfi-score", "score"))}
    param = tmp_path / "fit" / "param_delay"
    assert (param / "manifest.json").exists()
    assert not (param / "scaler.json").exists()
    # the full pipeline writes its own record last, not lfi-score's
    assert (run("lfi", lfi, "all")["param_names"]
            == steps["lfi-simulate"]["param_names"])


IMPORT_GUARD = """
import json, sys
from copreg.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
assert "scipy.stats" not in sys.modules
"""


def test_commands_never_import_scipy_stats(tmp_path, dataset_csv):
    # a fresh interpreter: the test modules import scipy.stats themselves
    bundle = str(tmp_path / "bundle")
    lfi = write_config(tmp_path / "lfi.json", {
        "simulator": "blowfly", "series_length": 30, "n_total": 20,
        "split": 0.8, "score_reps": 20, "lfi_fit": {
            "kernel_sizes": [5, 3], "filter_counts": [3, 2],
            "dense_width": 6, "epochs": 2, "batch_size": 16,
            "variant": "ridge", "burnin": 10, "draws": 10}})
    runs = [
        ("fit", write_config(tmp_path / "fit.json",
                             {"dataset": dataset_csv, **FAST_FIT}), bundle),
        ("calibrate", write_config(tmp_path / "cal.json", {
            "bundle": bundle, "dataset": dataset_csv, "folds": 2,
            "grid_size": 32}), "cal"),
        ("predict", write_config(tmp_path / "pred.json", {
            "bundle": bundle, "dataset": dataset_csv, "grid_size": 32}),
         "pred"),
        ("lfi", lfi, "lfi"),
    ]
    argv = [[task, "--config", cfg, "--out", str(tmp_path / out),
             "--seed", "3"] for task, cfg, out in runs]
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, json.dumps(argv)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def _write_rows(path, names, rows):
    np.savetxt(path, rows, delimiter=",", header=",".join(names),
               comments="", fmt="%.17g")
    return str(path)


@pytest.mark.parametrize("task,width", [
    ("calibrate", 5), ("calibrate", 3), ("calibrate", 2), ("predict", 2),
    ("predict", 1)])
def test_a_table_that_does_not_fit_the_bundle_exits_data(
        tmp_path, capsys, toy_bundle, task, width):
    # The bundle takes 3 features: predict needs at least 3 columns and
    # calibrate exactly 4.  A 1-feature table used to be broadcast over the
    # scaler's 3 columns, and calibrate exited 0 with a wrong report.
    rows = np.random.default_rng(width).uniform(-1.0, 1.0, size=(60, width))
    rows[:, -1] += 2.0
    data = _write_rows(tmp_path / "data.csv",
                       [f"c{j + 1}" for j in range(width)], rows)
    cfg = {"bundle": str(toy_bundle), "dataset": data, "grid_size": 32}
    if task == "calibrate":
        cfg["folds"] = 0
    out = tmp_path / "out"
    assert main([task, "--config", write_config(tmp_path / "cfg.json", cfg),
                 "--out", str(out), "--seed", "1"]) == EXIT_DATA
    err = capsys.readouterr().err
    need = "needs 4" if task == "calibrate" else "needs at least 3"
    assert err.startswith("data error: ") and data in err
    assert f"has {width} columns" in err and need in err
    assert "Traceback" not in err
    assert not out.exists()


def test_predict_on_series_shorter_than_the_bundle_input_exits_data(
        tmp_path, capsys):
    # a convolutional bundle fitted on 20-step series, read at 10 steps
    cfg = write_config(tmp_path / "lfi.json", {
        "simulator": "blowfly", "series_length": 20, "n_total": 12,
        "split": 0.75, "data_dir": str(tmp_path / "data"),
        "lfi_fit": {"kernel_sizes": [5, 2], "filter_counts": [2, 2],
                    "dense_width": 4, "epochs": 2, "batch_size": 4,
                    "variant": "ridge", "burnin": 5, "draws": 5}})
    for task, out in (("lfi-simulate", "data"), ("lfi-fit", "fit")):
        assert main([task, "--config", cfg, "--out", str(tmp_path / out),
                     "--seed", "3"]) == 0, task
    _, train = load_table(str(tmp_path / "data" / "train.csv"))
    observed = _write_rows(tmp_path / "observed.csv",
                           [f"d_{t + 1}" for t in range(10)], train[:2, 6:16])
    pred_cfg = write_config(tmp_path / "pred.json", {
        "bundle": str(tmp_path / "fit" / "param_delay"),
        "dataset": observed, "grid_size": 32})
    out = tmp_path / "pred"
    assert main(["predict", "--config", pred_cfg, "--out", str(out),
                 "--seed", "3"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and observed in err
    assert "has 10 columns" in err and "needs at least 20" in err
    assert not out.exists()


def test_calibrate_with_more_folds_than_rows_exits_data_before_refitting(
        tmp_path, capsys, toy_bundle, dataset_csv, monkeypatch):
    # 100 folds of 60 rows left 40 folds empty: each refitted the model on
    # all 60 rows, and scores.json got "mls_kfold": NaN, which is not JSON
    import copreg.pipeline as pipeline

    def refit(*args, **kwargs):
        raise AssertionError("calibrate refitted the model")

    monkeypatch.setattr(pipeline, "fit_copula_regression", refit)
    names, rows = load_table(dataset_csv)
    data = _write_rows(tmp_path / "sixty.csv", names, rows[:60])
    cfg = write_config(tmp_path / "cal.json", {
        "bundle": str(toy_bundle), "dataset": data, "folds": 100})
    out = tmp_path / "cal"
    assert main(["calibrate", "--config", cfg, "--out", str(out),
                 "--seed", "1"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and data in err
    assert "60 rows" in err and "100 folds" in err
    assert not out.exists()


@pytest.mark.parametrize("rows", ["constant", "four"])
def test_a_response_no_margin_can_fit_exits_data(tmp_path, capsys,
                                                 dataset_csv, rows):
    # fewer than 5 responses, or no spread, ended in a traceback (exit 1)
    names, table = load_table(dataset_csv)
    if rows == "four":
        table = table[:4]
    else:
        table[:, -1] = 2.0
    data = _write_rows(tmp_path / "data.csv", names, table)
    cfg = write_config(tmp_path / "fit.json", {"dataset": data, **FAST_FIT})
    out = tmp_path / "bundle"
    assert main(["fit", "--config", cfg, "--out", str(out),
                 "--seed", "1"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "Traceback" not in err
    assert not out.exists()


TINY_LFI = {"simulator": "blowfly", "series_length": 30, "n_total": 10,
            "split": 0.8, "score_reps": 5,
            "lfi_fit": {"kernel_sizes": [5, 2], "filter_counts": [2, 2],
                        "dense_width": 4, "epochs": 2, "batch_size": 4,
                        "variant": "ridge", "burnin": 5, "draws": 5}}


@pytest.fixture(scope="module")
def lfi_runs(tmp_path_factory):
    """Blowfly ``param_*`` bundles fitted on length-30 series, and the
    length-30 and length-40 data directories."""
    root = tmp_path_factory.mktemp("lfi_runs")
    for length in (30, 40):
        cfg = write_config(root / f"sim{length}.json",
                           {**TINY_LFI, "series_length": length})
        assert main(["lfi-simulate", "--config", cfg, "--out",
                     str(root / f"data{length}"), "--seed", "3"]) == 0
    cfg = write_config(root / "fit.json", {**TINY_LFI,
                                           "data_dir": str(root / "data30")})
    assert main(["lfi-fit", "--config", cfg, "--out", str(root / "fit"),
                 "--seed", "3"]) == 0
    return root


def test_lfi_score_checks_the_window_before_loading_bundles(tmp_path,
                                                            capsys, lfi_runs):
    # 0.99 of 30 steps leaves no pair; the bundle directory does not exist
    cfg = write_config(tmp_path / "score.json", {
        **TINY_LFI, "train_frac": 0.99, "data_dir": str(lfi_runs / "data30"),
        "fit_dir": str(tmp_path / "no_fit")})
    out = tmp_path / "out"
    assert main(["lfi-score", "--config", cfg, "--out", str(out),
                 "--seed", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "length 30" in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["test_csv", "observed"])
def test_lfi_score_on_series_the_bundles_do_not_read_exits_data(
        tmp_path, capsys, lfi_runs, case):
    # both ended in the network's shape error (exit 4)
    payload = {**TINY_LFI, "data_dir": str(lfi_runs / "data30"),
               "fit_dir": str(lfi_runs / "fit")}
    if case == "test_csv":
        payload["data_dir"] = str(lfi_runs / "data40")
        source, width = str(lfi_runs / "data40" / "test.csv"), 40
    else:
        _, test = load_table(str(lfi_runs / "data30" / "test.csv"))
        source = _write_rows(tmp_path / "observed.csv", ["d_1", "d_2", "d_3"],
                             test[:1, 6:9])
        payload.update(observed_series=source, train_frac=0.5)
        width = 3
    out = tmp_path / "out"
    assert main(["lfi-score", "--config",
                 write_config(tmp_path / "score.json", payload),
                 "--out", str(out), "--seed", "1"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and source in err
    assert f"has {width} columns" in err and "needs 30" in err
    assert not out.exists()


@pytest.mark.parametrize("task", ["predict", "calibrate"])
def test_a_bundle_whose_draws_do_not_fit_its_network_exits_data(
        tmp_path, capsys, toy_bundle, dataset_csv, task):
    # the draws lose their last coefficient: predict and calibrate exited 4,
    # and predict left an empty output directory
    bundle = tmp_path / "bundle"
    shutil.copytree(toy_bundle, bundle)
    header = json.loads((bundle / "draws_header.json").read_text())
    q = header["q"]
    names, rows = load_table(str(bundle / "draws.csv"))
    keep = [j for j, name in enumerate(names)
            if name not in (f"beta_{q}", f"lam_{q}", f"nu_{q}")]
    _write_rows(bundle / "draws.csv", [names[j] for j in keep], rows[:, keep])
    header["q"] = q - 1
    (bundle / "draws_header.json").write_text(json.dumps(header))
    cfg = write_config(tmp_path / "cfg.json", {
        "bundle": str(bundle), "dataset": dataset_csv, "folds": 0,
        "grid_size": 32})
    out = tmp_path / "out"
    assert main([task, "--config", cfg, "--out", str(out),
                 "--seed", "1"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(bundle) in err
    assert f"{q - 1} coefficients" in err and f"basis width {q}" in err
    assert not out.exists()


def test_calibrate_on_a_fine_grid_stays_within_memory(tmp_path, toy_bundle,
                                                       dataset_csv):
    # the row block shrinks as the grid grows: 120 rows over 200000 points
    # at once peaked at 390 MB of arrays
    cfg = write_config(tmp_path / "cal.json", {
        "bundle": str(toy_bundle), "dataset": dataset_csv, "folds": 0,
        "grid_size": 200_000})
    tracemalloc.start()
    try:
        code = main(["calibrate", "--config", cfg, "--out",
                     str(tmp_path / "cal"), "--seed", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 100e6


@pytest.mark.parametrize("task,source,cell,value", [
    ("fit", "dataset", (2, 0), "nan"),
    ("fit", "dataset", (5, -1), "inf"),
    ("predict", "dataset", (0, 1), "nan"),
    ("calibrate", "dataset", (3, 2), "-inf"),
    ("lfi-fit", "train.csv", (1, 8), "nan"),
    ("lfi-score", "test.csv", (0, 0), "inf"),
    ("lfi-score", "observed_series", (0, 4), "nan"),
])
def test_a_non_finite_input_cell_exits_data(tmp_path, capsys, toy_bundle,
                                            dataset_csv, lfi_runs, task,
                                            source, cell, value):
    # fit exited 4 on a nan feature or an inf response; calibrate exited 0
    # and wrote NaN scores; predict exited 4 after writing its first files
    data = tmp_path / "data"
    shutil.copytree(lfi_runs / "data30", data)
    if source == "dataset":
        table = tmp_path / "table.csv"
        cfg = {"bundle": str(toy_bundle), "dataset": str(table), "folds": 0,
               **FAST_FIT}
        names, rows = load_table(dataset_csv)
    elif source == "observed_series":
        table = tmp_path / "observed.csv"
        cfg = {**TINY_LFI, "data_dir": str(data),
               "fit_dir": str(lfi_runs / "fit"), "observed_series": str(table)}
        names, rows = load_table(str(data / "test.csv"))
        names, rows = names[6:], rows[:, 6:]
    else:
        table = data / source
        cfg = {**TINY_LFI, "data_dir": str(data),
               "fit_dir": str(lfi_runs / "fit")}
        names, rows = load_table(str(table))
    rows[cell] = float(value)
    _write_rows(table, names, rows)
    out = tmp_path / "out"
    assert main([task, "--config", write_config(tmp_path / "cfg.json", cfg),
                 "--out", str(out), "--seed", "1"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {table}: non-finite value {value} "
                          f"at row {cell[0] + 2}, column "
                          f"{names[cell[1]]!r}")
    assert not out.exists()


@pytest.mark.parametrize("task,source,cell,value", [
    ("lfi-fit", "train.csv", (1, 8), 2.5),
    ("lfi-score", "test.csv", (0, 10), 0.001),
])
def test_a_non_whole_series_cell_exits_data(tmp_path, capsys, lfi_runs, task,
                                            source, cell, value):
    # series cells were rounded to the nearest count without a word
    data = tmp_path / "data"
    shutil.copytree(lfi_runs / "data30", data)
    names, rows = load_table(str(data / source))
    rows[cell] = value
    _write_rows(data / source, names, rows)
    cfg = {**TINY_LFI, "data_dir": str(data), "fit_dir": str(lfi_runs / "fit")}
    out = tmp_path / "out"
    assert main([task, "--config", write_config(tmp_path / "cfg.json", cfg),
                 "--out", str(out), "--seed", "1"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {data / source}: non-whole value "
                          f"{value!r} at row {cell[0] + 2}, column "
                          f"{names[cell[1]]!r}")
    assert not out.exists()


def test_calibrate_on_one_row_exits_data(tmp_path, capsys, toy_bundle,
                                         dataset_csv):
    # one row exited 0, warned "Degrees of freedom <= 0" and wrote
    # "mls_in_sample_se": NaN, which is not JSON
    names, rows = load_table(dataset_csv)
    data = _write_rows(tmp_path / "one.csv", names, rows[:1])
    cfg = write_config(tmp_path / "cal.json", {
        "bundle": str(toy_bundle), "dataset": data, "folds": 0})
    out = tmp_path / "cal"
    assert main(["calibrate", "--config", cfg, "--out", str(out),
                 "--seed", "1"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {data} has 1 row")
    assert not out.exists()
