"""Workloads: seeded inputs and the copreg commands of one round.

Every workload is a closed loop of CLI commands run one after another in a
single process.  ``prepare`` writes the inputs (tables, configs) into a work
directory and returns a :class:`Workload` whose ``commands`` make up one round.
Inputs depend only on the workload name, the seed and the scale, so the same
seed gives byte-identical inputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

NAMES = ("tabular-large", "tabular-kfold", "lfi-blowfly", "lfi-voles")

#: Input sets per run, each with its own data.  A run's times average over
#: them, so they do not hang on how costly one seed's data happens to be.
POOL = 9

#: Commands whose outputs are the fitted bundles (``fit_s``); the rest of a
#: round loads bundles and evaluates them (``score_s``).
FIT_TASKS = ("fit", "lfi-simulate", "lfi-fit")

# Per-workload sizes.  "full" is what the benchmark measures; "smoke" is the
# toy scale of ``run.py --smoke``, which exercises the same commands and
# every correctness check in a few seconds per workload.
SCALES = {
    "full": {
        "tabular-large": {"n": 1500, "p": 13, "new_rows": 8, "epochs": 20,
                          "burnin": 60, "draws": 60, "grid": 512},
        "tabular-kfold": {"n": 250, "p": 13, "epochs": 20, "burnin": 40,
                          "draws": 40, "folds": 10, "grid": 512},
        "lfi-blowfly": {"n_total": 24, "series_length": 100, "split": 0.75,
                        "kernel_sizes": [15, 5], "filter_counts": [16, 4],
                        "dense_width": 50, "epochs": 16, "batch_size": 64,
                        "burnin": 30, "draws": 30, "variant": "horseshoe",
                        "score_reps": 200, "score": "lfi-score"},
        "lfi-voles": {"n_total": 16, "series_length": 32, "split": 0.75,
                      "kernel_sizes": [9, 3], "filter_counts": [16, 4],
                      "dense_width": 50, "epochs": 20, "batch_size": 64,
                      "burnin": 30, "draws": 30, "variant": "ridge",
                      "score": "predict", "observed": 2},
    },
    "smoke": {
        "tabular-large": {"n": 200, "p": 13, "new_rows": 3, "epochs": 5,
                          "burnin": 20, "draws": 20, "grid": 128},
        "tabular-kfold": {"n": 120, "p": 13, "epochs": 5, "burnin": 10,
                          "draws": 10, "folds": 3, "grid": 128},
        "lfi-blowfly": {"n_total": 30, "series_length": 40, "split": 0.8,
                        "kernel_sizes": [9, 3], "filter_counts": [4, 2],
                        "dense_width": 8, "epochs": 2, "batch_size": 32,
                        "burnin": 10, "draws": 10, "variant": "horseshoe",
                        "score_reps": 50, "score": "lfi-score"},
        "lfi-voles": {"n_total": 20, "series_length": 16, "split": 0.8,
                      "kernel_sizes": [5, 2], "filter_counts": [4, 2],
                      "dense_width": 8, "epochs": 2, "batch_size": 32,
                      "burnin": 10, "draws": 10, "variant": "ridge",
                      "score": "predict", "observed": 2},
    },
}


@dataclass
class Workload:
    name: str
    seed: int
    work_dir: str
    scale: dict
    commands: list = field(default_factory=list)   # [(task, argv), ...]
    files: dict = field(default_factory=dict)      # role -> path


def synthetic_skewed_table(rng, n, p):
    """Features uniform on [0, 1]^p; response = smooth mean + lognormal noise.

    The recipe of ``tests/helpers.synthetic_skewed_regression``, scaled in n.
    """
    x = rng.uniform(0.0, 1.0, size=(n, p))
    mean = 1.0 * x[:, 0] + 0.6 * np.sin(3.0 * x[:, 1]) + 0.4 * x[:, 2] ** 2
    noise = np.exp(rng.normal(0.0, 0.9, size=n))
    return x, mean + noise


def _write_table(path, x, y):
    header = ",".join([f"x{j + 1}" for j in range(x.shape[1])] + ["y"])
    np.savetxt(path, np.column_stack([x, y]), delimiter=",", header=header,
               comments="", fmt="%.17g")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
    return path


def _argv(task, config, out, seed):
    return [task, "--config", config, "--out", out, "--seed", str(seed)]


def prepare_pool(name, seed, work_dir, scale="full"):
    """The POOL input sets of one run; set k is seeded by ``seed * POOL + k``.

    The sets of a posterior-reading workload share one block of observed
    series, so set-up simulates them once.
    """
    observed = None
    if SCALES[scale][name].get("score") == "predict":
        observed = _observed_series(name.split("-", 1)[1],
                                    SCALES[scale][name], seed)
    return [prepare(name, seed * POOL + k, os.path.join(work_dir, f"set{k}"),
                    scale=scale, observed=observed)
            for k in range(POOL)]


def _prior_file(simulator):
    import copreg
    return os.path.join(os.path.dirname(copreg.__file__), "data",
                        f"{simulator}_prior.json")


def prepare(name, seed, work_dir, scale="full", observed=None) -> Workload:
    """Write the inputs of ``name`` for ``seed`` and return its round.

    ``observed`` holds the series a posterior-reading workload evaluates;
    by default they are simulated from ``seed``.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    sc = SCALES[scale][name]
    os.makedirs(work_dir, exist_ok=True)
    wl = Workload(name=name, seed=seed, work_dir=work_dir, scale=sc)
    path = lambda *parts: os.path.join(work_dir, *parts)  # noqa: E731
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name.startswith("tabular"):
        x, y = synthetic_skewed_table(rng, sc["n"], sc["p"])
        _write_table(path("train.csv"), x, y)
        wl.files.update(train=path("train.csv"), bundle=path("bundle"),
                        cal=path("cal"))
        train_opts = {"epochs": sc["epochs"], "patience": sc["epochs"]}
        if name == "tabular-large":
            x_new, y_new = synthetic_skewed_table(rng, sc["new_rows"], sc["p"])
            _write_table(path("new.csv"), x_new, y_new)
            wl.files.update(new=path("new.csv"), pred=path("pred"))
            fit_cfg = {"dataset": path("train.csv"),
                       "network": {"width": 64, "dropout": 0.1},
                       "train": train_opts,
                       "mcmc": {"variant": "ridge", "burnin": sc["burnin"],
                                "draws": sc["draws"]}}
            cal_cfg = {"bundle": path("bundle"), "dataset": path("train.csv"),
                       "folds": 0, "grid_size": sc["grid"]}
            pred_cfg = {"bundle": path("bundle"), "dataset": path("new.csv"),
                        "grid_size": sc["grid"]}
            wl.commands = [
                ("fit", _argv("fit", _write_json(path("fit.json"), fit_cfg),
                              path("bundle"), seed)),
                ("calibrate", _argv("calibrate",
                                    _write_json(path("calibrate.json"),
                                                cal_cfg),
                                    path("cal"), seed)),
                ("predict", _argv("predict",
                                  _write_json(path("predict.json"), pred_cfg),
                                  path("pred"), seed)),
            ]
        else:
            fit_cfg = {"dataset": path("train.csv"),
                       "network": {"width": 64, "dropout": 0.5},
                       "train": train_opts,
                       "mcmc": {"variant": "horseshoe", "burnin": sc["burnin"],
                                "draws": sc["draws"]}}
            cal_cfg = {"bundle": path("bundle"), "dataset": path("train.csv"),
                       "folds": sc["folds"], "grid_size": sc["grid"]}
            wl.commands = [
                ("fit", _argv("fit", _write_json(path("fit.json"), fit_cfg),
                              path("bundle"), seed)),
                ("calibrate", _argv("calibrate",
                                    _write_json(path("calibrate.json"),
                                                cal_cfg),
                                    path("cal"), seed)),
            ]
        return wl

    simulator = name.split("-", 1)[1]
    prior_file = _prior_file(simulator)
    fit_opts = {k: sc[k] for k in ("kernel_sizes", "filter_counts",
                                   "dense_width", "epochs", "batch_size",
                                   "burnin", "draws", "variant")}
    fit_opts["patience"] = sc["epochs"]
    cfg = {"simulator": simulator, "n_total": sc["n_total"],
           "split": sc["split"],
           "series_length": sc["series_length"], "prior_file": prior_file,
           "data_dir": path("data"), "fit_dir": path("fit"),
           "lfi_fit": fit_opts}
    if sc["score"] == "lfi-score":
        cfg["score_reps"] = sc["score_reps"]
    config = _write_json(path("lfi.json"), cfg)
    wl.files.update(config=config, data=path("data"), fit=path("fit"))
    wl.commands = [
        ("lfi-simulate", _argv("lfi-simulate", config, path("data"), seed)),
        ("lfi-fit", _argv("lfi-fit", config, path("fit"), seed)),
    ]
    if sc["score"] == "lfi-score":
        wl.files["score"] = path("score")
        wl.commands.append(
            ("lfi-score", _argv("lfi-score", config, path("score"), seed)))
        return wl
    # Posterior densities at observed series, one predict per parameter:
    # lfi-score is not usable on voles (it exits 4 on some seeds, see
    # bench/README.md), and this is how a user reads a posterior off a fit.
    if observed is None:
        observed = _observed_series(simulator, sc, seed)
    header = ",".join(f"d_{t + 1}" for t in range(observed.shape[1]))
    np.savetxt(path("observed.csv"), observed, delimiter=",", header=header,
               comments="", fmt="%d")
    wl.files.update(observed=path("observed.csv"), pred=path("pred"))
    with open(prior_file) as fh:
        names = [p["name"] for p in json.load(fh)["params"]]
    for name in names:
        pred_cfg = {"bundle": os.path.join(path("fit"), f"param_{name}"),
                    "dataset": path("observed.csv"), "grid_size": 512}
        wl.commands.append(
            ("predict", _argv("predict",
                              _write_json(path(f"predict_{name}.json"),
                                          pred_cfg),
                              os.path.join(path("pred"), name), seed)))
    return wl


def _observed_series(simulator, sc, seed):
    """Series simulated at prior draws: the data whose posteriors are read."""
    from copreg.errors import SimulationDivergedError
    from copreg.lfi import blowfly_model, voles_model
    from copreg.lfi.priors import PriorSpec

    build = blowfly_model if simulator == "blowfly" else voles_model
    model = build(prior=PriorSpec.load(_prior_file(simulator)),
                  series_length=sc["series_length"])
    rng = np.random.default_rng([seed, NAMES.index(f"lfi-{simulator}"), 1])
    rows = []
    for _ in range(100 * sc["observed"]):
        rho = model.prior.sample_matrix(rng, 1)[0]
        try:
            rows.append(model.simulate(rho, rng))
        except SimulationDivergedError:
            continue
        if len(rows) == sc["observed"]:
            return np.asarray(rows)
    raise RuntimeError("too many diverged simulations for observed series")
