"""Batch command-line surface.

Subcommands wire the library end to end from JSON configs: ``fit``,
``predict``, ``calibrate`` for tabular regression; ``lfi-simulate``,
``lfi-fit``, ``lfi-score`` (or ``lfi`` for all three) for the simulation
pipeline.  Every command is a pure function of (config, input files, seed):
reruns produce byte-identical outputs.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .calibration import calibration_report
from .errors import ConfigError, CopregError, DataError, checked_int
from .files import finite_input, load_json, load_table, write_json
from .lfi import (
    LfiFitConfig,
    SimBatch,
    SimModel,
    fit_all_parameters,
    generate_training,
    lfi_report,
)
from .lfi.priors import PriorSpec
from .lfi.scoring import REPS, TRAIN_FRAC, score_options
from .pipeline import CopulaRegression, FitConfig, config_hash, write_manifest
from .predict import GRID_SIZE, export_density_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


# -- input handling --------------------------------------------------------------


def _require(cfg, key, task):
    if key not in cfg:
        raise ConfigError(f"task {task!r} needs config key {key!r}")
    return cfg[key]


def _input_table(path):
    """(column names, matrix) of the table at ``path``, a model's input:
    DataError unless every cell is finite."""
    header, table = load_table(path)
    return header, finite_input(path, header, table)


def _record(cfg, seed, task):
    """The manifest fields of one command run."""
    return {"config": cfg, "config_hash": config_hash(cfg), "seed": seed,
            "task": task}


# -- tabular commands ----------------------------------------------------------------


def cmd_fit(cfg, out_dir, seed):
    spec = FitConfig.from_config(cfg)
    header, table = _input_table(_require(cfg, "dataset", "fit"))
    x, y = table[:, :-1], table[:, -1]
    fit = spec.fit(x, y, seed)
    fit.meta.update({"dataset": os.path.basename(cfg["dataset"]),
                     "response": header[-1], **_record(cfg, seed, "fit")})
    os.makedirs(out_dir, exist_ok=True)
    fit.save(out_dir)
    return EXIT_OK


def _check_width(source, width, fit, extra=None, bundle="the bundle"):
    """DataError naming ``source`` unless its ``width`` columns are what
    ``fit`` reads, its p inputs (features, or the steps of a series): at
    least p, of which ``predict`` reads the first p, or with ``extra``
    exactly p + ``extra`` (``calibrate``'s response, 1; ``lfi-score``'s
    series, 0)."""
    p = fit.network.input_shape[0]
    if width < p or (extra is not None and width != p + extra):
        need = f"at least {p}" if extra is None else p + extra
        raise DataError(f"{source} has {width} columns, but {bundle} needs "
                        f"{need}")


def _bundle_table(cfg, task, fit, response):
    """The ``dataset`` table of ``predict`` (its first p columns, the
    bundle's features) or, with ``response``, of ``calibrate`` (exactly the
    p features and then the response)."""
    path = _require(cfg, "dataset", task)
    _, table = _input_table(path)
    _check_width(path, table.shape[1], fit, 1 if response else None)
    return table[:, :fit.network.input_shape[0] + response]


def cmd_predict(cfg, out_dir, seed):
    grid_size = checked_int("grid_size", cfg.get("grid_size", GRID_SIZE), 1)
    bundle_dir = _require(cfg, "bundle", "predict")
    fit = CopulaRegression.load(bundle_dir)
    x = _bundle_table(cfg, "predict", fit, response=False)
    os.makedirs(out_dir, exist_ok=True)
    export_density_csv(fit.predictive, x, out_dir, num=grid_size)
    write_manifest(out_dir, _record(cfg, seed, "predict"))
    return EXIT_OK


def cmd_calibrate(cfg, out_dir, seed):
    folds = checked_int("folds", cfg.get("folds", 10), 0)
    grid_size = checked_int("grid_size", cfg.get("grid_size", GRID_SIZE), 1)
    bundle_dir = _require(cfg, "bundle", "calibrate")
    fit = CopulaRegression.load(bundle_dir)
    refit = None
    if folds >= 2:
        if fit.meta.get("task") != "fit" or "config" not in fit.meta:
            raise ConfigError(
                f"{bundle_dir} was not written by 'fit', so k-fold calibrate "
                "cannot refit its model; set 'folds' to 0 or 1 for "
                "in-sample diagnostics")
        spec = FitConfig.from_config(fit.meta["config"])

        def refit(x_tr, y_tr):
            return spec.fit(x_tr, y_tr, seed).predictive
    table = _bundle_table(cfg, "calibrate", fit, response=True)
    x, y = table[:, :-1], table[:, -1]
    if y.size < 2:
        raise DataError(f"{cfg['dataset']} has 1 row; calibrate needs at "
                        "least 2 for the standard error of its log score")
    if folds > y.size:
        raise DataError(f"{cfg['dataset']} has {y.size} rows, fewer than "
                        f"the {folds} folds")
    report = calibration_report(fit.predictive, x, y, grid_size, refit=refit,
                                folds=folds, seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    report.save(out_dir)
    write_manifest(out_dir, _record(cfg, seed, "calibrate"))
    return EXIT_OK


# -- simulation pipeline commands ----------------------------------------------------


def _sim_model(cfg):
    """The config's simulator, under its ``prior_file`` if one is set."""
    length = cfg.get("series_length")
    return SimModel(
        _require(cfg, "simulator", "lfi"),
        PriorSpec.load(cfg["prior_file"]) if cfg.get("prior_file") else None,
        None if length is None else checked_int("series_length", length, 1))


def _score_options(cfg, series_length=None):
    """The ``composite_scores`` options of a config, whose ``score_reps`` is
    the scorer's ``reps``; a ConfigError unless it can score with them, on a
    series of ``series_length`` when that is given."""
    return score_options(cfg.get("train_frac", TRAIN_FRAC),
                         cfg.get("score_reps", REPS), series_length,
                         error=ConfigError, reps_key="score_reps")


def cmd_lfi_simulate(cfg, out_dir, seed):
    model = _sim_model(cfg)
    n_total = checked_int("n_total", cfg.get("n_total", 2500), 1)
    train_b, test_b = generate_training(model, n_total,
                                        split=cfg.get("split", 0.8), seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    train_b.save_csv(os.path.join(out_dir, "train.csv"))
    test_b.save_csv(os.path.join(out_dir, "test.csv"))
    write_manifest(out_dir, {**_record(cfg, seed, "lfi-simulate"),
                             "param_names": list(model.prior.names)})
    return EXIT_OK


def cmd_lfi_fit(cfg, out_dir, seed, data_dir=None):
    model = _sim_model(cfg)
    LfiFitConfig.from_config(cfg)  # bad options exit before any data is read
    data_dir = data_dir or cfg.get("data_dir", out_dir)
    train_path = os.path.join(data_dir, "train.csv")
    train_b = SimBatch.load_csv(train_path, prior=model.prior)
    bundles = fit_all_parameters(
        train_b, LfiFitConfig.from_config(cfg, train_b.series_length), seed,
        return_bundle=True)
    os.makedirs(out_dir, exist_ok=True)
    for name, bundle in zip(model.prior.names, bundles):
        bundle.save(os.path.join(out_dir, f"param_{name}"))
    write_manifest(out_dir, _record(cfg, seed, "lfi-fit"))
    return EXIT_OK


def cmd_lfi_score(cfg, out_dir, seed, data_dir=None, fit_dir=None):
    model = _sim_model(cfg)
    _score_options(cfg)  # bad options exit before any data is read
    data_dir = data_dir or cfg.get("data_dir", out_dir)
    fit_dir = fit_dir or cfg.get("fit_dir", out_dir)
    test_path = os.path.join(data_dir, "test.csv")
    test_b = SimBatch.load_csv(test_path, prior=model.prior)
    observed, observed_path = test_b.series[0].astype(float), test_path
    if cfg.get("observed_series"):
        observed_path = cfg["observed_series"]
        observed = _input_table(observed_path)[1][0]
    score_opts = _score_options(cfg, observed.size)
    models = []
    for prior in model.prior.params:
        name = f"param_{prior.name}"
        bundle = CopulaRegression.load(os.path.join(fit_dir, name))
        if bundle.meta.get("axis") != prior.axis:
            raise DataError(f"{os.path.join(fit_dir, name, 'manifest.json')}"
                            f" records axis {bundle.meta.get('axis')!r}, not "
                            f"the prior's {prior.axis!r}")
        _check_width(f"the series of {test_path}", test_b.series_length,
                     bundle, 0, name)
        _check_width(f"the series of {observed_path}", observed.size,
                     bundle, 0, name)
        models.append(bundle.predictive)

    report = lfi_report(models, test_b, observed, model, seed, **score_opts)
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "lfi_report.json"), report)
    write_manifest(out_dir, _record(cfg, seed, "lfi-score"))
    return EXIT_OK


def cmd_lfi(cfg, out_dir, seed):
    """Full pipeline: simulate, fit every parameter, score; the manifest
    records this run, not its last step."""
    model = _sim_model(cfg)
    # reject bad fit and score options before simulating
    LfiFitConfig.from_config(cfg, model.series_length)
    _score_options(cfg, model.series_length)
    cmd_lfi_simulate(cfg, out_dir, seed)
    cmd_lfi_fit(cfg, out_dir, seed, data_dir=out_dir)
    cmd_lfi_score(cfg, out_dir, seed, data_dir=out_dir, fit_dir=out_dir)
    write_manifest(out_dir, {**_record(cfg, seed, "lfi"),
                             "param_names": list(model.prior.names)})
    return EXIT_OK


# -- entry point -------------------------------------------------------------------


TASKS = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "calibrate": cmd_calibrate,
    "lfi-simulate": cmd_lfi_simulate,
    "lfi-fit": cmd_lfi_fit,
    "lfi-score": cmd_lfi_score,
    "lfi": cmd_lfi,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="copreg",
        description="Distributional regression with network copulas")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="task", required=True)
    for name in TASKS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True,
                         help="JSON experiment config")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="overrides the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_json(args.config, ConfigError)
        seed = args.seed if args.seed is not None else cfg.get("seed")
        if seed is None:
            raise ConfigError("a seed is mandatory (config key or --seed)")
        return TASKS[args.task](cfg, args.out, checked_int("seed", seed, 0))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CopregError as exc:
        print(f"numerical failure ({args.task}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
