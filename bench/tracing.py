"""In-memory spans around copreg's layer boundaries, recorded from outside.

:func:`install` wraps the public functions of each layer, and each ``nnet``
layer class's ``forward``/``backward``, in place: on the defining module or
class and on every copreg module that imported the same function object, so
callers find the wrapper wherever they look the function up.  Nothing under
``src/`` is edited.  Spans are kept in memory and written out at the end of a
run; :func:`layer_metrics` derives the per-layer figures from them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Span recorder: (id, name, start, end, parent id, round) per span."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self.round = 0
        self.active = True

    def open(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, name, time.perf_counter(), None, parent,
                           self.round])
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, rnd in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "round": rnd,
                                     "workload": self.workload}) + "\n")


def _wrap(tracer, func, name, after):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return func(*args, **kwargs)
        sid = tracer.open(name)
        try:
            result = func(*args, **kwargs)
        except BaseException as exc:
            tracer.close(sid)
            if after is not None:
                after(tracer, args, kwargs, None, exc)
            raise
        tracer.close(sid)
        if after is not None:
            after(tracer, args, kwargs, result, None)
        return result
    return wrapper


def _patch(tracer, module_name, attr, name, after=None):
    """Wrap ``module.attr`` or ``module.Class.method`` under span ``name``."""
    module = importlib.import_module(module_name)
    owner_path, _, leaf = attr.rpartition(".")
    if owner_path:
        owner = getattr(module, owner_path)
        raw = inspect.getattr_static(owner, leaf)
        if isinstance(raw, classmethod):
            setattr(owner, leaf,
                    classmethod(_wrap(tracer, raw.__func__, name, after)))
        else:
            setattr(owner, leaf, _wrap(tracer, raw, name, after))
        return
    original = getattr(module, attr)
    wrapper = _wrap(tracer, original, name, after)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "copreg"
                               or mod_name.startswith("copreg.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


# -- hooks that turn call arguments or results into counts ---------------------------


def _count(key, fn=lambda a, k, r: 1):
    def after(tracer, args, kwargs, result, exc):
        if exc is None:
            tracer.counts[key] += fn(args, kwargs, result)
    return after


def _arg_size(args, kwargs, result):
    """Points evaluated or levels inverted by a ``MarginModel`` method."""
    return int(np.size(args[1]))


def _epochs(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["nnet.epochs"] += len(result[1]["val_loss"])


def _basis_rows(args, kwargs, result):
    return 1 if np.ndim(result) == 1 else int(np.shape(result)[0])


def _mcmc_diagnostics(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.samples["copula.mh_acceptance"].append(
            result.diagnostics["acceptance"])
        tracer.samples["copula.ess_scale"].append(
            result.diagnostics["ess_scale"])


def _location_rows(args, kwargs, result):
    return int(np.size(result[0]))


def _bundle_bytes(args, kwargs, result):
    out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
    return sum(os.path.getsize(os.path.join(out_dir, f))
               for f in os.listdir(out_dir))


def _simulate(tracer, args, kwargs, result, exc):
    from copreg.errors import SimulationDivergedError
    if isinstance(exc, SimulationDivergedError):
        tracer.counts["lfi.simulate.diverged"] += 1
        return
    if exc is not None:
        return
    reps = kwargs.get("reps")  # SimModel.simulate passes it by keyword
    if reps is None:
        tracer.counts["lfi.simulate.units"] += 1
    else:
        tracer.counts["lfi.simulate.replicates"] += int(reps)


def _simulate_batch(args, kwargs, result):
    return int(np.shape(result)[0])


# (module, attribute, span name, hook)
TARGETS = [
    ("copreg.margin", "fit_kde", "margin.fit_kde",
     _count("margin.fit_kde.calls")),
    ("copreg.margin", "MarginModel.cdf", "margin.eval",
     _count("margin.eval.points", _arg_size)),
    ("copreg.margin", "MarginModel.pdf", "margin.eval",
     _count("margin.eval.points", _arg_size)),
    ("copreg.margin", "MarginModel.logpdf", "margin.eval",
     _count("margin.eval.points", _arg_size)),
    ("copreg.margin", "MarginModel.quantile", "margin.quantile",
     _count("margin.quantile.levels", _arg_size)),
    ("copreg.nnet.training", "train", "nnet.train", None),
    ("copreg.nnet.training", "train_with_history", "nnet.train_with_history",
     _epochs),
    ("copreg.nnet.training", "AdamState.step", "nnet.adam", None),
    ("copreg.nnet.network", "Network.loss_and_grads", "nnet.loss_and_grads",
     _count("nnet.batches")),
    ("copreg.nnet.network", "Network.extract_basis", "nnet.extract_basis",
     _count("nnet.extract_basis.rows", _basis_rows)),
    ("copreg.copula", "run_mcmc_pseudo", "copula.run_mcmc",
     _mcmc_diagnostics),
    ("copreg.copula", "sample_beta", "copula.sample_beta",
     _count("copula.sweeps")),
    ("copreg.predict", "PredictiveModel.location_scale",
     "predict.location_scale",
     _count("predict.location_scale.rows", _location_rows)),
    ("copreg.predict", "TransformCurve.__init__", "predict.transform_curve",
     _count("predict.transform_curve.builds")),
    ("copreg.predict", "predictive_expectation", "predict.expectation", None),
    ("copreg.predict", "predict_density_at", "predict.pointwise", None),
    ("copreg.predict", "predict_cdf_at", "predict.pointwise", None),
    ("copreg.predict", "average_predictive_density", "predict.average", None),
    ("copreg.predict", "average_predictive_cdf", "predict.average", None),
    ("copreg.predict", "export_density_csv", "predict.export",
     _count("predict.export.files", lambda a, k, r: len(r))),
    ("copreg.calibration", "kfold_mls", "calibration.kfold",
     _count("calibration.refits", lambda a, k, r: len(r[2]))),
    ("copreg.pipeline", "fit_copula_regression", "pipeline.fit",
     _count("pipeline.fit.calls")),
    ("copreg.pipeline", "CopulaRegression.save", "pipeline.save",
     _count("pipeline.bundle_bytes", _bundle_bytes)),
    ("copreg.pipeline", "CopulaRegression.load", "pipeline.load", None),
    ("copreg.lfi.simulators", "simulate_blowfly", "lfi.simulate", _simulate),
    ("copreg.lfi.simulators", "simulate_voles", "lfi.simulate", _simulate),
    ("copreg.lfi.simulators", "simulate_blowfly_batch", "lfi.simulate",
     _count("lfi.simulate.replicates", _simulate_batch)),
    ("copreg.lfi.pipeline", "generate_training", "lfi.generate_training",
     None),
    ("copreg.lfi.pipeline", "lfi_fit", "lfi.fit", None),
    ("copreg.lfi.pipeline", "eval_simulation", "lfi.eval_simulation", None),
    ("copreg.lfi.pipeline", "marginal_calibration_distance",
     "lfi.calibration_distance", None),
    ("copreg.lfi.pipeline", "SimBatch.save_csv", "lfi.simbatch_io", None),
    ("copreg.lfi.pipeline", "SimBatch.load_csv", "lfi.simbatch_io", None),
    ("copreg.lfi.scoring", "composite_scores", "lfi.composite_scores", None),
    ("copreg.lfi.scoring", "energy_score", "lfi.energy_score",
     _count("lfi.energy_score.calls")),
    ("copreg.lfi.scoring", "bivariate_kde_logpdf", "lfi.kde_logpdf", None),
    ("copreg.cli", "load_table", "cli.load_table", None),
]

NNET_LAYERS = ("Conv1D", "BatchNorm", "MaxPool1D", "Dense", "Dropout",
               "Flatten")


def install(tracer):
    """Wrap every target; import copreg's modules first so all are patched."""
    for mod in ("copreg.cli", "copreg.lfi", "copreg.pipeline"):
        importlib.import_module(mod)
    for module_name, attr, name, after in TARGETS:
        _patch(tracer, module_name, attr, name, after)
    for cls in NNET_LAYERS:
        short = cls.lower()
        _patch(tracer, "copreg.nnet.layers", f"{cls}.forward",
               f"nnet.{short}.fwd")
        _patch(tracer, "copreg.nnet.layers", f"{cls}.backward",
               f"nnet.{short}.bwd")


# -- per-layer metrics -----------------------------------------------------------------


def _t(span):
    return ("s", "total", span)


def _n(key, unit="count"):
    return (unit, "count", key)


#: metric -> (unit, kind, source), grouped by layer.  "total" sums the
#: durations of spans named ``source``; "self" subtracts their direct
#: children; "count" is a hook counter; "mean" averages a hook's samples.
METRICS = {
    "margin.fit_kde.s": _t("margin.fit_kde"),
    "margin.fit_kde.calls": _n("margin.fit_kde.calls"),
    "margin.eval.s": _t("margin.eval"),
    "margin.eval.points": _n("margin.eval.points"),
    "margin.quantile.s": _t("margin.quantile"),
    "margin.quantile.levels": _n("margin.quantile.levels"),
    "nnet.train.s": _t("nnet.train"),
    "nnet.epochs": _n("nnet.epochs"),
    "nnet.batches": _n("nnet.batches"),
    "nnet.loss_and_grads.s": _t("nnet.loss_and_grads"),
    "nnet.adam.s": _t("nnet.adam"),
    "nnet.extract_basis.s": _t("nnet.extract_basis"),
    "nnet.extract_basis.rows": _n("nnet.extract_basis.rows"),
    **{f"nnet.{cls.lower()}.{d}_s": ("s", "total", f"nnet.{cls.lower()}.{d}")
       for cls in NNET_LAYERS for d in ("fwd", "bwd")},
    "copula.run_mcmc.s": _t("copula.run_mcmc"),
    "copula.sweeps": _n("copula.sweeps"),
    "copula.sample_beta.s": _t("copula.sample_beta"),
    "copula.theta_update.s": ("s", "self", "copula.run_mcmc"),
    "copula.mh_acceptance": ("ratio", "mean", "copula.mh_acceptance"),
    "copula.ess_scale": ("count", "mean", "copula.ess_scale"),
    "predict.location_scale.s": _t("predict.location_scale"),
    "predict.location_scale.rows": _n("predict.location_scale.rows"),
    "predict.transform_curve.builds": _n("predict.transform_curve.builds"),
    "predict.transform_curve.s": _t("predict.transform_curve"),
    "predict.expectation.s": _t("predict.expectation"),
    "predict.pointwise.s": _t("predict.pointwise"),
    "predict.average.s": _t("predict.average"),
    "predict.export.s": _t("predict.export"),
    "predict.export.files": _n("predict.export.files"),
    "calibration.kfold.s": _t("calibration.kfold"),
    "calibration.refits": _n("calibration.refits"),
    "pipeline.fit.s": _t("pipeline.fit"),
    "pipeline.fit.calls": _n("pipeline.fit.calls"),
    "pipeline.fit.self_s": ("s", "self", "pipeline.fit"),
    "pipeline.save.s": _t("pipeline.save"),
    "pipeline.load.s": _t("pipeline.load"),
    "pipeline.bundle_bytes": _n("pipeline.bundle_bytes", "B"),
    "lfi.simulate.s": _t("lfi.simulate"),
    "lfi.simulate.units": _n("lfi.simulate.units"),
    "lfi.simulate.diverged": _n("lfi.simulate.diverged"),
    "lfi.simulate.replicates": _n("lfi.simulate.replicates"),
    "lfi.generate_training.s": _t("lfi.generate_training"),
    "lfi.fit.s": _t("lfi.fit"),
    "lfi.eval_simulation.s": _t("lfi.eval_simulation"),
    "lfi.calibration_distance.s": _t("lfi.calibration_distance"),
    "lfi.simbatch_io.s": _t("lfi.simbatch_io"),
    "lfi.composite_scores.s": _t("lfi.composite_scores"),
    "lfi.energy_score.calls": _n("lfi.energy_score.calls"),
    "lfi.energy_score.s": _t("lfi.energy_score"),
    "lfi.kde_logpdf.s": _t("lfi.kde_logpdf"),
    **{f"cli.{task}.s": _t(f"cli.{task}")
       for task in ("fit", "calibrate", "predict", "lfi-simulate", "lfi-fit",
                    "lfi-score", "load_table")},
}

#: Metrics where a larger value is better; every other one is work or time.
HIGHER_IS_BETTER = ("copula.mh_acceptance", "copula.ess_scale")


def layer_metrics(tracer, rounds):
    """Per-round figures from the spans, counters and samples of a run.

    A span's self time is its duration minus its direct children's.  Times
    and counts are totals divided by the number of rounds; acceptance and
    ESS are means over the sampler runs.
    """
    total = defaultdict(float)
    self_time = defaultdict(float)
    child = defaultdict(float)
    for sid, name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    for sid, name, start, end, parent, _ in tracer.spans:
        total[name] += end - start
        self_time[name] += (end - start) - child[sid]
    out = {}
    for metric, (_, kind, source) in METRICS.items():
        if kind == "total":
            out[metric] = total[source] / rounds
        elif kind == "self":
            out[metric] = self_time[source] / rounds
        elif kind == "count":
            out[metric] = tracer.counts[source] / rounds
        else:
            vals = tracer.samples[source]
            out[metric] = float(np.mean(vals)) if vals else 0.0
    return out
