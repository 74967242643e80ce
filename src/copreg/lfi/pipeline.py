"""Likelihood-free inference: simulate under the prior, regress parameters on
series, read posteriors off the predictive distributions at the observed data.

Each scalar parameter gets its own regression with response rho_j on its
prior's axis (log or logit) and the raw series as features; the fitted
predictive density at a series is its approximate marginal posterior.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np


from ..copula import check_sampler
from ..errors import (
    ConfigError,
    DataError,
    DomainError,
    SimulationDivergedError,
    checked_float,
    checked_int,
)

from ..files import finite_input, load_table, whole_input, write_csv
from ..margin import PredictiveKernel
from ..nnet import TrainConfig, build_cnn
from ..pipeline import fit_copula_regression, options

from ..predict import (
    PredictiveModel,
    average_cdf,
    expectation,
    margin_grid,
    predictive_expectation,
)
from .priors import ParamPrior, PriorSpec, shipped_prior
from .scoring import REPS, TRAIN_FRAC, composite_scores
from .simulators import (
    BlowflyParams,
    VolesParams,
    integrate_voles_lockstep,
    simulate_blowfly,
    simulate_blowfly_batch,
    simulate_voles,
    voles_counts,
    voles_schedule,
)

logger = logging.getLogger(__name__)

#: Voles units integrated together by :func:`generate_training`; bounds its
#: (steps, units) matrix of normal draws.
VOLES_BLOCK = 256

#: Prior draws that :func:`lfi_report` compares each parameter's average
#: posterior against.
REFERENCE_DRAWS = 20_000

#: The one lookup of a simulator name: its parameter record, whose ``names``
#: a prior must list in that order, and its default series length.
SIMULATORS = {"blowfly": (BlowflyParams, 275), "voles": (VolesParams, 90)}


@dataclass
class SimModel:
    """A named simulator with its prior, by default the shipped
    ``data/<name>_prior.json``, and its series length."""

    name: str
    prior: PriorSpec | None = None
    series_length: int | None = None

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name in SIMULATORS):
            raise ConfigError(f"unknown simulator {self.name!r}")
        record, length = SIMULATORS[self.name]
        self.prior = self.prior or shipped_prior(self.name)
        if self.series_length is None:
            self.series_length = length
        if tuple(self.prior.names) != record.names:
            raise ConfigError(f"a {self.name} prior lists "
                              f"{', '.join(record.names)} in this order, "
                              f"not {', '.join(self.prior.names)}")

    def simulate(self, rho_row, rng, reps=None):
        """Series at one parameter row."""
        params = SIMULATORS[self.name][0].from_array(rho_row)
        if self.name == "voles":
            return simulate_voles(params, self.series_length, rng, reps=reps)
        if reps is None:
            return simulate_blowfly(params, self.series_length, rng)
        return simulate_blowfly_batch(params, self.series_length, reps, rng)


#: ``SimModel(name, prior=None, series_length=None)`` of each simulator.
blowfly_model = partial(SimModel, "blowfly")
voles_model = partial(SimModel, "voles")


@dataclass
class SimBatch:
    """Paired (parameters, series) draws from the joint model; ``prior`` owns
    the parameters' regression axes (all log when it is None)."""

    params: np.ndarray          # (n, p)
    series: np.ndarray          # (n, T) integer counts
    param_names: tuple
    seed: int = 0
    prior: PriorSpec | None = None

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        self.series = np.asarray(self.series)
        if self.params.shape[0] != self.series.shape[0]:
            raise DataError("params and series row counts differ")
        if np.any(self.series < 0):
            raise DataError("count series must be nonnegative")
        if self.prior is None:
            self.prior = PriorSpec([ParamPrior(name, "lognormal", 0.0, 1.0)
                                    for name in self.param_names])
        if self.prior.dim != self.params.shape[1]:
            raise DataError(f"{self.params.shape[1]} parameter columns, but "
                            f"the prior has {self.prior.dim} parameters")

    @property
    def n(self):
        return self.params.shape[0]

    @property
    def series_length(self):
        return self.series.shape[1]

    def save_csv(self, path):
        p = self.params.shape[1]
        t_len = self.series_length
        names = ([f"rho_{j + 1}" for j in range(p)]
                 + [f"d_{t + 1}" for t in range(t_len)])
        write_csv(path, names, np.hstack([self.params,
                                          self.series.astype(float)]))

    @classmethod
    def load_csv(cls, path, param_names=None, prior=None):
        header, rows = load_table(path)
        finite_input(path, header, rows)
        p = sum(1 for name in header if name.startswith("rho_"))
        whole_input(path, header[p:], rows[:, p:])
        names = param_names or (prior.names if prior else header[:p])
        return cls(params=rows[:, :p], series=rows[:, p:].astype(np.int64),
                   param_names=tuple(names), prior=prior)


def generate_training(model: SimModel, n_total, split=0.8, seed=0,
                      max_retries=100):
    """(train, test) batches of prior draws and their simulated series.

    Unit i runs on its own stream, ``default_rng`` of the i-th child of
    ``SeedSequence(seed)``: it draws rho from the prior, then the
    simulator's draws.  A diverged simulation is logged and rho resampled
    on the same stream, at most ``max_retries`` times.  Voles units are
    integrated together in blocks of :data:`VOLES_BLOCK` (see
    :func:`_voles_units`), with every unit's output the same as when
    simulated alone.
    """
    split = checked_float("split", split, 0.0, 1.0)
    max_retries = checked_int("max_retries", max_retries, 1)
    children = np.random.SeedSequence(seed).spawn(n_total)
    p = model.prior.dim
    params = np.empty((n_total, p))
    series = np.empty((n_total, model.series_length), dtype=np.int64)
    if model.name == "voles":
        _voles_units(model, children, params, series, max_retries)
    else:
        for i in range(n_total):
            params[i], series[i] = _unit(model, i, np.random.default_rng(
                children[i]), max_retries)
    n_train = int(round(split * n_total))
    names = tuple(model.prior.names)
    train_b = SimBatch(params[:n_train], series[:n_train], names, seed=seed,
                       prior=model.prior)
    test_b = SimBatch(params[n_train:], series[n_train:], names, seed=seed,
                      prior=model.prior)
    return train_b, test_b


def _unit(model, i, rng, max_retries):
    """Unit i's (rho, series): draw rho, simulate, resample on divergence."""
    for attempt in range(max_retries):
        rho = model.prior.sample_matrix(rng, 1)[0]
        try:
            return rho, model.simulate(rho, rng)
        except SimulationDivergedError:
            logger.warning("simulation diverged (unit %d, attempt %d); "
                           "resampling", i, attempt)
    raise DataError(f"unit {i}: exceeded {max_retries} resampling attempts")


def _voles_units(model, children, params, series, max_retries):
    """Fill ``params`` and ``series`` as :func:`_unit` would, unit by unit.

    Each unit draws rho, then all its normals in one call, which is the
    stream :func:`~.simulators.simulate_voles` draws; a block of units is
    then integrated in lockstep and each unit draws its counts.  A unit
    that diverged reruns :func:`_unit` from the start of its own stream.
    """
    steps, obs_steps = voles_schedule(model.series_length)
    normals = np.empty((steps, min(VOLES_BLOCK, len(children))))
    for start in range(0, len(children), VOLES_BLOCK):
        stop = min(start + VOLES_BLOCK, len(children))
        rngs, units, error = [], [], None
        for i in range(start, stop):
            rng = np.random.default_rng(children[i])
            params[i] = model.prior.sample_matrix(rng, 1)[0]
            try:
                units.append(VolesParams.from_array(params[i]))
            except DomainError as exc:  # raised after the units before it
                error = exc
                break
            normals[:, len(rngs)] = rng.standard_normal(steps)
            rngs.append(rng)
        prey, _, diverged = integrate_voles_lockstep(
            units, normals[:, :len(units)], obs_steps)
        for u, rng in enumerate(rngs):
            i = start + u
            if diverged[u] < 0:
                series[i] = voles_counts(units[u].obs_rate, prey[:, u], rng)
            else:
                params[i], series[i] = _unit(model, i, np.random.default_rng(
                    children[i]), max_retries)
        if error is not None:
            raise error


@dataclass
class LfiFitConfig:
    """Network and sampler settings for one per-parameter regression."""

    kernel_sizes: tuple = (31, 10)
    filter_counts: tuple = (31, 7)
    dense_width: int = 100
    l2: float = 1e-3
    epochs: int = 60
    batch_size: int = 256
    patience: int = 10
    variant: str = "horseshoe"
    burnin: int = 500
    draws: int = 500
    thin: int = 1

    def __post_init__(self):
        self.train_config(seed=0)  # bad training options fail here, early
        self.kernel_sizes = _positive_pair("kernel_sizes", self.kernel_sizes)
        self.filter_counts = _positive_pair("filter_counts",
                                            self.filter_counts)
        self.dense_width = checked_int("dense_width", self.dense_width, 1)
        self.l2 = checked_float("l2", self.l2, 0.0, include_low=True)
        self.burnin, self.draws, self.thin = check_sampler(
            self.variant, self.burnin, self.draws, self.thin)

    @classmethod
    def from_config(cls, cfg, series_length=None):
        """The checked ``lfi_fit`` block of a config, whose network must
        also fit series of ``series_length`` when that is given."""
        config = options(cls, cfg.get("lfi_fit", {}), "lfi_fit")
        if series_length is not None:
            options(config.network, {}, "lfi_fit", series_length=series_length)
        return config

    def train_config(self, seed) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                           patience=self.patience, seed=seed)

    def network(self, series_length, seed=0):
        """The untrained CNN for series of ``series_length``."""
        return build_cnn(series_length, kernel_sizes=self.kernel_sizes,
                         filter_counts=self.filter_counts,
                         dense_width=self.dense_width, l2=self.l2, seed=seed)


def _positive_pair(name, values):
    values = tuple(values)
    if len(values) != 2:
        raise ValueError(f"{name} needs two entries, got {list(values)}")
    return tuple(checked_int(name, v, 1) for v in values)


def lfi_fit(train_batch: SimBatch, param_index, config: LfiFitConfig = None,
            seed=0, return_bundle=False):
    """Marginal-posterior regressor for one parameter, on its prior's axis.

    The response is rho_j on that axis, which the bundle manifest records
    as ``axis``; features are the raw series.  Returns the
    :class:`~copreg.predict.PredictiveModel`, or the full serializable fit
    when ``return_bundle`` is set.
    """
    if train_batch.n == 0:
        raise DataError("empty training batch")
    cfg = config or LfiFitConfig()
    prior = train_batch.prior.params[param_index]
    response = prior.to_axis(train_batch.params[:, param_index])
    fit = fit_copula_regression(
        train_batch.series.astype(float), response, variant=cfg.variant,
        network=cfg.network(train_batch.series_length, seed),
        train_cfg=cfg.train_config(seed),
        burnin=cfg.burnin, draws=cfg.draws, thin=cfg.thin, seed=seed)
    fit.meta.update(param=prior.name, axis=prior.axis)
    return fit if return_bundle else fit.predictive


def param_seed(seed, j):
    """The :func:`lfi_fit` seed of parameter j in a run seeded ``seed``."""
    return seed * 7919 + j


def fit_all_parameters(train_batch: SimBatch, config: LfiFitConfig = None,
                       seed=0, return_bundle=False):
    """:func:`lfi_fit` of each parameter j, seeded ``param_seed(seed, j)``."""
    return [lfi_fit(train_batch, j, config=config, seed=param_seed(seed, j),
                    return_bundle=return_bundle)
            for j in range(train_batch.params.shape[1])]


def eval_simulation(models, test_batch: SimBatch):
    """Per-parameter point-estimation error and credible-interval coverage.

    MSE is over posterior means of rho_j on its prior's axis; coverage
    counts test truths inside the central 95% predictive interval, checked
    through the predictive CDF (exact for strictly increasing CDFs).
    """
    series = test_batch.series.astype(float)
    return {test_batch.param_names[j]: _test_errors(
        pm, *pm.location_scale(series), test_batch, j)
        for j, pm in enumerate(models)}


def _test_errors(pm, f, s, test_batch, j):
    """:func:`eval_simulation`'s entry for parameter j, whose posterior
    ``pm`` has the laws (f, s) at the test series."""
    alpha = 0.5 * (1.0 - 0.95)
    truth = test_batch.prior.params[j].to_axis(test_batch.params[:, j])
    est = expectation(pm.expectation_kernel(), f, s)
    sq_err = (est - truth) ** 2
    u = PredictiveKernel.cdf_only(pm.margin, truth).cdf(f, s)
    covered = (u >= alpha) & (u <= 1.0 - alpha)
    return {
        "mse": float(sq_err.mean()),
        "se": float(sq_err.std(ddof=1) / np.sqrt(sq_err.size)),
        "coverage": float(covered.mean()),
    }


def marginal_calibration_distance(pm: PredictiveModel, test_batch: SimBatch,
                                  reference_sample):
    """Sup distance between the test-averaged posterior CDF and the prior CDF.

    The reference is an independent prior sample on the parameter's axis
    (robust to integer parameters, where no closed-form density applies).
    """
    return _calibration_distance(
        pm, *pm.location_scale(test_batch.series.astype(float)),
        reference_sample)


def _calibration_distance(pm, f, s, reference_sample):
    """:func:`marginal_calibration_distance` of ``pm``, whose laws at the
    test series are (f, s)."""
    grid = margin_grid(pm.margin)
    avg_cdf = average_cdf(PredictiveKernel.cdf_only(pm.margin, grid), f, s)
    ref = np.sort(np.asarray(reference_sample, dtype=float))
    ref_cdf = np.searchsorted(ref, grid, side="right") / ref.size
    return float(np.max(np.abs(avg_cdf - ref_cdf)))


def lfi_report(models, test_batch: SimBatch, observed, model: SimModel, seed,
               train_frac=TRAIN_FRAC, reps=REPS):
    """The ``lfi_report.json`` of ``copreg lfi-score``: the posteriors
    ``models`` (one per parameter of ``model``'s prior, in order) judged on
    ``test_batch`` and on the ``observed`` series.

    - ``parameters``: :func:`eval_simulation` on the test batch;
    - ``marginal_calibration``: each parameter's
      :func:`marginal_calibration_distance` against
      :data:`REFERENCE_DRAWS` prior draws on its axis, drawn from
      ``default_rng(seed + 1)``;
    - ``composite``: :func:`~.scoring.composite_scores` of ``observed``,
      with replicates from ``default_rng(seed)``, at the point estimate:
      each posterior mean on the natural scale, rounded as its prior says.

    Each posterior is evaluated at the test series once, for both tables.
    """
    params = model.prior.params
    reference = model.prior.sample_matrix(np.random.default_rng(seed + 1),
                                          REFERENCE_DRAWS)
    series = test_batch.series.astype(float)
    table, calibration = {}, {}
    for j, (pm, prior) in enumerate(zip(models, params)):
        f, s = pm.location_scale(series)
        table[test_batch.param_names[j]] = _test_errors(pm, f, s,
                                                        test_batch, j)
        calibration[prior.name] = _calibration_distance(
            pm, f, s, prior.to_axis(reference[:, j]))
    rho_hat = np.array([
        prior.rounded(predictive_expectation(models[j], observed[None, :],
                                             func=prior.from_axis)[0])
        for j, prior in enumerate(params)])
    cls, ces = composite_scores(rho_hat, observed, model,
                                train_frac=train_frac, reps=reps,
                                rng=np.random.default_rng(seed))
    return {
        "simulator": model.name,
        "parameters": table,
        "marginal_calibration": calibration,
        "composite": {"log_score": cls, "neg_energy_score": ces,
                      "point_estimate": rho_hat.tolist()},
    }
