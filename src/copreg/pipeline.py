"""End-to-end estimation: margin, pseudo-responses, basis training, Gibbs.

Also houses the plain regression baseline (network fit to the raw response
with a homoscedastic Gaussian predictive) used for comparisons, and the
on-disk bundle format shared by the CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from . import __version__
from .copula import PosteriorDraws, check_sampler, run_mcmc_pseudo
from .errors import ConfigError, DataError, DomainError, ShapeError, checked_int
from .files import load_json, write_json
from .margin import MarginModel, fit_kde, to_pseudo
from .nnet import Dropout, Network, TrainConfig, build_ffn, train
from .predict import PredictiveModel


@dataclass
class FeatureScaler:
    """Min-max rescaling of continuous columns to [0, 1].

    Columns with at most two distinct values (indicators) pass through, as
    do zero-range columns.
    """

    lo: np.ndarray
    span: np.ndarray

    @classmethod
    def fit(cls, x):
        x = np.asarray(x, dtype=float)
        lo = x.min(axis=0)
        hi = x.max(axis=0)
        span = hi - lo
        for j in range(x.shape[1]):
            if np.unique(x[:, j]).size <= 2 or span[j] == 0.0:
                lo[j], span[j] = 0.0, 1.0
        return cls(lo=lo, span=span)

    def transform(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != self.lo.shape:
            raise ShapeError(f"{x.shape} input for {self.lo.size} columns")
        return (x - self.lo) / self.span

    def to_json(self):
        return json.dumps({"lo": self.lo.tolist(), "span": self.span.tolist()},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        lo = np.asarray(doc["lo"], dtype=float)
        span = np.asarray(doc["span"], dtype=float)
        if lo.ndim != 1 or span.shape != lo.shape:
            raise ShapeError(f"lo {lo.shape} and span {span.shape} must be "
                             "vectors of one length")
        if not (np.isfinite(lo).all() and np.isfinite(span).all()
                and (span > 0).all()):
            raise DomainError("lo must be finite and span finite and positive")
        return cls(lo=lo, span=span)


def write_manifest(out_dir, fields):
    """Write ``manifest.json`` in ``out_dir``: ``fields`` plus the package
    ``version``, keys sorted.  The one writer of that file."""
    write_json(os.path.join(out_dir, "manifest.json"),
               {"version": __version__, **fields})


@dataclass
class CopulaRegression:
    """Fitted model: the pieces of the three estimation steps plus access."""

    margin: MarginModel
    network: Network
    draws: PosteriorDraws
    scaler: FeatureScaler | None = None
    meta: dict = field(default_factory=dict)

    @property
    def predictive(self) -> PredictiveModel:
        net = self.network if self.scaler is None else _ScaledBasis(
            self.network, self.scaler)
        return PredictiveModel.from_draws(self.margin, net, self.draws)

    def save(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        Path(out_dir, "margin.json").write_text(self.margin.to_json())
        Path(out_dir, "network.json").write_text(self.network.to_json())
        self.draws.save_csv(os.path.join(out_dir, "draws.csv"),
                            os.path.join(out_dir, "draws_header.json"))
        if self.scaler is not None:
            Path(out_dir, "scaler.json").write_text(self.scaler.to_json())
        write_manifest(out_dir, {"kind": "copula-regression-bundle",
                                 **self.meta})

    @classmethod
    def load(cls, out_dir):
        """The bundle saved in ``out_dir``; DataError naming the file when
        one is missing or malformed."""
        def parse(loader, *names):
            paths = [os.path.join(out_dir, name) for name in names]
            for name, path in zip(names, paths):
                if not os.path.exists(path):
                    raise DataError(f"bundle is missing {name}")
            try:
                return loader(*paths)
            except (ValueError, LookupError, TypeError, AttributeError,
                    DomainError, ShapeError) as exc:
                raise DataError(f"malformed bundle file {' or '.join(paths)}: "
                                f"{type(exc).__name__}: {exc}") from None

        def from_text(from_json):
            return lambda path: from_json(Path(path).read_text())

        margin = parse(from_text(MarginModel.from_json), "margin.json")
        network = parse(from_text(Network.from_json), "network.json")
        draws = parse(PosteriorDraws.load_csv, "draws.csv",
                      "draws_header.json")
        scaler = None
        if os.path.exists(os.path.join(out_dir, "scaler.json")):
            scaler = parse(from_text(FeatureScaler.from_json), "scaler.json")
        # the draws are the coefficients of the dense output layer
        width = parse(lambda _: network.basis_width, "network.json")
        if draws.q != width:
            raise DataError(f"bundle {out_dir}: draws.csv has {draws.q} "
                            "coefficients, but network.json has basis width "
                            f"{width}")
        if scaler is not None and scaler.lo.shape != network.input_shape:
            raise DataError(f"bundle {out_dir}: scaler.json has "
                            f"{scaler.lo.size} columns, but network.json "
                            f"takes input {network.input_shape}")
        meta = parse(lambda path: load_json(path, DataError), "manifest.json")
        return cls(margin=margin, network=network, draws=draws, scaler=scaler,
                   meta=meta)


class _ScaledBasis:
    """Basis provider composing a feature scaler with a network."""

    def __init__(self, network, scaler):
        self.network = network
        self.scaler = scaler

    def extract_basis(self, x):
        return self.network.extract_basis(self.scaler.transform(x))


def _scaled_inputs(network, x):
    """``(scaler, network inputs)``: feature vectors are min-max rescaled,
    series (and other multi-axis inputs) stay raw."""
    if len(network.input_shape) != 1:
        return None, x
    scaler = FeatureScaler.fit(x)
    return scaler, scaler.transform(x)


def fit_copula_regression(x, y, variant="horseshoe", network=None,
                          train_cfg=None, burnin=1000, draws=1000, thin=1,
                          seed=0) -> CopulaRegression:
    """Three-step estimation of the copula regression.

    1. fit the nonparametric margin to ``y``;
    2. map to pseudo-responses, train the network on them, extract basis;
    3. Gibbs over the output-layer coefficients and shrinkage parameters.

    ``network`` defaults to the dense feed-forward preset, whose feature
    columns are rescaled to [0, 1]; a convolutional network for series
    features sees them raw.
    """
    # before any fitting
    burnin, draws, thin = check_sampler(variant, burnin, draws, thin)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] != y.size:
        raise DataError("feature rows must match response length")
    margin = fit_kde(y)
    z = to_pseudo(margin, y)

    if network is None:
        network = build_ffn(x.shape[1], seed=seed)
    scaler, x_in = _scaled_inputs(network, x)
    train(network, x_in, z, train_cfg or TrainConfig(seed=seed))

    basis = network.extract_basis(x_in)
    rng = np.random.default_rng(seed + 1)
    posterior = run_mcmc_pseudo(z, basis, variant, burnin=burnin, draws=draws,
                                rng=rng, thin=thin)
    meta = {"variant": variant, "seed": seed, "n": int(y.size),
            "q": int(posterior.q), "burnin": burnin, "thin": thin}
    return CopulaRegression(margin=margin, network=network, draws=posterior,
                            scaler=scaler, meta=meta)


def options(factory, block, key, **fixed):
    """``factory(**block, **fixed)`` (``fixed`` wins), with unknown or
    invalid options a ConfigError naming the config block ``key``."""
    try:
        return factory(**{**block, **fixed})
    except (TypeError, ValueError, DomainError, ShapeError) as exc:
        raise ConfigError(f"invalid {key!r} options: {exc}") from None


def _ffn_options(**block):
    """The :func:`build_ffn` keywords of a ``network`` block: its checked
    ``width`` and ``dropout`` (build_ffn's ``dropout_rate``)."""
    checks = {"width": lambda w: ("width", checked_int("width", w, 1)),
              "dropout": lambda r: ("dropout_rate", Dropout(r).rate)}
    unknown = sorted(block.keys() - checks.keys())
    if unknown:
        raise TypeError(f"unknown options {unknown}")
    return dict(checks[key](value) for key, value in block.items())


@dataclass
class FitConfig:
    """The tabular :class:`~copreg.lfi.LfiFitConfig`: the ``network``,
    ``train`` and ``mcmc`` blocks of a ``fit`` config, checked once, with the
    defaults of :func:`build_ffn`, :class:`TrainConfig` and check_sampler."""

    network: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    mcmc: dict = field(default_factory=dict)

    def __post_init__(self):
        options(check_sampler, self.mcmc, "mcmc")  # the fit converts it
        self.network = options(_ffn_options, self.network, "network")
        options(TrainConfig, self.train, "train")

    @classmethod
    def from_config(cls, cfg):
        """The spec of a ``fit`` config's three blocks."""
        return cls(**{key: cfg.get(key, {})
                      for key in ("network", "train", "mcmc")})

    def fit(self, x, y, seed) -> CopulaRegression:
        """The copula regression of (x, y), every step seeded by ``seed``."""
        try:
            network = build_ffn(x.shape[1], seed=seed, **self.network)
        except MemoryError:
            raise ConfigError(f"'network.width' of {self.network.get('width')}"
                              " is too large: its weights do not fit in "
                              "memory") from None
        return fit_copula_regression(
            x, y, network=network,
            train_cfg=TrainConfig(**{**self.train, "seed": seed}),
            seed=seed, **self.mcmc)


# -- plain regression baseline ---------------------------------------------------


def _norm_pdf(y, loc, scale):
    """N(loc, scale^2) density in scipy.stats.norm.pdf's operation order.

    Written out so that no copreg process imports scipy.stats, which costs
    about half of the package's start-up time.
    """
    z = (y - loc) / scale
    return np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi) / scale


@dataclass
class GaussianBaseline:
    """Network regression on the raw response with N(f(x), sigma2) forecasts."""

    network: Network
    sigma2: float
    scaler: FeatureScaler | None = None

    def _mean(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.scaler is not None:
            x = self.scaler.transform(x)
        return self.network.forward(x)[:, 0]

    def density_at(self, x_rows, y_values):
        mu = self._mean(x_rows)
        return _norm_pdf(np.asarray(y_values, dtype=float), mu,
                         np.sqrt(self.sigma2))

    def cdf_at(self, x_rows, y_values):
        mu = self._mean(x_rows)
        return ndtr((np.asarray(y_values, dtype=float) - mu)
                    / np.sqrt(self.sigma2))

    def average_density(self, x_rows, y_grid):
        mu = self._mean(x_rows)
        y_grid = np.asarray(y_grid, dtype=float)
        return _norm_pdf(y_grid[None, :], mu[:, None],
                         np.sqrt(self.sigma2)).mean(axis=0)

    def average_cdf(self, x_rows, y_grid):
        mu = self._mean(x_rows)
        y_grid = np.asarray(y_grid, dtype=float)
        return ndtr((y_grid[None, :] - mu[:, None])
                    / np.sqrt(self.sigma2)).mean(axis=0)


def fit_gaussian_baseline(x, y, network=None, train_cfg=None,
                          seed=0) -> GaussianBaseline:
    """Train the same architecture directly on the response; estimate sigma2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if network is None:
        network = build_ffn(x.shape[1], seed=seed, output_bias=True)
    scaler, x_in = _scaled_inputs(network, x)
    train(network, x_in, y, train_cfg or TrainConfig(seed=seed))
    resid = y - network.forward(x_in)[:, 0]
    sigma2 = float(np.mean(resid * resid))
    if sigma2 == 0.0:
        sigma2 = 1e-12
    return GaussianBaseline(network=network, sigma2=sigma2, scaler=scaler)


def config_hash(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
