"""Parameter priors for the simulators, read from JSON.

The shipped priors, ``data/blowfly_prior.json`` and ``data/voles_prior.json``,
are documented stand-ins chosen to generate stable, informative series at
desk scale; a ``prior_file`` swaps in another prior without code edits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, checked_float
from ..files import load_json

DIST_KINDS = ("lognormal", "logitnormal")


@dataclass(frozen=True)
class ParamPrior:
    """One scalar prior: a Gaussian on a transformed axis.

    lognormal: log X ~ N(mu, sigma); logitnormal: logit X ~ N(mu, sigma)
    (support (0,1), used for rates that must stay below 1).  ``integer``
    rounds samples to the nearest integer >= 1 (lag parameters).
    """

    name: str
    dist: str
    mu: float
    sigma: float
    integer: bool = False

    def __post_init__(self):
        if self.dist not in DIST_KINDS:
            raise ConfigError(f"unknown prior kind {self.dist!r}")
        object.__setattr__(self, "mu", checked_float(
            f"{self.name} mu", self.mu, -math.inf))
        object.__setattr__(self, "sigma", checked_float(
            f"{self.name} sigma", self.sigma, 0.0))

    @property
    def axis(self):
        """The Gaussian axis: ``"log"`` (lognormal) or ``"logit"``."""
        return "log" if self.dist == "lognormal" else "logit"

    def to_axis(self, x):
        """Parameter values (an array) on the Gaussian axis."""
        return np.log(x) if self.axis == "log" else np.log(x / (1.0 - x))

    def from_axis(self, t):
        """Inverse of :meth:`to_axis` (exp or expit), without rounding."""
        return np.exp(t) if self.axis == "log" else 1.0 / (1.0 + np.exp(-t))

    def rounded(self, x):
        """``x`` rounded to the nearest integer >= 1 if ``integer``."""
        return np.maximum(np.rint(x), 1.0) if self.integer else x

    def sample(self, rng, size=None):
        return self.rounded(self.from_axis(rng.normal(self.mu, self.sigma,
                                                      size=size)))


@dataclass
class PriorSpec:
    """Ordered collection of per-parameter priors."""

    params: list = field(default_factory=list)

    @property
    def names(self):
        return [p.name for p in self.params]

    @property
    def dim(self):
        return len(self.params)

    def sample_matrix(self, rng, n):
        return np.column_stack([p.sample(rng, size=n) for p in self.params])

    @classmethod
    def load(cls, path):
        """The priors of a JSON file ``{"params": [entry, ...]}``, each entry
        an object of :class:`ParamPrior`'s fields; ConfigError otherwise."""
        entries = load_json(path, ConfigError).get("params")
        if not entries:
            raise ConfigError(f"prior file {path} needs a 'params' list")
        try:
            return cls(params=[ParamPrior(**entry) for entry in entries])
        except TypeError as exc:  # not an object, or a missing or unknown key
            raise ConfigError(f"prior file {path}: {exc}") from None


def shipped_prior(simulator) -> PriorSpec:
    """The prior shipped for ``simulator``, ``data/<simulator>_prior.json``."""
    return PriorSpec.load(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "data", f"{simulator}_prior.json"))


def default_blowfly_prior() -> PriorSpec:
    """Stand-in lognormal priors giving stable oscillatory count series."""
    return shipped_prior("blowfly")


def default_voles_prior() -> PriorSpec:
    """Stand-in priors around dimensionless values with seasonal cycling."""
    return shipped_prior("voles")
