"""Nonparametric response margin: Gaussian KDE with a cross-validated bandwidth.

The margin supplies the density/CDF pair used everywhere downstream: the
pseudo-response transform ``z = ndtri(F(y))``, the density factor of the
predictive estimator, and quantiles for grids and intervals.  Bandwidth is
chosen by minimizing an unbiased least-squares cross-validation cost over a
fixed logarithmic grid, which keeps the fit deterministic for a given sample.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import logsumexp, ndtr, ndtri

from .errors import DegenerateMarginError, DomainError

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

#: Grid size for the bandwidth search.
BANDWIDTH_GRID_SIZE = 61

#: CDF values are clamped to [EPS_F, 1 - EPS_F] before ndtri.
EPS_F = 1e-6


@dataclass(frozen=True)
class MarginModel:
    """Fitted Gaussian-kernel margin.

    Attributes
    ----------
    sample : np.ndarray
        Sorted copy of the fitting sample.
    bandwidth : float
        Common kernel standard deviation, > 0.
    eps_f : float
        Clamp width applied to CDF values before the normal quantile map.
    """

    sample: np.ndarray
    bandwidth: float
    eps_f: float = EPS_F

    def __post_init__(self):
        object.__setattr__(self, "sample", np.asarray(self.sample, dtype=float))
        if self.bandwidth <= 0:
            raise DomainError("bandwidth must be positive")
        if not 0 < self.eps_f <= 0.01:
            raise DomainError("eps_f must lie in (0, 0.01]")

    # -- density / distribution ------------------------------------------

    def pdf(self, y):
        """Mixture density (1/n) sum_i phi((y - x_i)/h) / h."""
        y = np.asarray(y, dtype=float)
        t = (y[..., None] - self.sample) / self.bandwidth
        kern = np.exp(-0.5 * t * t)
        norm = self.sample.size * self.bandwidth * np.sqrt(2.0 * np.pi)
        return kern.sum(axis=-1) / norm

    def logpdf(self, y):
        """Log density via logsumexp; accurate far into the tails."""
        y = np.asarray(y, dtype=float)
        t = (y[..., None] - self.sample) / self.bandwidth
        out = logsumexp(-0.5 * t * t, axis=-1)
        return out - np.log(self.sample.size * self.bandwidth) - _LOG_SQRT_2PI

    def cdf(self, y):
        """Mixture CDF (1/n) sum_i Phi((y - x_i)/h); unclamped."""
        y = np.asarray(y, dtype=float)
        t = (y[..., None] - self.sample) / self.bandwidth
        return ndtr(t).mean(axis=-1)

    def quantile(self, u):
        """Inverse CDF by bisection to a width of 1e-10 or the float spacing.

        Accepts scalars or arrays; u must lie strictly inside (0, 1).
        """
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        if np.any((u_arr <= 0.0) | (u_arr >= 1.0)):
            raise DomainError("quantile level must lie strictly in (0, 1)")
        lo_val = self.sample[0] - 10.0 * self.bandwidth
        hi_val = self.sample[-1] + 10.0 * self.bandwidth
        # Widen until the bracket covers every requested level.
        span = hi_val - lo_val
        while self.cdf(lo_val) > u_arr.min():
            lo_val -= span
        while self.cdf(hi_val) < u_arr.max():
            hi_val += span
        lo = np.full(u_arr.shape, lo_val)
        hi = np.full(u_arr.shape, hi_val)
        while np.max(hi - lo) > 1e-10:
            mid = 0.5 * (lo + hi)
            # Far from zero 1e-10 is below the float spacing: stop once no
            # midpoint falls strictly inside its interval.
            if np.all((mid == lo) | (mid == hi)):
                break
            below = self.cdf(mid) < u_arr
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out = 0.5 * (lo + hi)
        return out if np.ndim(u) else float(out[0])

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "kind": "gaussian-kde-margin",
            "bandwidth": self.bandwidth,
            "eps_f": self.eps_f,
            "sample_sha256": hashlib.sha256(self.sample.tobytes()).hexdigest(),
            "sample": self.sample.tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MarginModel":
        payload = json.loads(text)
        model = cls(
            sample=np.asarray(payload["sample"], dtype=float),
            bandwidth=float(payload["bandwidth"]),
            eps_f=float(payload["eps_f"]),
        )
        digest = hashlib.sha256(model.sample.tobytes()).hexdigest()
        if digest != payload["sample_sha256"]:
            raise DomainError("margin sample hash mismatch")
        return model

    def grid_csv(self, path, num=512) -> None:
        """Write a two-column (y, pdf) grid plus a (y, cdf) companion block."""
        grid = np.linspace(*self.quantile([1e-4, 1.0 - 1e-4]), num)
        rows = np.column_stack([grid, self.pdf(grid), self.cdf(grid)])
        header = "y,pdf,cdf"
        np.savetxt(path, rows, delimiter=",", header=header, comments="", fmt="%.17g")


def _cv_cost(tri_sq: np.ndarray, n: int, h: float, work: np.ndarray) -> float:
    """Least-squares cross-validation cost of bandwidth ``h``.

    ``tri_sq`` holds the squared pairwise differences of the strict upper
    triangle.  The first term is the exact integral of the squared mixture
    density (kernel self-convolution at scale sqrt(2) h; the n diagonal terms
    contribute exactly n); the second is the leave-one-out fit term.
    exp(-q/4) is recovered as sqrt(exp(-q/2)), which only loses contributions
    already below 1e-150.
    """
    np.multiply(tri_sq, -0.5 / (h * h), out=work)
    np.exp(work, out=work)
    fit_sum = 2.0 * work.sum()
    np.sqrt(work, out=work)
    quad_sum = 2.0 * work.sum() + n
    quad = quad_sum / (2.0 * np.sqrt(np.pi) * h * n * n)
    fit = fit_sum / (np.sqrt(2.0 * np.pi) * h * n * (n - 1))
    return quad - 2.0 * fit


def fit_kde(y, eps_f: float = EPS_F) -> MarginModel:
    """Fit the margin: Gaussian KDE, bandwidth by grid-searched cross-validation.

    The search grid is 61 log-spaced bandwidths on [sd/(10 n), 10 sd], which
    brackets reference rules by orders of magnitude in both directions.

    Raises
    ------
    DegenerateMarginError
        If the sample has fewer than 5 points or zero variance.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.size < 5:
        raise DegenerateMarginError("need at least 5 observations to fit a margin")
    if not np.all(np.isfinite(y)):
        raise DomainError("margin sample must be finite")
    sd = float(np.std(y, ddof=1))
    if sd == 0.0:
        raise DegenerateMarginError("sample has zero variance")
    n = y.size
    grid = np.exp(np.linspace(np.log(sd / (10.0 * n)), np.log(10.0 * sd),
                              BANDWIDTH_GRID_SIZE))
    iu = np.triu_indices(n, k=1)
    tri = y[iu[0]] - y[iu[1]]
    tri_sq = tri * tri
    work = np.empty_like(tri_sq)
    costs = np.array([_cv_cost(tri_sq, n, h, work) for h in grid])
    best = int(np.argmin(costs))
    return MarginModel(sample=np.sort(y), bandwidth=float(grid[best]), eps_f=eps_f)


def to_pseudo(margin: MarginModel, y) -> np.ndarray:
    """Standard-normal pseudo-responses ndtri(clamp(F(y))); always finite."""
    u = margin.cdf(np.asarray(y, dtype=float))
    u = np.clip(u, margin.eps_f, 1.0 - margin.eps_f)
    return ndtri(u)


def _log_phi(t):
    return -0.5 * t * t - _LOG_SQRT_2PI


class PredictiveKernel:
    """The predictive law ``y0 = F^{-1}(Phi(z0))``, ``z0 ~ N(s f, s^2)``, at ``y``.

    With ``z = to_pseudo(margin, y)`` and residual ``r = (z - s f) / s`` the
    log density is ``log p_Y(y) - log phi(z) + log phi(r) - log s`` and the
    CDF ``Phi(r)``.  The margin is evaluated once, here; ``f`` and ``s``
    broadcast against ``y`` (scalars: one law on a grid; vectors: paired
    laws; ``(rows, 1)`` columns: a block of laws on a shared grid).
    """

    def __init__(self, margin: MarginModel, y):
        self.margin = margin
        self.y = np.asarray(y, dtype=float)
        self.z = to_pseudo(margin, self.y)

    @cached_property
    def _log_ratio(self):
        return self.margin.logpdf(self.y) - _log_phi(self.z)

    def residual(self, f, s):
        return (self.z - s * f) / s

    def logpdf(self, f, s):
        return self._log_ratio + _log_phi(self.residual(f, s)) - np.log(s)

    def cdf(self, f, s):
        return ndtr(self.residual(f, s))
