"""Plug-in posterior predictive densities from margin + basis + posterior draws.

For a feature vector ``x0`` with basis ``psi``, the predictive law of the
response is the pseudo-response Gaussian ``z0 ~ N(s0 f, s0^2)`` pushed through
the margin transform ``y0 = F^{-1}(Phi(z0))``, where ``f = psi . beta_hat``
and ``s0`` averages the scaling factor over the retained shrinkage draws.
Density, CDF and quantiles are all available in closed form given the margin.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .copula import PosteriorDraws, scaling_factors
from .errors import DomainError, ShapeError
from .files import write_csv
from .margin import EPS_F, MarginModel, PredictiveKernel

#: Default single-density grids span this predictive quantile range.
GRID_TAIL = 1e-4

#: Default number of grid points.
GRID_SIZE = 512

#: Feature rows evaluated together by the row-averaged paths on grids of up
#: to GRID_SIZE points; see :func:`_row_block`.
ROW_CHUNK = 512


@dataclass
class PredictiveModel:
    """Everything needed to evaluate predictive distributions.

    ``network`` may be any object with an ``extract_basis(X)`` method
    returning one basis row per sample.
    """

    margin: MarginModel
    network: object
    beta_mean: np.ndarray
    theta_draws: list
    _var_matrix: np.ndarray | None = field(default=None, repr=False)
    _kernel: PredictiveKernel | None = field(default=None, repr=False)
    _curve: TransformCurve | None = field(default=None, repr=False)

    @classmethod
    def from_draws(cls, margin, network, draws: PosteriorDraws):
        return cls(margin=margin, network=network,
                   beta_mean=draws.beta_mean.copy(),
                   theta_draws=list(draws.theta_draws))

    @property
    def q(self):
        return self.beta_mean.size

    def var_matrix(self):
        """(J, q) prior-variance diagonals of the retained draws."""
        if self._var_matrix is None:
            self._var_matrix = np.vstack(
                [st.prior_variance_diag(self.q) for st in self.theta_draws])
        return self._var_matrix

    def expectation_kernel(self):
        """Cached kernel on a grid of step h / 32 over the union of the
        windows [x_i - 10 h, x_i + 10 h], where the margin CDF rises."""
        if self._kernel is None:
            x, h = self.margin.sample, self.margin.bandwidth
            step = h / 32.0
            grid = np.concatenate([
                seg[0] - 10.0 * h
                + step * np.arange((seg[-1] - seg[0] + 20.0 * h) // step + 1)
                for seg in np.split(x, np.flatnonzero(np.diff(x) > 20.0 * h) + 1)])
            self._kernel = PredictiveKernel(self.margin, grid)
        return self._kernel

    def transform_curve(self):
        """Cached :class:`TransformCurve` of the margin, for sampling."""
        if self._curve is None:
            self._curve = TransformCurve(self.margin)
        return self._curve

    def location_scale(self, x0):
        """(f_hat, s_hat) for one feature vector or a batch of them."""
        basis = self.network.extract_basis(np.asarray(x0, dtype=float))
        single = basis.ndim == 1
        basis = np.atleast_2d(basis)
        if basis.shape[1] != self.q:
            raise ShapeError(
                f"basis width {basis.shape[1]} != coefficient size {self.q}")
        f_hat = basis @ self.beta_mean
        # s0^[j] per draw, then the plain average over draws
        s_hat = scaling_factors(basis, self.var_matrix().T).mean(axis=1)
        if single:
            return float(f_hat[0]), float(s_hat[0])
        return f_hat, s_hat


def predict_density(pm: PredictiveModel, x0, y_grid) -> np.ndarray:
    """Predictive density evaluated on ``y_grid``; nonnegative everywhere."""
    f_hat, s_hat = pm.location_scale(x0)
    return np.exp(PredictiveKernel(pm.margin, y_grid).logpdf(f_hat, s_hat))


def predict_logpdf_at(pm: PredictiveModel, x_rows, y_values) -> np.ndarray:
    """Log density of each observation under its own predictive law (paired rows)."""
    f_hat, s_hat = pm.location_scale(np.atleast_2d(x_rows))
    return PredictiveKernel(pm.margin, y_values).logpdf(f_hat, s_hat)


def predict_density_at(pm: PredictiveModel, x_rows, y_values) -> np.ndarray:
    """Density of each observation under its own predictive law (paired rows)."""
    return np.exp(predict_logpdf_at(pm, x_rows, y_values))


def predict_cdf(pm: PredictiveModel, x0, y):
    """Predictive distribution function Phi((z(y) - s f) / s)."""
    f_hat, s_hat = pm.location_scale(x0)
    return PredictiveKernel.cdf_only(pm.margin, y).cdf(f_hat, s_hat)


def predict_cdf_at(pm: PredictiveModel, x_rows, y_values) -> np.ndarray:
    """CDF of each observation under its own predictive law (paired rows)."""
    return predict_cdf(pm, np.atleast_2d(x_rows), y_values)


def _margin_level(f_hat, s_hat, p):
    """Margin CDF level F(y) of the predictive p-quantile y; broadcasts."""
    u = ndtr(s_hat * f_hat + s_hat * ndtri(p))
    return np.clip(u, 1e-300, 1.0 - 1e-16)


def predict_quantile(pm: PredictiveModel, x0, p):
    """Exact inverse of the predictive CDF via the margin quantile map."""
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
        raise DomainError("quantile level must lie strictly in (0, 1)")
    f_hat, s_hat = pm.location_scale(x0)
    out = np.atleast_1d(pm.margin.quantile(_margin_level(f_hat, s_hat, p_arr)))
    return out if np.ndim(p) else float(out[0])


def sample_predictive(pm: PredictiveModel, x0, size, rng) -> np.ndarray:
    """Transform sampling z0 ~ N(s f, s^2), y0 = F^{-1}(Phi(z0)), on the curve."""
    f_hat, s_hat = pm.location_scale(x0)
    z0 = s_hat * f_hat + s_hat * rng.standard_normal(size)
    return pm.transform_curve().lookup(z0)


def default_grid(pm: PredictiveModel, x0, num=GRID_SIZE, tail=GRID_TAIL):
    """Grid covering the predictive quantile range (tail, 1 - tail)."""
    return np.linspace(*predict_quantile(pm, x0, [tail, 1.0 - tail]), num)


def margin_grid(margin: MarginModel, num=GRID_SIZE, tail=GRID_TAIL):
    """Shared grid covering the margin's quantile range; use for averages."""
    return np.linspace(*margin.quantile([tail, 1.0 - tail]), num)


def _row_block(points):
    """Feature rows evaluated together on a grid of ``points``: ROW_CHUNK up
    to GRID_SIZE points, then fewer, so that a block's (rows x points)
    arrays never exceed ROW_CHUNK x GRID_SIZE entries (at least one row)."""
    return max(1, ROW_CHUNK * GRID_SIZE // max(points, GRID_SIZE))


def _row_means(kernel, f_all, s_all, laws):
    """Mean over the laws (f_all, s_all) of each ``law(kernel, f, s, r)`` in
    ``laws`` on the kernel's grid, in row blocks of :func:`_row_block`; each
    block's residual ``r`` is computed once, for all of ``laws``."""
    totals = [np.zeros_like(kernel.z) for _ in laws]
    block = _row_block(kernel.z.size)
    for start in range(0, f_all.size, block):
        rows = slice(start, start + block)
        f, s = f_all[rows, None], s_all[rows, None]
        r = kernel.residual(f, s)
        for total, law in zip(totals, laws):
            total += law(kernel, f, s, r).sum(axis=0)
        del r  # else it is held while the next block's is computed
    return [total / f_all.size for total in totals]


def _density(kernel, f, s, r):
    logpdf = kernel.logpdf(f, s, r)
    return np.exp(logpdf, out=logpdf)  # in place: r is still held


def average_density_cdf(kernel, f_all, s_all):
    """``(mean density, mean CDF)`` of the predictive laws (f_all, s_all) on
    the kernel's grid, from one row loop."""
    return tuple(_row_means(kernel, f_all, s_all,
                            (_density, PredictiveKernel.cdf)))


def average_predictive_density(pm: PredictiveModel, x_rows,
                               y_grid) -> np.ndarray:
    """Pointwise mean of the predictive densities at each feature row."""
    f_all, s_all = pm.location_scale(np.asarray(x_rows, dtype=float))
    return _row_means(PredictiveKernel(pm.margin, y_grid), f_all, s_all,
                      (_density,))[0]


def average_cdf(kernel, f_all, s_all):
    """Mean CDF of the predictive laws (f_all, s_all) on the kernel's grid."""
    return _row_means(kernel, f_all, s_all, (PredictiveKernel.cdf,))[0]


def average_predictive_cdf(pm: PredictiveModel, x_rows, y_grid) -> np.ndarray:
    """Pointwise mean of the predictive CDFs; the marginal-calibration curve."""
    f_all, s_all = pm.location_scale(np.asarray(x_rows, dtype=float))
    return average_cdf(PredictiveKernel.cdf_only(pm.margin, y_grid), f_all,
                       s_all)


def export_density_csv(pm: PredictiveModel, x_rows, out_dir, num=GRID_SIZE):
    """One (y, density, cdf) CSV ``pred_<index>.csv`` per observation;
    returns the paths.

    Each file's grid is the row's :func:`default_grid`.
    """
    f_all, s_all = pm.location_scale(np.atleast_2d(x_rows))
    tails = np.array([GRID_TAIL, 1.0 - GRID_TAIL])
    paths = []
    for i, (f_hat, s_hat) in enumerate(zip(f_all, s_all)):
        ends = pm.margin.quantile(_margin_level(f_hat, s_hat, tails))
        kernel = PredictiveKernel(pm.margin, np.linspace(*ends, num))
        path = os.path.join(out_dir, f"pred_{i:05d}.csv")
        write_csv(path, ("y", "density", "cdf"),
                  np.column_stack([kernel.y,
                                   np.exp(kernel.logpdf(f_hat, s_hat)),
                                   kernel.cdf(f_hat, s_hat)]))
        paths.append(path)
    return paths


# -- expectations and sampling ------------------------------------------------------


class TransformCurve:
    """Margin quantile curve y(z) = F^{-1}(Phi(z)) tabulated on a z grid; it
    turns normal draws into response draws in :func:`sample_predictive`."""

    def __init__(self, margin: MarginModel, z_span=6.5, num=4097):
        self.z_grid = np.linspace(-z_span, z_span, num)
        u = np.clip(ndtr(self.z_grid), EPS_F, 1.0 - EPS_F)
        self.y_grid = np.atleast_1d(margin.quantile(u))

    def lookup(self, z):
        return np.interp(z, self.z_grid, self.y_grid)


def predictive_expectation(pm: PredictiveModel, x_rows, func=None):
    """E[g(Y0) | x0] for each feature row: :func:`expectation` on
    :meth:`PredictiveModel.expectation_kernel`.  ``func`` (elementwise)
    defaults to the identity: posterior means."""
    return expectation(pm.expectation_kernel(),
                       *pm.location_scale(np.atleast_2d(x_rows)), func=func)


def expectation(kernel, f_all, s_all, func=None):
    """E[g(Y0)] under each predictive law (f_all, s_all): sum_k g(ybar_k)
    dG_k, with G the predictive CDF on the kernel's grid, cell masses at
    cell midpoints and the mass beyond either end at that end node; ``func``
    as in :func:`predictive_expectation`."""
    y = kernel.y
    nodes = np.concatenate([y[:1], 0.5 * (y[1:] + y[:-1]), y[-1:]])
    values = nodes if func is None else func(nodes)
    out = np.empty(f_all.size)
    block = _row_block(y.size)
    for start in range(0, f_all.size, block):
        rows = slice(start, start + block)
        cdf = kernel.cdf(f_all[rows, None], s_all[rows, None])
        out[rows] = np.diff(cdf, axis=1, prepend=0.0, append=1.0) @ values
    return out
