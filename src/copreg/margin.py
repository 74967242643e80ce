"""Nonparametric response margin: Gaussian KDE with a cross-validated bandwidth.

The margin supplies the density/CDF pair used everywhere downstream: the
pseudo-response transform ``z = ndtri(F(y))``, the density factor of the
predictive estimator, and quantiles for grids and intervals.  Bandwidth is
chosen by minimizing an unbiased least-squares cross-validation cost over a
fixed logarithmic grid, which keeps the fit deterministic for a given sample.

Nothing here builds an array over all pairs or over (queries x sample):

* Bandwidth.  The cost needs two kernel sums over the sample's pairs.  They
  run over distinct values (ties enter once, with their counts), in groups of
  four grid bandwidths.  Within a group the sorted values split into segments
  wherever a gap exceeds the float64 underflow radius 38.6 h, beyond which no
  pair contributes.  A segment is summed exactly over its pairs within that
  radius, unless it has many more such pairs than bins; then its linearly
  binned counts (bin width h / 64) are autocorrelated once by FFT, with a
  second-order correction for the binning (Silverman 1982, AS 176; Wand 1994,
  JCGS 3:433), which leaves a relative error near 1e-8 in the cost.
* Evaluation.  F(y) and log f(y) come from one pass over the sorted sample,
  limited to ``|y - x| <= sqrt(d^2 + (9 h)^2)`` with d the distance from y to
  its nearest sample point: sample points below the window add 1 to the CDF,
  and the log density is shifted by the nearest point's exponent, so it stays
  exact far into the tails.  Work is split into blocks of a fixed number of
  (query, sample point) entries.  A query whose window is dense (at least
  _DENSE_WINDOW points, the nearest within h) is summed instead by a fast
  Gauss transform (Greengard & Strain 1991, SIAM J. Sci. Stat. Comput.
  12:79): the sample's occupied bins of width h each keep the moments of
  their offsets from the bin centre, built on first use, and each bin in the
  window adds a truncated Hermite expansion about its centre.  The path
  depends on the query and the sample only, never on the batch.
* Quantiles.  F and f are tabulated once at sample points; each level
  starts from the inverse cubic Hermite interpolant of that table and takes
  Newton steps inside a bisection bracket.

Fitting costs O(n log n) time and O(n) memory; evaluating m points costs
O(m log n) plus one kernel term per sample point inside each sparse window
and 20 Hermite terms per occupied bin inside each dense one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy import fft
from scipy.special import ndtr, ndtri

from .errors import DegenerateMarginError, DomainError
from .files import write_csv

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

#: Grid size for the bandwidth search.
BANDWIDTH_GRID_SIZE = 61

#: CDF values are clamped to [EPS_F, 1 - EPS_F] before ndtri.
EPS_F = 1e-6

#: exp(-t^2 / 2) underflows to zero in float64 beyond |t| = 38.6.
_UNDERFLOW_T = 38.6
#: Evaluation window in bandwidths: the kernel terms it leaves out are below
#: exp(-40.5) ~ 2.6e-18 of the largest one.
_WINDOW_T = 9.0
#: Entries (pairs, or query/sample terms) in one vectorized block.
_BLOCK = 1 << 16
#: A query whose window holds this many sample points, and whose nearest
#: point is within one bandwidth, is summed by Hermite expansions.
_DENSE_WINDOW = 400
#: Width of a Hermite cluster in bandwidths.
_CLUSTER_WIDTH = 1.0
#: Hermite terms kept per cluster.
_HERMITE_TERMS = 20
#: (query, cluster) pairs in one block of the expansion path.
_PAIR_BLOCK = _BLOCK // 16
#: Bandwidth grid points that share one segmentation and one binning.
_LEVEL = 4
#: Bins per bandwidth in the binned pair sums.
_BINS_PER_H = 64
#: A segment is binned when its pairs exceed _BLOCK + _BIN_RATIO * its bins.
_BIN_RATIO = 4.0
#: Bound on Newton/bisection steps per quantile call.
_QUANTILE_MAX_STEPS = 200


@dataclass(frozen=True)
class MarginModel:
    """Fitted Gaussian-kernel margin.

    Attributes
    ----------
    sample : np.ndarray
        Sorted copy of the fitting sample.
    bandwidth : float
        Common kernel standard deviation, > 0.

    CDF values are clamped to [EPS_F, 1 - EPS_F] before the normal quantile
    map.
    """

    sample: np.ndarray
    bandwidth: float

    def __post_init__(self):
        x = np.asarray(self.sample, dtype=float)
        object.__setattr__(self, "sample", x)
        if not 0.0 < self.bandwidth < np.inf:
            raise DomainError(f"bandwidth {self.bandwidth!r} must be positive "
                              "and finite")
        if not (x.ndim == 1 and x.size and np.isfinite(x).all()
                and (x[1:] >= x[:-1]).all()):
            raise DomainError("the sample must be a non-empty, finite and "
                              "sorted vector")

    # -- density / distribution ------------------------------------------

    def pdf(self, y):
        """Mixture density (1/n) sum_i phi((y - x_i)/h) / h."""
        return np.exp(self.logpdf(y))

    def logpdf(self, y):
        """Log density; exact far into the tails."""
        return self._evaluate(y, cdf=False)[1]

    def cdf(self, y):
        """Mixture CDF (1/n) sum_i Phi((y - x_i)/h); unclamped."""
        return self._evaluate(y, logpdf=False)[0]

    def cdf_logpdf(self, y):
        """``(cdf(y), logpdf(y))`` from one pass over the sample."""
        return self._evaluate(y)

    def _evaluate(self, y, cdf=True, logpdf=True):
        """The windowed pass: ``(F(y) or None, log f(y) or None)``."""
        y = np.asarray(y, dtype=float)
        flat = y.ravel()
        x, h = self.sample, self.bandwidth
        out_cdf = np.empty(flat.size) if cdf else None
        out_log = np.empty(flat.size) if logpdf else None
        finite = np.isfinite(flat)
        if not finite.all():
            odd = flat[~finite]
            if cdf:
                out_cdf[~finite] = np.where(np.isnan(odd), np.nan, odd > 0)
            if logpdf:
                out_log[~finite] = np.where(np.isnan(odd), np.nan, -np.inf)
        q = flat[finite]
        # nearest sample point, its distance, and the window around it
        j = np.searchsorted(x, q)
        left = np.maximum(j - 1, 0)
        right = np.minimum(j, x.size - 1)
        near = np.where(q - x[left] <= x[right] - q, left, right)
        dmin = np.abs(q - x[near])
        half = np.hypot(dmin, _WINDOW_T * h)
        lo = np.minimum(np.searchsorted(x, q - half, side="left"), near)
        hi = np.maximum(np.searchsorted(x, q + half, side="right"), near + 1)
        count = hi - lo
        t_near = dmin / h
        sums_cdf = np.empty(q.size) if cdf else None
        sums_log = np.empty(q.size) if logpdf else None
        # the path depends on the query and the sample only, never the batch
        dense = (count >= _DENSE_WINDOW) & (dmin <= h)
        _window_sums(x, h, q, lo, count, t_near, np.flatnonzero(~dense),
                     sums_cdf, sums_log)
        if dense.any():
            _expansion_sums(self._clusters(), h, q, lo, hi, t_near,
                            np.flatnonzero(dense), sums_cdf, sums_log)
        if cdf:
            out_cdf[finite] = sums_cdf / x.size
            out_cdf = out_cdf.reshape(y.shape)[()]
        if logpdf:
            out_log[finite] = sums_log - np.log(x.size * h) - _LOG_SQRT_2PI
            out_log = out_log.reshape(y.shape)[()]
        return out_cdf, out_log

    def _clusters(self):
        """The sample's Hermite clusters, built on first use and kept."""
        clusters = self.__dict__.get("_hermite_clusters")
        if clusters is None:
            clusters = _hermite_clusters(self.sample, self.bandwidth)
            object.__setattr__(self, "_hermite_clusters", clusters)
        return clusters

    def quantile(self, u):
        """Inverse CDF to 1e-12 bandwidths or two float spacings.

        Accepts scalars or arrays; u must lie strictly inside (0, 1).  Each
        level starts from a table of F at (a subset of) the sample points,
        inside a bracket from that table and from the bounds
        ``Phi((y - x_max)/h) <= F(y) <= Phi((y - x_min)/h)``; every step is
        a Newton step if it stays in the bracket and a bisection otherwise.
        """
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        if not np.all((u_arr > 0.0) & (u_arr < 1.0)):
            raise DomainError("quantile level must lie strictly in (0, 1)")
        x, h, n = self.sample, self.bandwidth, self.sample.size
        lev, levels = np.unique(u_arr.ravel(), return_inverse=True)
        # F(y) <= Phi((y - x_min)/h) and F(y) <= 1 - Phi((x_max - y)/h) / n
        lo = np.maximum(x[0] + h * ndtri(lev),
                        x[-1] - h * ndtri(np.minimum(n * (1.0 - lev), 1.0)))
        # F(y) >= Phi((y - x_max)/h) and F(y) >= Phi((y - x_min)/h) / n
        hi = np.minimum(x[-1] + h * ndtri(lev),
                        x[0] + h * ndtri(np.minimum(n * lev, 1.0)))
        tails = h * np.arange(8.0, 0.0, -1.0)
        picks = np.linspace(0, n - 1, min(n, lev.size)).round().astype(int)
        nodes = np.concatenate([x[0] - tails, x[np.unique(picks)], x[-1] + tails[::-1]])
        table, log_dens = self._evaluate(nodes)
        k = np.searchsorted(table, lev)
        left, right = np.maximum(k - 1, 0), np.minimum(k, nodes.size - 1)
        lo = np.where(k > 0, np.maximum(lo, nodes[left]), lo)
        hi = np.where(k < nodes.size, np.minimum(hi, nodes[right]), hi)
        at = _inverse_hermite(lev, table[left], table[right], nodes[left],
                              nodes[right], log_dens[left], log_dens[right])
        at = np.where(np.isnan(at), 0.5 * (lo + hi), np.clip(at, lo, hi))
        active = np.arange(lev.size)
        for _ in range(_QUANTILE_MAX_STEPS):
            y, a, b = at[active], lo[active], hi[active]
            cdf, logpdf = self._evaluate(y)
            gap = cdf - lev[active]
            a = np.where(gap < 0.0, y, a)
            b = np.where(gap > 0.0, y, b)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                nxt = y - gap / np.exp(logpdf)
            newton = (nxt >= a) & (nxt <= b)
            nxt = np.where(newton, nxt, 0.5 * (a + b))
            # F carries a relative rounding error of a few float spacings
            hit = np.abs(gap) <= 8.0 * np.spacing(lev[active])
            nxt = np.where(hit, y, nxt)
            # a Newton step of 1e-6 h leaves an error near (1e-6 h)^2 / h
            ulp = 2.0 * np.spacing(np.abs(nxt))
            done = (hit | (newton & (np.abs(nxt - y) <= 1e-6 * h + ulp))
                    | (b - a <= 1e-12 * h + ulp))
            at[active] = nxt
            lo[active], hi[active] = a, b
            active = active[~done]
            if not active.size:
                break
        out = at[levels].reshape(u_arr.shape)
        return out if np.ndim(u) else float(out[0])

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "kind": "gaussian-kde-margin",
            "bandwidth": self.bandwidth,
            "eps_f": EPS_F,
            "sample_sha256": hashlib.sha256(self.sample.tobytes()).hexdigest(),
            "sample": self.sample.tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MarginModel":
        payload = json.loads(text)
        if payload["eps_f"] != EPS_F:
            raise DomainError(f"margin eps_f {payload['eps_f']!r} is not the "
                              f"clamp width {EPS_F}")
        model = cls(
            sample=np.asarray(payload["sample"], dtype=float),
            bandwidth=float(payload["bandwidth"]),
        )
        digest = hashlib.sha256(model.sample.tobytes()).hexdigest()
        if digest != payload["sample_sha256"]:
            raise DomainError("margin sample hash mismatch")
        return model

    def grid_csv(self, path, num=512) -> None:
        """Write one (y, pdf, cdf) table on ``num`` points spanning the
        1e-4 to 1 - 1e-4 quantiles."""
        grid = np.linspace(*self.quantile([1e-4, 1.0 - 1e-4]), num)
        write_csv(path, ("y", "pdf", "cdf"),
                  np.column_stack([grid, self.pdf(grid), self.cdf(grid)]))


def _inverse_hermite(u, f0, f1, x0, x1, logd0, logd1):
    """Cubic Hermite interpolant of x(F) through (F, x, dx/dF = 1/pdf) pairs."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        df = f1 - f0
        t = (u - f0) / df
        t2, t3 = t * t, t * t * t
        return ((2 * t3 - 3 * t2 + 1) * x0 + (t3 - 2 * t2 + t) * df * np.exp(-logd0)
                + (3 * t2 - 2 * t3) * x1 + (t3 - t2) * df * np.exp(-logd1))


def _blocks(count, size=_BLOCK):
    """Consecutive ``(start, stop)`` row ranges of about ``size`` entries."""
    ends = np.cumsum(count)
    start = 0
    while start < count.size:
        base = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, base + size, side="right"))
        stop = max(stop, start + 1)
        yield start, stop
        start = stop


def _window_sums(x, h, q, lo, count, t_near, idx, sums_cdf, sums_log):
    """Exact windowed sums at the queries ``q[idx]``, into ``sums_cdf`` (the
    count below the window plus the window's Phi terms) and ``sums_log``
    (log of the window's phi terms); either output may be None."""
    count = count[idx]
    for a, b in _blocks(count):
        c = count[a:b]
        at = idx[a:b]
        first = np.cumsum(c) - c
        rows = np.repeat(at, c)
        cols = np.arange(first[-1] + c[-1]) + np.repeat(lo[at] - first, c)
        t = (q[rows] - x[cols]) / h
        if sums_cdf is not None:
            sums_cdf[at] = np.add.reduceat(ndtr(t), first) + lo[at]
        if sums_log is not None:
            near = t_near[at]
            t *= t
            t -= np.repeat(near * near, c)
            t *= -0.5
            sums_log[at] = (np.log(np.add.reduceat(np.exp(t), first))
                            - 0.5 * near * near)


def _hermite_clusters(x, h):
    """``(starts, centres, moments)`` of the sorted sample ``x`` split into
    its occupied bins of width _CLUSTER_WIDTH h.

    ``starts`` holds each cluster's first index and ``moments[p]`` its sums
    of ``b^p / p!`` over the offsets ``b = (x - centre) / h``, for p = 0 ..
    _HERMITE_TERMS.
    Only occupied bins are kept, so the size is O(n) whatever the range.
    """
    width = _CLUSTER_WIDTH * h
    bins = np.floor((x - x[0]) / width)
    starts = np.flatnonzero(np.diff(bins, prepend=-1.0))
    centres = x[0] + (bins[starts] + 0.5) * width
    sizes = np.diff(np.append(starts, x.size))
    b = (x - np.repeat(centres, sizes)) / h
    moments = np.empty((_HERMITE_TERMS + 1, starts.size))
    term = np.ones(x.size)
    for p in range(_HERMITE_TERMS + 1):
        moments[p] = np.add.reduceat(term, starts)
        term *= b
        term /= p + 1
    return starts, centres, moments


def _expansion_sums(clusters, h, q, lo, hi, t_near, idx, sums_cdf, sums_log):
    """The sums of :func:`_window_sums` at ``q[idx]`` from the clusters that
    hold the window's points, each by its truncated Hermite expansion.

    With ``a = (y - c) / h`` for a cluster centred at c and ``He`` the
    probabilists' Hermite polynomials, ``exp(a b - b^2 / 2) = sum_p He_p(a)
    b^p / p!`` gives the cluster's sums ``sum phi(a - b) = phi(a) sum_p M_p
    He_p(a)`` and ``sum Phi(a - b) = M_0 Phi(a) - phi(a) sum_p M_{p+1}
    He_p(a)``, summed over p < _HERMITE_TERMS; points of clusters below the
    window add 1 each.
    """
    starts, centres, moments = clusters
    first_cluster = np.searchsorted(starts, lo[idx], side="right") - 1
    count = np.searchsorted(starts, hi[idx] - 1, side="right") - first_cluster
    for start, stop in _blocks(count, _PAIR_BLOCK):
        c = count[start:stop]
        at = idx[start:stop]
        first = np.cumsum(c) - c
        cols = (np.arange(first[-1] + c[-1])
                + np.repeat(first_cluster[start:stop] - first, c))
        a = (np.repeat(q[at], c) - centres[cols]) / h
        m = moments[:, cols]
        # He_{p+1}(a) = a He_p(a) - p He_{p-1}(a), from He_0 = 1, He_1 = a
        he_prev, he = np.ones(a.size), a.copy()
        pdf_terms, cdf_terms = m[0].copy(), m[1].copy()
        for p in range(1, _HERMITE_TERMS):
            if sums_log is not None:
                pdf_terms += m[p] * he
            if sums_cdf is not None:
                cdf_terms += m[p + 1] * he
            he_prev *= -p
            he_prev += a * he
            he_prev, he = he, he_prev
        if sums_cdf is not None:
            cdf_terms *= np.exp(_log_phi(a))
            sums_cdf[at] = (np.add.reduceat(m[0] * ndtr(a) - cdf_terms, first)
                            + starts[first_cluster[start:stop]])
        if sums_log is not None:
            near = t_near[at]
            square = a * a
            square -= np.repeat(near * near, c)
            pdf_terms *= np.exp(-0.5 * square)
            sums_log[at] = (np.log(np.add.reduceat(pdf_terms, first))
                            - 0.5 * near * near)


def _exact_pair_sums(u, w, hi, rows, hs):
    """Pair sums of the rows' pairs ``i < j < hi[i]``, for every h in ``hs``.

    Row 0 of the result is sum w_i w_j exp(-d^2 / (2 h^2)), row 1 the same at
    scale sqrt(2) h, taken as the square root of row 0's terms like the
    all-pairs formula it reproduces.
    """
    out = np.zeros((2, hs.size))
    count = hi[rows] - rows - 1
    for a, b in _blocks(count):
        c = count[a:b]
        total = int(c.sum())
        if not total:
            continue
        i = np.repeat(rows[a:b], c)
        j = i + 1 + np.arange(total) - np.repeat(np.cumsum(c) - c, c)
        d2 = (u[j] - u[i]) ** 2
        ww = w[i] * w[j]
        for k, h in enumerate(hs):
            e = np.exp(d2 * (-0.5 / (h * h)))
            out[0, k] += ww @ e
            out[1, k] += ww @ np.sqrt(e, out=e)
    return out


def _linear_bins(a, left, right, start, length):
    """Bins ``start .. start + length - 1`` of weights split between bins a, a + 1."""
    i, j = np.searchsorted(a, [start - 1, start + length])
    b = a[i:j] - start + 1
    out = np.bincount(b, left[i:j], length + 2)
    out += np.bincount(b + 1, right[i:j], length + 2)
    return out[1:length + 1]


def _binned_pair_sums(u, w, hs, delta):
    """The pair sums of _exact_pair_sums over all pairs, from binned counts.

    Linear binning moves each kernel value by K''(d) delta^2 v / 2 per end,
    with v = phi (1 - phi) from the point's fractional bin position phi; the
    v-weighted counts correlated with the plain ones remove that term.  The
    correlations are only needed up to the lag where the kernel underflows,
    so they run chunk by chunk (overlap-save), in memory independent of the
    number of bins.
    """
    bins = int(np.ceil((u[-1] - u[0]) / delta)) + 1
    pos = (u - u[0]) / delta
    a = np.minimum(pos.astype(np.int64), bins - 2)
    phi = pos - a
    v = phi * (1.0 - phi)
    left, right = w * (1.0 - phi), w * phi
    lags = min(bins, int(np.ceil(_UNDERFLOW_T * np.sqrt(2.0) * hs[-1] / delta)) + 2)
    pad = lags - 1
    chunk = min(bins, max(4 * lags, _BLOCK))
    size = fft.next_fast_len(chunk + 2 * pad, real=True)
    auto = np.zeros(lags)
    cross = np.zeros(2 * lags - 1)
    for start in range(0, bins, chunk):
        own = _linear_bins(a, left, right, start, chunk)
        if not own.any():
            continue
        spec = fft.rfft(_linear_bins(a, left, right, start - pad, chunk + 2 * pad), size)
        auto += fft.irfft(fft.rfft(own, size).conj() * spec, size)[pad:pad + lags]
        vown = _linear_bins(a, left * v, right * v, start, chunk)
        cross += fft.irfft(fft.rfft(vown, size).conj() * spec, size)[:2 * lags - 1]
    auto[1:] *= 2.0
    sym = cross[pad:]
    sym[1:] += cross[:pad][::-1]
    # a value's own binned block (its weight squared) is no pair
    self_w, self_v = float(w @ w), float((w * w) @ v)
    lag2 = (np.arange(lags) * delta) ** 2
    out = np.empty((2, hs.size))
    for k, h in enumerate(hs):
        for row, s2 in enumerate((h * h, 2.0 * h * h)):
            t2 = lag2 / s2
            kern = np.exp(-0.5 * t2)
            k1 = np.exp(-0.5 * delta * delta / s2)
            total = auto @ kern - self_w + 2.0 * self_v * (1.0 - k1)
            total -= delta * delta / s2 * (sym @ ((t2 - 1.0) * kern) + self_v)
            out[row, k] = 0.5 * total
    return out


def _pair_sums(u, w, grid):
    """Kernel sums over the pairs of distinct values ``u`` (counts ``w``)."""
    m = u.size
    idx = np.arange(m)
    if m * (m - 1) // 2 <= _BLOCK:
        return _exact_pair_sums(u, w, np.full(m, m), idx, grid)
    out = np.zeros((2, grid.size))
    for g in range(0, grid.size, _LEVEL):
        hs = grid[g:g + _LEVEL]
        radius = _UNDERFLOW_T * hs[-1]
        delta = hs[0] / _BINS_PER_H
        hi = np.searchsorted(u, u + radius, side="right")
        starts = np.concatenate([[0], np.flatnonzero(np.diff(u) > radius) + 1])
        stops = np.append(starts[1:], m)
        pairs = np.add.reduceat(hi - idx - 1, starts)
        bins = (u[stops - 1] - u[starts]) / delta + 1.0
        binned = pairs > _BLOCK + _BIN_RATIO * bins
        rows = idx[~np.repeat(binned, stops - starts)]
        out[:, g:g + _LEVEL] = _exact_pair_sums(u, w, hi, rows, hs)
        for s in np.flatnonzero(binned):
            seg = slice(starts[s], stops[s])
            out[:, g:g + _LEVEL] += _binned_pair_sums(u[seg], w[seg], hs, delta)
    return out


def _lscv_costs(y, grid):
    """Least-squares cross-validation cost of each bandwidth in ``grid``.

    The first term is the exact integral of the squared mixture density
    (kernel self-convolution at scale sqrt(2) h; the n diagonal terms
    contribute exactly n); the second is the leave-one-out fit term.  Pairs
    of tied values contribute exactly 1 to both pair sums.
    """
    u, w = np.unique(y, return_counts=True)
    w = w.astype(float)
    n = y.size
    ties = float(w @ (w - 1.0)) / 2.0
    fit_sum, quad_sum = _pair_sums(u, w, grid)
    quad = (2.0 * (quad_sum + ties) + n) / (2.0 * np.sqrt(np.pi) * grid * n * n)
    fit = 2.0 * (fit_sum + ties) / (np.sqrt(2.0 * np.pi) * grid * n * (n - 1))
    return quad - 2.0 * fit


def fit_kde(y) -> MarginModel:
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
    best = int(np.argmin(_lscv_costs(y, grid)))
    return MarginModel(sample=np.sort(y), bandwidth=float(grid[best]))


def to_pseudo(margin: MarginModel, y) -> np.ndarray:
    """Standard-normal pseudo-responses ndtri(clamp(F(y))); always finite."""
    return _pseudo(margin.cdf(np.asarray(y, dtype=float)))


def _pseudo(cdf):
    return ndtri(np.clip(cdf, EPS_F, 1.0 - EPS_F))


def _log_phi(t):
    return -0.5 * t * t - _LOG_SQRT_2PI


class PredictiveKernel:
    """The predictive law ``y0 = F^{-1}(Phi(z0))``, ``z0 ~ N(s f, s^2)``, at ``y``.

    With ``z = to_pseudo(margin, y)`` and residual ``r = (z - s f) / s`` the
    log density is ``log p_Y(y) - log phi(z) + log phi(r) - log s`` and the
    CDF ``Phi(r)``.  The margin is evaluated once, here, in one pass, whose
    ``margin_cdf`` and ``margin_logpdf`` at ``y`` the kernel keeps; ``f``
    and ``s`` broadcast against ``y`` (scalars: one law on a grid; vectors:
    paired laws; ``(rows, 1)`` columns: a block of laws on a shared grid).
    """

    def __init__(self, margin: MarginModel, y):
        self.margin = margin
        self.y = np.asarray(y, dtype=float)
        self.margin_cdf, self.margin_logpdf = margin.cdf_logpdf(self.y)
        self.z = _pseudo(self.margin_cdf)
        self._log_ratio = self.margin_logpdf - _log_phi(self.z)

    @classmethod
    def cdf_only(cls, margin: MarginModel, y):
        """A kernel for :meth:`cdf` alone, without :meth:`logpdf` (its
        ``margin_logpdf`` is None): its margin pass skips the log density
        (an exp and a log per window term)."""
        kernel = cls.__new__(cls)
        kernel.margin = margin
        kernel.y = np.asarray(y, dtype=float)
        kernel.margin_cdf = margin._evaluate(kernel.y, logpdf=False)[0]
        kernel.margin_logpdf = kernel._log_ratio = None
        kernel.z = _pseudo(kernel.margin_cdf)
        return kernel

    def residual(self, f, s):
        return (self.z - s * f) / s

    def logpdf(self, f, s, r=None):
        """Log densities of the laws (f, s); ``r`` is their residual when
        the caller has it already."""
        r = self.residual(f, s) if r is None else r
        out = _log_phi(r)
        out += self._log_ratio  # in place: numpy makes a new array for
        out -= np.log(s)        # each broadcast operand otherwise
        return out

    def cdf(self, f, s, r=None):
        """CDFs of the laws (f, s); ``r`` as in :meth:`logpdf`."""
        return ndtr(self.residual(f, s) if r is None else r)
