"""Out-of-sample composite scores over consecutive observation pairs.

Point-estimated parameters are judged by simulating replicate series and
scoring each test-window pair (d_t, d_{t+1}) against the replicates' joint
law at the same time indices: a kernel estimate for the log score, the
multivariate energy score otherwise.  Both are reported so that higher is
better (the energy score enters negated).
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from ..errors import DomainError, checked_float, checked_int

_LOG_2PI = np.log(2.0 * np.pi)

#: Bandwidths are floored at half a count: integer data can be degenerate.
MIN_BANDWIDTH = 0.5

#: :func:`composite_scores` defaults: the share of the series that is its
#: fitting window, and the simulator replicates.
TRAIN_FRAC, REPS = 0.8, 1000


def score_options(train_frac=TRAIN_FRAC, reps=REPS, series_length=None,
                  error=DomainError, reps_key="reps"):
    """The options :func:`composite_scores` can score with, else ``error``
    (naming ``reps`` as ``reps_key``): ``train_frac`` in (0, 1), ``reps``
    >= 2 (the pair density and the energy score need two replicate rows),
    and for a series of ``series_length``, a pair after the fitting window."""
    opts = {"train_frac": checked_float("train_frac", train_frac, 0.0, 1.0,
                                        error=error),
            "reps": checked_int(reps_key, reps, 2, error)}
    if series_length is not None and not _scored(opts, series_length):
        raise error(f"'train_frac' {train_frac} leaves no pair to score in "
                    f"a series of length {series_length}")
    return opts


def _scored(opts, series_length):
    """First index t of each scored pair (d_t, d_t+1), after the first
    floor(train_frac * length) points, the fitting window."""
    return range(int(np.floor(opts["train_frac"] * series_length)),
                 series_length - 1)


def energy_score(samples, obs) -> float:
    """Monte Carlo energy score: mean ||X - obs|| - 0.5 mean ||X - X'||.

    Nonnegative; zero only for a point forecast sitting exactly on the
    observation.
    """
    samples = np.asarray(samples, dtype=float)
    obs = np.asarray(obs, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise DomainError("energy score needs at least 2 sample rows")
    if not (np.all(np.isfinite(samples)) and np.all(np.isfinite(obs))):
        raise DomainError("energy score inputs must be finite")
    m = samples.shape[0]
    to_obs = np.linalg.norm(samples - obs, axis=1).mean()
    diffs = samples[:, None, :] - samples[None, :, :]
    pairwise = np.sqrt((diffs * diffs).sum(axis=-1))
    return float(to_obs - pairwise.sum() / (2.0 * m * m))


def bivariate_kde_logpdf(samples, point) -> float:
    """Product-Gaussian-kernel density of two coordinates at one point.

    Per-coordinate reference-rule bandwidths sd * m^(-1/6), floored for
    degenerate count columns.
    """
    samples = np.asarray(samples, dtype=float)
    point = np.asarray(point, dtype=float)
    m = samples.shape[0]
    if m < 2:
        raise DomainError("kernel density needs at least 2 sample rows")
    h = samples.std(axis=0, ddof=1) * m ** (-1.0 / 6.0)
    h = np.maximum(h, MIN_BANDWIDTH)
    t = (point[None, :] - samples) / h
    log_kernels = -0.5 * (t * t).sum(axis=1) - _LOG_2PI - np.log(h).sum()
    return float(logsumexp(log_kernels) - np.log(m))


def composite_scores(rho_hat, observed_series, model, train_frac=TRAIN_FRAC,
                     reps=REPS, rng=None):
    """(CLS, CES) over the test tail of the observed series.

    The first ``train_frac`` of the series is treated as the fitting window;
    scores average over consecutive pairs in the remainder, against ``reps``
    simulator replicates at the point estimate ``rho_hat``.  CES is the
    negated mean energy score (higher is better, matching CLS).  Options
    outside :func:`score_options` raise DomainError before simulating.
    """
    if rng is None:
        raise DomainError("composite_scores requires an explicit rng")
    observed = np.asarray(observed_series, dtype=float)
    t_len = observed.size
    opts = score_options(train_frac, reps, t_len)
    replicates = model.simulate(np.asarray(rho_hat, dtype=float), rng,
                                reps=opts["reps"]).astype(float)
    cls_terms = []
    ces_terms = []
    for t in _scored(opts, t_len):
        pair_samples = replicates[:, t:t + 2]
        obs_pair = observed[t:t + 2]
        cls_terms.append(bivariate_kde_logpdf(pair_samples, obs_pair))
        ces_terms.append(-energy_score(pair_samples, obs_pair))
    return float(np.mean(cls_terms)), float(np.mean(ces_terms))
