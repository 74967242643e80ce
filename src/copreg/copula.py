"""Gaussian copula of a Bayesian linear output layer over network basis functions.

With basis matrix ``B`` (n x q) and a diagonal shrinkage prior
``beta ~ N(0, diag(v))``, integrating ``beta`` out of the pseudo-response
regression gives an n-dimensional Gaussian copula whose correlation matrix is

    R = S (I + B diag(v) B^T) S,   S = diag(s_1 .. s_n),
    s_i = (1 + psi_i^T diag(v) psi_i)^(-1/2).

``R`` is never materialized on the production path: the likelihood conditional
on ``beta`` factorizes over observations because ``S`` is diagonal, so a Gibbs
sweep over ``(beta, scales)`` costs O(nq) per iteration.  Dense evaluation of
the copula density is kept behind a small-n oracle limit for testing.

The noise variance of the pseudo-response regression never enters any of
these expressions (the copula is scale free), so it is pinned to 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrs, dtrtrs
from scipy.special import ndtri

from .errors import (
    DataError,
    DomainError,
    NumericalError,
    ShapeError,
    checked_int,
)
from .files import load_json, load_table, write_csv
from .margin import MarginModel, PredictiveKernel, to_pseudo

#: Dense-matrix operations refuse instances larger than this.
ORACLE_LIMIT = 64

#: Ridge scale prior p(tau^2) = (b / (2 sqrt(tau^2))) exp(-b sqrt(tau^2));
#: b = ln 2 puts the prior median of tau at 1.
RIDGE_RATE = float(np.log(2.0))

VARIANTS = ("horseshoe", "ridge")


@dataclass
class ShrinkageState:
    """Copula parameters theta and their Gibbs auxiliaries.

    horseshoe: ``beta_j ~ N(0, lam_j^2)``, ``lam_j | tau ~ HalfCauchy(0, tau)``,
    ``tau ~ HalfCauchy(0, 1)``, realized through inverse-gamma auxiliaries
    ``nu_j`` and ``xi``.  ridge: ``beta_j ~ N(0, tau2)`` with the Weibull-type
    scale prior above.
    """

    variant: str
    lam: np.ndarray | None = None
    tau: float | None = None
    nu: np.ndarray | None = None
    xi: float | None = None
    tau2: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown shrinkage variant {self.variant!r}")
        if self.variant == "horseshoe":
            self.lam = np.asarray(self.lam, dtype=float)
            self.nu = np.asarray(self.nu, dtype=float)
            if np.any(self.lam <= 0) or np.any(self.nu <= 0) \
                    or self.tau <= 0 or self.xi <= 0:
                raise DomainError("horseshoe scales must be strictly positive")
        else:
            if self.tau2 is None or self.tau2 <= 0:
                raise DomainError("ridge tau2 must be strictly positive")

    @classmethod
    def initial(cls, variant, q):
        if variant == "horseshoe":
            return cls(variant, lam=np.ones(q), tau=1.0, nu=np.ones(q), xi=1.0)
        return cls(variant, tau2=1.0)

    def prior_variance_diag(self, q):
        """Diagonal of P(theta)^{-1}; P itself is diag of the reciprocals."""
        if self.variant == "horseshoe":
            if self.lam.shape != (q,):
                raise ShapeError(f"state carries q={self.lam.size}, asked {q}")
            return self.lam * self.lam
        return np.full(q, self.tau2)

    def flat(self):
        """Theta components in serialization order."""
        if self.variant == "horseshoe":
            return np.concatenate([self.lam, [self.tau], self.nu, [self.xi]])
        return np.array([self.tau2])

    @classmethod
    def from_flat(cls, variant, values, q):
        values = np.asarray(values, dtype=float)
        if variant == "horseshoe":
            return cls(variant, lam=values[:q], tau=float(values[q]),
                       nu=values[q + 1:2 * q + 1], xi=float(values[2 * q + 1]))
        return cls(variant, tau2=float(values[0]))

    @staticmethod
    def flat_names(variant, q):
        if variant == "horseshoe":
            return ([f"lam_{j + 1}" for j in range(q)] + ["tau"]
                    + [f"nu_{j + 1}" for j in range(q)] + ["xi"])
        return ["tau2"]


# -- scaling and dense oracles ------------------------------------------------


def scaling_factors(basis, variances):
    """s = (1 + psi^T diag(v) psi)^{-1/2} for each basis row ``psi``.

    ``variances`` is one prior-variance diagonal ``(q,)``, or one column per
    posterior draw ``(q, J)`` for a ``(rows, J)`` result.
    """
    basis = np.asarray(basis, dtype=float)
    return 1.0 / np.sqrt(1.0 + (basis * basis) @ variances)


def scaling(psi, state: ShrinkageState) -> float:
    """s = (1 + psi^T P(theta)^{-1} psi)^{-1/2}; O(q) on the diagonal prior."""
    return float(scaling_factors(psi, state.prior_variance_diag(np.size(psi))))


def scaling_rows(basis, state: ShrinkageState) -> np.ndarray:
    """Row-wise scaling factors for a basis matrix, vectorized."""
    return scaling_factors(basis,
                           state.prior_variance_diag(np.shape(basis)[1]))


def corr_matrix(basis, state: ShrinkageState):
    """Dense copula correlation matrix; testing oracle for small n only."""
    basis = np.asarray(basis, dtype=float)
    n, q = basis.shape
    if n > ORACLE_LIMIT:
        raise DomainError(
            f"corr_matrix is a small-n oracle (n={n} > limit {ORACLE_LIMIT}); "
            "the production likelihood never materializes R")
    v = state.prior_variance_diag(q)
    m = np.eye(n) + (basis * v) @ basis.T
    s = 1.0 / np.sqrt(np.diag(m))
    r = m * s[:, None] * s[None, :]
    return 0.5 * (r + r.T)


def copula_logdensity(u, basis, state: ShrinkageState) -> float:
    """log copula density at u in (0,1)^n; small-n oracle (dense solve)."""
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise DomainError("copula arguments must lie strictly in (0, 1)")
    z = ndtri(u)
    r = corr_matrix(basis, state)
    try:
        cho = cho_factor(r, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "correlation matrix not positive definite; add diagonal jitter "
            "or reduce basis collinearity") from exc
    logdet = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    quad = float(z @ cho_solve(cho, z))
    # log N_n(z; 0, R) - sum log N_1(z_i; 0, 1)
    return -0.5 * logdet - 0.5 * quad + 0.5 * float(z @ z)


# -- O(n) conditional likelihood --------------------------------------------------


def cond_loglik(y, basis, beta, state: ShrinkageState,
                margin: MarginModel) -> float:
    """Log likelihood conditional on beta; linear in n (S is diagonal)."""
    y = np.asarray(y, dtype=float)
    basis = np.asarray(basis, dtype=float)
    if basis.shape[0] != y.size:
        raise ShapeError("basis rows must match observations")
    s = scaling_rows(basis, state)
    return float(np.sum(PredictiveKernel(margin, y).logpdf(basis @ beta, s)))


# -- Gibbs updates ------------------------------------------------------------------


def _inv_gamma(rng, shape, scale, size=None):
    return scale / rng.gamma(shape, size=size)


def sample_beta(z, basis, state: ShrinkageState, rng, gram=None,
                t=None) -> np.ndarray:
    """Exact draw from beta | z, theta: precision B^T B + P, mean Q^{-1}B^T S^{-1}z.

    A sampler sweeping over one basis passes its constants in: ``gram`` is
    B^T B and ``t`` is (B o B) P^{-1}, which gives s = (1 + t)^(-1/2).
    """
    z = np.asarray(z, dtype=float)
    basis = np.asarray(basis, dtype=float)
    q = basis.shape[1]
    v = state.prior_variance_diag(q)
    s = scaling_rows(basis, state) if t is None else 1.0 / np.sqrt(1.0 + t)
    prec = basis.T @ basis if gram is None else gram.copy()
    prec.flat[::q + 1] += 1.0 / v
    rhs = basis.T @ (z / s)
    try:
        low = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError:
        prec.flat[::q + 1] += 1e-10 * np.trace(prec) / q
        try:
            low = np.linalg.cholesky(prec)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "posterior precision not positive definite after jitter") from exc
    # LAPACK is called without scipy's finiteness checks: a non-finite entry
    # of the Cholesky factor always reaches its row's diagonal
    if not (np.isfinite(low.diagonal()).all() and np.isfinite(rhs).all()):
        raise NumericalError("posterior precision or mean is not finite")
    mean, _ = dpotrs(low, rhs, lower=1)
    noise, _ = dtrtrs(low.T, rng.standard_normal(q), lower=0)
    return mean + noise


def _ridge_log_target(x, q, half_bnorm_sq):
    # density of log tau2 under prior x likelihood of beta | tau2
    return (0.5 * (1.0 - q) * x - half_bnorm_sq * np.exp(-x)
            - RIDGE_RATE * np.exp(0.5 * x))


#: Slice sampler: initial bracket width, and the cap on step-outs per side
#: and on shrinks.
SLICE_WIDTH = 1.0
SLICE_MAX_STEPS = 200


def _slice_sample(log_target, x0, rng):
    """One univariate slice-sampling update from ``x0`` (step out, shrink).

    Raises :class:`NumericalError` when no shrink finds a point above the
    slice level, which happens when the log target is NaN.
    """
    with np.errstate(over="ignore"):
        level = log_target(x0) - rng.exponential()
        left = x0 - SLICE_WIDTH * rng.random()
        right = left + SLICE_WIDTH
        steps = 0
        while log_target(left) > level and steps < SLICE_MAX_STEPS:
            left -= SLICE_WIDTH
            steps += 1
        steps = 0
        while log_target(right) > level and steps < SLICE_MAX_STEPS:
            right += SLICE_WIDTH
            steps += 1
        for _ in range(SLICE_MAX_STEPS):
            x1 = rng.uniform(left, right)
            if log_target(x1) > level:
                return x1
            if x1 < x0:
                left = x1
            else:
                right = x1
    raise NumericalError(
        f"slice sampler found no point above the slice level in "
        f"{SLICE_MAX_STEPS} shrinks; is the log target finite at {x0!r}?")


def _horseshoe_globals(lam2, state, rng):
    """Exact Gibbs draws of nu, tau^2 and xi given the new lambda^2."""
    q = lam2.size
    nu = _inv_gamma(rng, 1.0, 1.0 / (state.tau ** 2) + 1.0 / lam2, size=q)
    tau2 = _inv_gamma(rng, 0.5 * (q + 1.0),
                      1.0 / state.xi + float(np.sum(1.0 / nu)))
    xi = _inv_gamma(rng, 1.0, 1.0 + 1.0 / tau2)
    return ShrinkageState("horseshoe", lam=np.sqrt(lam2),
                          tau=float(np.sqrt(tau2)), nu=nu, xi=float(xi))


def sample_theta(beta, state: ShrinkageState, rng) -> ShrinkageState:
    """One update of the shrinkage parameters from their beta-conditionals.

    These are the conditionals of the prior augmented with beta (half-Cauchy
    auxiliaries for the horseshoe; slice sampling for the ridge scale).  With
    no data (a zero basis) they make the full chain an exact prior sampler.
    Inside :func:`run_mcmc` the same moves serve as proposals and the
    pseudo-response likelihood enters through an acceptance step, because the
    observation scalings also depend on the prior variances.
    """
    beta = np.asarray(beta, dtype=float)
    q = beta.size
    if state.variant == "horseshoe":
        lam2 = _inv_gamma(rng, 1.0, 1.0 / state.nu + 0.5 * beta * beta, size=q)
        return _horseshoe_globals(lam2, state, rng)
    half_bnorm_sq = 0.5 * float(beta @ beta)
    x1 = _slice_sample(lambda x: _ridge_log_target(x, q, half_bnorm_sq),
                       np.log(state.tau2), rng)
    return ShrinkageState("ridge", tau2=float(np.exp(x1)))


def _scale_loglik(z, mean_vals, t_vals):
    """log N(z_i; s_i m_i, s_i^2) summed, minus constants; s = (1+T)^(-1/2)."""
    u = 1.0 + t_vals
    root = np.sqrt(u)
    return float(np.sum(-0.5 * z * z * u + z * mean_vals * root
                        + 0.5 * np.log(u)))


class _SweepConstants:
    """What a Gibbs sweep needs of a fixed basis B and pseudo-responses z."""

    def __init__(self, z, basis):
        self.basis_sq = basis * basis
        # row j is column j of B o B, contiguous for the per-coordinate update
        self.basis_sq_t = np.ascontiguousarray(self.basis_sq.T)
        self.gram = basis.T @ basis
        # the -z^2 u / 2 term of _scale_loglik moves by -half_z2_cols[j] * d
        # when column j's prior variance moves by d
        self.half_z2_cols = 0.5 * ((z * z) @ self.basis_sq)
        self.row_norms = self.basis_sq.sum(axis=1)


def _sample_theta_corrected(beta, state, rng, z, mean_vals, t_vals, consts):
    """Theta update targeting the exact conditional theta | beta, z.

    horseshoe: per-coordinate independence Metropolis-Hastings on lambda_j^2
    with the conjugate inverse-gamma proposal (prior and proposal terms
    cancel, leaving the likelihood ratio); the nu, tau^2, xi conditionals do
    not touch the likelihood and stay exact Gibbs.  The log-likelihood ratio
    of :func:`_scale_loglik` is taken from running sums over u = 1 + t, with
    ``t_vals`` = (B o B) lambda^2 on entry.  ridge: slice sampling of
    log tau^2 under prior-conditional + likelihood.  Returns
    ``(state, mh_acceptance)``.
    """
    beta = np.asarray(beta, dtype=float)
    q = beta.size
    if state.variant == "horseshoe":
        lam2 = state.lam * state.lam
        log_u = np.log(rng.random(q))
        props = _inv_gamma(rng, 1.0, 1.0 / state.nu + 0.5 * beta * beta,
                           size=q)
        steps = props - lam2
        # cross + log_sum / 2 of the running sums is one dot of these weights
        # with the buffer [sqrt(u), log(u)]
        n = z.size
        weights = np.concatenate([z * mean_vals, np.full(n, 0.5)])
        terms = np.empty(2 * n)
        roots, logs = terms[:n], terms[n:]
        u = 1.0 + t_vals
        np.sqrt(u, out=roots)
        np.log(u, out=logs)
        total = float(weights.dot(terms))
        # row j: the move of u when lambda_j^2 takes its proposal
        inc = consts.basis_sq_t * steps[:, None]
        thresholds = (-consts.half_z2_cols * steps).tolist()
        u_new = np.empty_like(u)
        accepted = 0
        for j, (log_uj, thr) in enumerate(zip(log_u.tolist(), thresholds)):
            np.add(u, inc[j], out=u_new)
            np.sqrt(u_new, out=roots)
            np.log(u_new, out=logs)
            total_new = float(weights.dot(terms))
            if log_uj < thr + (total_new - total):
                lam2[j] = props[j]
                u, u_new = u_new, u
                total = total_new
                accepted += 1
        return _horseshoe_globals(lam2, state, rng), accepted / q
    half_bnorm_sq = 0.5 * float(beta @ beta)

    def log_target(x):
        return (_ridge_log_target(x, q, half_bnorm_sq)
                + _scale_loglik(z, mean_vals, np.exp(x) * consts.row_norms))

    x1 = _slice_sample(log_target, np.log(state.tau2), rng)
    return ShrinkageState("ridge", tau2=float(np.exp(x1))), 1.0


# -- full sampler --------------------------------------------------------------------


@dataclass
class PosteriorDraws:
    """Retained Gibbs draws of (beta, theta) plus summaries."""

    variant: str
    beta_draws: np.ndarray            # (J, q)
    theta_draws: list                  # J ShrinkageState snapshots
    beta_mean: np.ndarray = field(init=False)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.beta_draws = np.asarray(self.beta_draws, dtype=float)
        if self.beta_draws.ndim != 2 or self.beta_draws.shape[0] < 1:
            raise ShapeError("beta draws must be a (J >= 1, q) matrix")
        if len(self.theta_draws) != self.beta_draws.shape[0]:
            raise ShapeError("theta draws must align with beta draws")
        self.beta_mean = self.beta_draws.mean(axis=0)

    @property
    def n_draws(self):
        return self.beta_draws.shape[0]

    @property
    def q(self):
        return self.beta_draws.shape[1]

    @staticmethod
    def columns(variant, q):
        """``draws.csv``'s header: the q coefficients, then the shrinkage."""
        return ([f"beta_{j + 1}" for j in range(q)]
                + ShrinkageState.flat_names(variant, q))

    def save_csv(self, csv_path, header_path):
        names = self.columns(self.variant, self.q)
        rows = np.hstack([self.beta_draws,
                          np.vstack([st.flat() for st in self.theta_draws])])
        write_csv(csv_path, names, rows)
        header = {"variant": self.variant, "q": self.q, "draws": self.n_draws,
                  "diagnostics": self.diagnostics}
        with open(header_path, "w") as fh:
            json.dump(header, fh, sort_keys=True)

    @classmethod
    def load_csv(cls, csv_path, header_path):
        header = load_json(header_path, DataError)
        variant, q = header["variant"], header["q"]
        names, rows = load_table(csv_path)
        expected = cls.columns(variant, q)
        if names != expected:
            raise DomainError(f"{csv_path} does not hold the {len(expected)} "
                              f"columns of a {variant} draw of {q} "
                              f"coefficients (beta_1, ..., {expected[-1]})")
        if not np.isfinite(rows).all():
            raise DomainError("every draw must be finite")
        thetas = [ShrinkageState.from_flat(variant, row[q:], q) for row in rows]
        draws = cls(variant, rows[:, :q], thetas)
        draws.diagnostics = header.get("diagnostics", {})
        return draws


def _ess(chain):
    """Effective sample size with truncation at the first negative autocorrelation."""
    x = np.asarray(chain, dtype=float)
    n = x.size
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        return float(n)
    acc = 0.0
    for lag in range(1, n // 2):
        rho = float(x[:-lag] @ x[lag:]) / (n * var)
        if rho <= 0.0:
            break
        acc += rho
    return n / (1.0 + 2.0 * acc)


def check_sampler(variant="horseshoe", burnin=1000, draws=1000, thin=1):
    """``(burnin, draws, thin)`` as ints; :class:`DomainError` unless
    ``variant`` is one of :data:`VARIANTS` and the sizes are whole numbers
    with burnin >= 0, draws >= 1 and thin >= 1.  The defaults are
    :func:`~copreg.pipeline.fit_copula_regression`'s."""
    if variant not in VARIANTS:
        raise DomainError(f"unknown shrinkage variant {variant!r}; "
                          f"expected one of {VARIANTS}")
    return (checked_int("burnin", burnin, 0, DomainError),
            checked_int("draws", draws, 1, DomainError),
            checked_int("thin", thin, 1, DomainError))


def run_mcmc_pseudo(z, basis, variant, burnin=1000, draws=1000, rng=None,
                    thin=1) -> PosteriorDraws:
    """Gibbs over (beta, theta) given pseudo-responses; see :func:`run_mcmc`.

    One sweep is one :func:`sample_beta` call and one theta update; B^T B
    and the other basis constants are computed once per run.
    """
    if rng is None:
        raise DomainError("run_mcmc requires an explicit rng for reproducibility")
    burnin, draws, thin = check_sampler(variant, burnin, draws, thin)
    z = np.asarray(z, dtype=float)
    basis = np.asarray(basis, dtype=float)
    n, q = basis.shape
    if z.size != n:
        raise ShapeError("pseudo-responses must match basis rows")
    state = ShrinkageState.initial(variant, q)
    consts = _SweepConstants(z, basis)
    beta = np.linalg.solve(consts.gram + np.eye(q), basis.T @ z)

    kept_beta = np.empty((draws, q))
    kept_theta = []
    total = burnin + draws * thin
    j = 0
    acc_sum = 0.0
    for it in range(total):
        t_vals = consts.basis_sq @ state.prior_variance_diag(q)
        beta = sample_beta(z, basis, state, rng, gram=consts.gram, t=t_vals)
        state, acc = _sample_theta_corrected(beta, state, rng, z, basis @ beta,
                                             t_vals, consts)
        acc_sum += acc
        if it >= burnin and (it - burnin) % thin == 0:
            kept_beta[j] = beta
            kept_theta.append(state)
            j += 1
    scale_chain = np.array(
        [st.tau if variant == "horseshoe" else st.tau2 for st in kept_theta])
    diagnostics = {
        "acceptance": acc_sum / total,
        "ess_beta_norm": _ess(np.sum(kept_beta * kept_beta, axis=1)),
        "ess_scale": _ess(np.log(scale_chain)),
    }
    return PosteriorDraws(variant, kept_beta, kept_theta,
                          diagnostics=diagnostics)


def run_mcmc(y, basis, variant, margin: MarginModel, burnin=1000, draws=1000,
             rng=None, thin=1) -> PosteriorDraws:
    """Sample beta, theta | y: pseudo-responses from the margin, then Gibbs.

    Deterministic given the rng seed; scaling factors are refreshed inside
    every conditional draw, so theta changes propagate immediately.
    """
    z = to_pseudo(margin, np.asarray(y, dtype=float))
    return run_mcmc_pseudo(z, basis, variant, burnin=burnin, draws=draws,
                           rng=rng, thin=thin)
