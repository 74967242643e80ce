"""Stochastic ecological simulators used as likelihood-free test beds.

Two models: a delayed-recruitment insect population with gamma-disturbed
Poisson recruitment and binomial adult survival (integer counts, discrete
time), and a seasonally forced predator-prey diffusion in dimensionless form
observed through Poisson counts twice a year.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ..errors import DomainError, SimulationDivergedError

#: Hard ceiling applied to counts and Poisson means (overflow guard).
COUNT_CAP = 1e8

#: States below this are floored (the predator term is singular at 0).
STATE_FLOOR = 1e-6

#: State cap for the predator-prey integrator.
STATE_CAP = 1e6

#: Euler-Maruyama step (years) and (prey, predator) start of the
#: predator-prey integrator.
VOLES_DT = 1e-2
VOLES_INIT = (1.0, 0.1)


@dataclass(frozen=True)
class BlowflyParams:
    """Delayed-recruitment model parameters (all positive; delay in steps)."""

    survival_rate: float        # adult mortality rate inside exp(-rate * eps)
    recruitment_scale: float    # births per lagged adult at low density
    scaling_pop: float          # density scale of the recruitment decay
    recruit_noise_var: float    # variance of the unit-mean recruitment shock
    delay: int                  # recruitment lag, steps
    survival_noise_var: float   # variance of the unit-mean survival shock

    def __post_init__(self):
        vals = (self.survival_rate, self.recruitment_scale, self.scaling_pop,
                self.recruit_noise_var, self.survival_noise_var)
        if any(v <= 0 for v in vals):
            raise DomainError("blowfly parameters must be positive")
        if int(self.delay) != self.delay or self.delay < 1:
            raise DomainError("delay must be an integer >= 1")

    @classmethod
    def from_array(cls, values):
        return cls(survival_rate=float(values[0]),
                   recruitment_scale=float(values[1]),
                   scaling_pop=float(values[2]),
                   recruit_noise_var=float(values[3]),
                   delay=int(round(values[4])),
                   survival_noise_var=float(values[5]))

    names = ("survival_rate", "recruitment_scale", "scaling_pop",
             "recruit_noise_var", "delay", "survival_noise_var")


def _gamma_unit_mean(rng, variance, size=None):
    """Unit-mean gamma shock: shape 1/var, scale var; degenerate at var -> 0."""
    if variance < 1e-12:
        return np.ones(size) if size is not None else 1.0
    return rng.gamma(1.0 / variance, variance, size=size)


def blowfly_step(n_prev, n_lag, params: BlowflyParams, rng, cap=COUNT_CAP):
    """One transition: (recruits, survivors, capped?) given current history."""
    shock_r = _gamma_unit_mean(rng, params.recruit_noise_var)
    lam = (params.recruitment_scale * n_lag
           * np.exp(-n_lag / params.scaling_pop) * shock_r)
    capped = lam > cap
    recruits = rng.poisson(min(lam, cap))
    shock_s = _gamma_unit_mean(rng, params.survival_noise_var)
    p_survive = min(1.0, max(0.0, np.exp(-params.survival_rate * shock_s)))
    survivors = rng.binomial(int(n_prev), p_survive)
    return recruits, survivors, capped


def simulate_blowfly(params: BlowflyParams, length, rng, init_adults=180,
                     burnin=50, cap=COUNT_CAP, return_diagnostics=False):
    """Integer population series of the given length.

    History starts flat at ``init_adults`` for the first ``delay`` steps and
    the first ``burnin`` generated steps are discarded.  Counts and Poisson
    means are capped at ``cap`` with a diagnostic flag.
    """
    if length < 1:
        raise DomainError("series length must be >= 1")
    tau = params.delay
    total = burnin + length
    hist = np.empty(tau + total, dtype=np.int64)
    hist[:tau] = int(init_adults)
    capped_any = False
    for t in range(tau, tau + total):
        recruits, survivors, capped = blowfly_step(
            hist[t - 1], hist[t - tau], params, rng, cap=cap)
        n_t = recruits + survivors
        if n_t > cap:
            n_t = int(cap)
            capped = True
        capped_any = capped_any or capped
        hist[t] = n_t
    series = hist[tau + burnin:].copy()
    if return_diagnostics:
        return series, {"capped": capped_any}
    return series


def simulate_blowfly_skeleton(params: BlowflyParams, length, init_adults=180.0,
                              burnin=50):
    """Noise-free mean map: counts replaced by expectations, shocks by 1."""
    tau = params.delay
    total = burnin + length
    hist = np.empty(tau + total, dtype=float)
    hist[:tau] = float(init_adults)
    decay = np.exp(-params.survival_rate)
    for t in range(tau, tau + total):
        lagged = hist[t - tau]
        recruits = (params.recruitment_scale * lagged
                    * np.exp(-lagged / params.scaling_pop))
        hist[t] = recruits + decay * hist[t - 1]
    return hist[tau + burnin:].copy()


def simulate_blowfly_batch(params: BlowflyParams, length, reps, rng,
                           init_adults=180, burnin=50, cap=COUNT_CAP):
    """``reps`` independent series at one parameter value, vectorized."""
    tau = params.delay
    total = burnin + length
    hist = np.empty((tau + total, reps), dtype=np.int64)
    hist[:tau] = int(init_adults)
    for t in range(tau, tau + total):
        lag = hist[t - tau].astype(float)
        shock_r = _gamma_unit_mean(rng, params.recruit_noise_var, size=reps)
        lam = np.minimum(params.recruitment_scale * lag
                         * np.exp(-lag / params.scaling_pop) * shock_r, cap)
        recruits = rng.poisson(lam)
        shock_s = _gamma_unit_mean(rng, params.survival_noise_var, size=reps)
        p_survive = np.clip(np.exp(-params.survival_rate * shock_s), 0.0, 1.0)
        survivors = rng.binomial(hist[t - 1], p_survive)
        hist[t] = np.minimum(recruits + survivors, int(cap))
    return hist[tau + burnin:].T.copy()


# -- predator-prey diffusion ---------------------------------------------------------


@dataclass(frozen=True)
class VolesParams:
    """Dimensionless seasonal predator-prey parameters."""

    prey_growth: float       # r
    season_amplitude: float  # e, in [0, 1)
    gen_pred_max: float      # g: generalist predation ceiling
    gen_pred_scale: float    # h: half-saturation prey density
    attack_rate: float       # a: specialist predation rate
    interference: float      # delta: predation saturation offset
    pred_growth: float       # s
    noise_scale: float       # sigma: environmental volatility on prey
    obs_rate: float          # phi: Poisson count rate per unit prey

    def __post_init__(self):
        vals = (self.prey_growth, self.gen_pred_max, self.gen_pred_scale,
                self.attack_rate, self.interference, self.pred_growth,
                self.obs_rate)
        if any(v <= 0 for v in vals):
            raise DomainError("predator-prey parameters must be positive")
        if not 0.0 <= self.season_amplitude < 1.0:
            raise DomainError("seasonal amplitude must lie in [0, 1)")
        if self.noise_scale < 0.0:
            raise DomainError("noise scale must be nonnegative")

    @classmethod
    def from_array(cls, values):
        return cls(*[float(v) for v in values])

    names = ("prey_growth", "season_amplitude", "gen_pred_max",
             "gen_pred_scale", "attack_rate", "interference", "pred_growth",
             "noise_scale", "obs_rate")

    @property
    def gen_pred_scale_sq(self):
        """h squared by Python's float power, which ``np.square`` does not
        always match to the last bit."""
        return self.gen_pred_scale ** 2


def voles_columns(units):
    """The fields of n :class:`VolesParams` as (n,) arrays, in the form
    :func:`voles_drift` reads one parameter value."""
    fields = VolesParams.names + ("gen_pred_scale_sq",)
    return SimpleNamespace(**{name: np.array([getattr(u, name) for u in units])
                              for name in fields})


def voles_drift(prey, pred, t, params: VolesParams):
    """Deterministic part of (dn/dt, dp/dt) at time t (years).

    ``params`` is one :class:`VolesParams` or the :func:`voles_columns` of
    as many units as ``prey`` has entries.
    """
    season = 1.0 - params.season_amplitude * np.sin(2.0 * np.pi * t)
    dn = (params.prey_growth * season * prey
          - params.prey_growth * prey * prey
          - params.gen_pred_max * prey * prey
          / (prey * prey + params.gen_pred_scale_sq)
          - params.attack_rate * prey * pred / (prey + params.interference))
    dp = (params.pred_growth * season * pred
          - params.pred_growth * pred * pred / prey)
    return dn, dp


def _euler_step(prey, pred, t, params, z, dt, floor):
    """One Euler-Maruyama step; only the prey carries the Brownian term."""
    dn, dp = voles_drift(prey, pred, t, params)
    noise = prey * params.noise_scale * np.sqrt(dt) * z
    return (np.maximum(prey + dn * dt + noise, floor),
            np.maximum(pred + dp * dt, floor))


def integrate_voles(params: VolesParams, years, rng, dt=VOLES_DT,
                    init=VOLES_INIT, floor=STATE_FLOOR, cap=STATE_CAP,
                    reps=1):
    """Euler-Maruyama path of (prey, predator); shapes (steps+1, reps).

    Only the prey equation carries the Brownian term (multiplicative).
    Raises :class:`SimulationDivergedError` when a state exceeds ``cap``.
    """
    steps = int(round(years / dt))
    prey = np.full(reps, float(init[0]))
    pred = np.full(reps, float(init[1]))
    out_n = np.empty((steps + 1, reps))
    out_p = np.empty((steps + 1, reps))
    out_n[0], out_p[0] = prey, pred
    for i in range(steps):
        t = i * dt
        prey, pred = _euler_step(prey, pred, t, params,
                                 rng.standard_normal(reps), dt, floor)
        if np.any(prey > cap) or np.any(pred > cap):
            raise SimulationDivergedError(
                f"predator-prey state exceeded {cap:g} at t={t:.3f}",
                params=params)
        out_n[i + 1], out_p[i + 1] = prey, pred
    return out_n, out_p


def voles_schedule(length, dt=VOLES_DT, obs_offsets=(0.45, 0.7)):
    """(whole years simulated, their Euler steps, step index of each
    observation) for ``length`` observations at years ``k + offsets[0]``,
    ``k + offsets[1]``, ..."""
    if length < 1:
        raise DomainError("series length must be >= 1")
    years = int(np.ceil(length / len(obs_offsets)))
    idx = [int(round((k + off) / dt)) for k in range(years)
           for off in obs_offsets]
    return years, int(round(years / dt)), np.asarray(idx[:length])


def voles_counts(obs_rate, prey, rng):
    """Poisson trapping counts with mean ``obs_rate * prey`` (capped)."""
    return rng.poisson(np.minimum(obs_rate * prey, COUNT_CAP))


def simulate_voles(params: VolesParams, length, rng, dt=VOLES_DT,
                   obs_offsets=(0.45, 0.7), init=VOLES_INIT,
                   floor=STATE_FLOOR, cap=STATE_CAP, reps=None):
    """Integer trapping counts at two observation times per year.

    ``length`` observations at years ``k + offsets[0]``, ``k + offsets[1]``;
    counts are Poisson with mean ``obs_rate * prey``.  With ``reps`` set, a
    (reps, length) matrix of independent series shares one parameter value.
    """
    years, _, idx = voles_schedule(length, dt, obs_offsets)
    n_reps = reps or 1
    prey_path, _ = integrate_voles(params, years, rng, dt=dt, init=init,
                                   floor=floor, cap=cap, reps=n_reps)
    counts = voles_counts(params.obs_rate, prey_path[idx], rng)
    return counts[:, 0] if reps is None else counts.T.copy()


def integrate_voles_lockstep(units, obs_steps, normals):
    """Prey at the observation steps of n units integrated together.

    ``units`` holds n :class:`VolesParams`; column u of the (steps, n)
    ``normals`` is unit u's Brownian draws, and ``obs_steps`` are the step
    indices of :func:`voles_schedule`.  Each unit takes the path that
    :func:`integrate_voles` gives it with ``reps=1`` on those draws, bit for
    bit.  Returns the (len(obs_steps), n) prey at ``obs_steps`` and each
    unit's first step whose state exceeds :data:`STATE_CAP` (-1 if none).
    A diverged unit restarts from :data:`VOLES_INIT` so that it stays
    finite; its prey values are meaningless.
    """
    params = voles_columns(units)
    prey = np.full(len(units), VOLES_INIT[0])
    pred = np.full(len(units), VOLES_INIT[1])
    rows_at = {}
    for row, step in enumerate(obs_steps):
        rows_at.setdefault(int(step), []).append(row)
    obs = np.empty((len(obs_steps), len(units)))
    obs[rows_at.get(0, [])] = prey
    diverged = np.full(len(units), -1)
    for i in range(normals.shape[0]):
        prey, pred = _euler_step(prey, pred, i * VOLES_DT, params, normals[i],
                                 VOLES_DT, STATE_FLOOR)
        hit = (prey > STATE_CAP) | (pred > STATE_CAP)
        if hit.any():
            diverged[hit & (diverged < 0)] = i
            prey[hit], pred[hit] = VOLES_INIT
        if i + 1 in rows_at:
            obs[rows_at[i + 1]] = prey
    return obs, diverged
