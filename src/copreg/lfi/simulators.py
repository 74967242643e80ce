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

#: Euler-Maruyama step (years), (prey, predator) start and yearly
#: observation times (fractions of a year) of the predator-prey simulator.
VOLES_DT = 1e-2
VOLES_INIT = (1.0, 0.1)
VOLES_OBS_OFFSETS = (0.45, 0.7)

#: Blowfly history: the flat adult count of its first ``delay`` steps, and
#: the generated steps discarded before the series starts.
BLOWFLY_INIT_ADULTS = 180
BLOWFLY_BURNIN = 50


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
        if any(getattr(self, name) <= 0 for name in self.names):
            raise DomainError("blowfly parameters must be positive")
        if int(self.delay) != self.delay:
            raise DomainError("delay must be an integer >= 1")

    #: The parameters in prior order: column j of a prior row is names[j].
    names = ("survival_rate", "recruitment_scale", "scaling_pop",
             "recruit_noise_var", "delay", "survival_noise_var")

    @classmethod
    def from_array(cls, values):
        row = dict(zip(cls.names, map(float, values), strict=True))
        return cls(**{**row, "delay": int(round(row["delay"]))})


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


def simulate_blowfly(params: BlowflyParams, length, rng, cap=COUNT_CAP,
                     return_diagnostics=False):
    """Integer population series of the given length.

    History starts flat at BLOWFLY_INIT_ADULTS for the first ``delay`` steps
    and the first BLOWFLY_BURNIN generated steps are discarded.  Counts and
    Poisson means are capped at ``cap`` with a diagnostic flag.
    """
    if length < 1:
        raise DomainError("series length must be >= 1")
    tau = params.delay
    total = BLOWFLY_BURNIN + length
    hist = np.empty(tau + total, dtype=np.int64)
    hist[:tau] = BLOWFLY_INIT_ADULTS
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
    series = hist[tau + BLOWFLY_BURNIN:].copy()
    if return_diagnostics:
        return series, {"capped": capped_any}
    return series


def simulate_blowfly_skeleton(params: BlowflyParams, length):
    """Noise-free mean map: counts replaced by expectations, shocks by 1."""
    tau = params.delay
    total = BLOWFLY_BURNIN + length
    hist = np.empty(tau + total, dtype=float)
    hist[:tau] = BLOWFLY_INIT_ADULTS
    decay = np.exp(-params.survival_rate)
    for t in range(tau, tau + total):
        lagged = hist[t - tau]
        recruits = (params.recruitment_scale * lagged
                    * np.exp(-lagged / params.scaling_pop))
        hist[t] = recruits + decay * hist[t - 1]
    return hist[tau + BLOWFLY_BURNIN:].copy()


def simulate_blowfly_batch(params: BlowflyParams, length, reps, rng):
    """``reps`` independent series at one parameter value, vectorized."""
    tau = params.delay
    total = BLOWFLY_BURNIN + length
    hist = np.empty((tau + total, reps), dtype=np.int64)
    hist[:tau] = BLOWFLY_INIT_ADULTS
    for t in range(tau, tau + total):
        lag = hist[t - tau].astype(float)
        shock_r = _gamma_unit_mean(rng, params.recruit_noise_var, size=reps)
        lam = np.minimum(params.recruitment_scale * lag
                         * np.exp(-lag / params.scaling_pop) * shock_r,
                         COUNT_CAP)
        recruits = rng.poisson(lam)
        shock_s = _gamma_unit_mean(rng, params.survival_noise_var, size=reps)
        p_survive = np.clip(np.exp(-params.survival_rate * shock_s), 0.0, 1.0)
        survivors = rng.binomial(hist[t - 1], p_survive)
        hist[t] = np.minimum(recruits + survivors, int(COUNT_CAP))
    return hist[tau + BLOWFLY_BURNIN:].T.copy()


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
        positive = set(self.names) - {"season_amplitude", "noise_scale"}
        if any(getattr(self, name) <= 0 for name in positive):
            raise DomainError("predator-prey parameters must be positive")
        if not 0.0 <= self.season_amplitude < 1.0:
            raise DomainError("seasonal amplitude must lie in [0, 1)")
        if self.noise_scale < 0.0:
            raise DomainError("noise scale must be nonnegative")

    #: The parameters in prior order: column j of a prior row is names[j].
    names = ("prey_growth", "season_amplitude", "gen_pred_max",
             "gen_pred_scale", "attack_rate", "interference", "pred_growth",
             "noise_scale", "obs_rate")

    @classmethod
    def from_array(cls, values):
        return cls(**dict(zip(cls.names, map(float, values), strict=True)))

    @property
    def gen_pred_scale_sq(self):
        """h squared by Python's float power, which ``np.square`` does not
        always match to the last bit."""
        return self.gen_pred_scale ** 2


def voles_drift(prey, pred, t, params: VolesParams):
    """Deterministic part of (dn/dt, dp/dt) at time t (years).

    ``params`` is one :class:`VolesParams`, or holds each field as an array
    with one entry per ``prey`` entry.
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


def integrate_voles_lockstep(units, normals, record, dt=VOLES_DT,
                             init=VOLES_INIT, cap=STATE_CAP):
    """Euler-Maruyama paths of (prey, predator), n together; path u runs at
    the :class:`VolesParams` ``units[u]``, and column u of the (steps, n)
    ``normals`` drives its Brownian term, which only the prey carries
    (multiplicative).  Returns prey and predator, each (len(record), n), at
    the distinct steps ``record`` (step 0 is ``init``), and each path's
    first step over ``cap`` (-1 if none), after which the path restarts
    from ``init`` and its values are meaningless.  Stops once every path
    has diverged.
    """
    fields = VolesParams.names + ("gen_pred_scale_sq",)
    params = SimpleNamespace(**{name: np.array([getattr(u, name) for u in units])
                                for name in fields})
    steps, n = normals.shape
    prey = np.full(n, float(init[0]))
    pred = np.full(n, float(init[1]))
    row_of = {int(step): row for row, step in enumerate(record)}
    prey_at = np.empty((len(record), n))
    pred_at = np.empty((len(record), n))
    if 0 in row_of:
        prey_at[row_of[0]], pred_at[row_of[0]] = prey, pred
    diverged = np.full(n, -1)
    for i in range(steps):
        dn, dp = voles_drift(prey, pred, i * dt, params)
        noise = prey * params.noise_scale * np.sqrt(dt) * normals[i]
        prey = np.maximum(prey + dn * dt + noise, STATE_FLOOR)
        pred = np.maximum(pred + dp * dt, STATE_FLOOR)
        hit = (prey > cap) | (pred > cap)
        if hit.any():
            diverged[hit & (diverged < 0)] = i
            prey[hit], pred[hit] = init
            if diverged.min() >= 0:
                break
        if i + 1 in row_of:
            prey_at[row_of[i + 1]], pred_at[row_of[i + 1]] = prey, pred
    return prey_at, pred_at, diverged


def _voles_paths(params: VolesParams, steps, record, rng, reps,
                 dt=VOLES_DT, init=VOLES_INIT, cap=STATE_CAP):
    """:func:`integrate_voles_lockstep` of ``reps`` paths at one parameter
    value, on (steps, reps) normals drawn from ``rng`` in one call.  On a
    divergence ``rng`` is left where drawing each step's normals stops."""
    state = rng.bit_generator.state
    prey, pred, diverged = integrate_voles_lockstep(
        [params] * reps, rng.standard_normal((steps, reps)), record, dt,
        init, cap)
    if (diverged >= 0).any():
        step = int(diverged[diverged >= 0].min())
        rng.bit_generator.state = state
        rng.standard_normal((step + 1, reps))
        raise SimulationDivergedError(
            f"predator-prey state exceeded {cap:g} at t={step * dt:.3f}",
            params=params)
    return prey, pred


def integrate_voles(params: VolesParams, years, rng, dt=VOLES_DT,
                    init=VOLES_INIT, cap=STATE_CAP, reps=1):
    """Euler-Maruyama path of (prey, predator); shapes (steps+1, reps).
    Raises :class:`SimulationDivergedError` when a state exceeds ``cap``."""
    steps = int(round(years / dt))
    return _voles_paths(params, steps, np.arange(steps + 1), rng, reps,
                        dt, init, cap)


def voles_schedule(length):
    """(Euler steps simulated, step index of each observation) for
    ``length`` observations at years ``k + VOLES_OBS_OFFSETS[0]``,
    ``k + VOLES_OBS_OFFSETS[1]``, ... over whole years."""
    if length < 1:
        raise DomainError("series length must be >= 1")
    years = int(np.ceil(length / len(VOLES_OBS_OFFSETS)))
    idx = [int(round((k + off) / VOLES_DT)) for k in range(years)
           for off in VOLES_OBS_OFFSETS]
    return int(round(years / VOLES_DT)), np.asarray(idx[:length])


def voles_counts(obs_rate, prey, rng):
    """Poisson trapping counts with mean ``obs_rate * prey`` (capped)."""
    return rng.poisson(np.minimum(obs_rate * prey, COUNT_CAP))


def simulate_voles(params: VolesParams, length, rng, reps=None):
    """Integer trapping counts at two observation times per year.

    ``length`` observations at the steps of :func:`voles_schedule`; counts
    are Poisson with mean ``obs_rate * prey``.  With ``reps`` set, a
    (reps, length) matrix of independent series shares one parameter value.
    """
    steps, idx = voles_schedule(length)
    prey, _ = _voles_paths(params, steps, idx, rng, reps or 1)
    counts = voles_counts(params.obs_rate, prey, rng)
    return counts[:, 0] if reps is None else counts.T.copy()
