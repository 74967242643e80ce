"""Simulator oracles: skeleton maps, conditional moments, SDE reductions."""

import numpy as np
import pytest

from copreg.errors import DomainError, SimulationDivergedError
from copreg.lfi import (
    BlowflyParams,
    VolesParams,
    blowfly_step,
    integrate_voles,
    simulate_blowfly,
    simulate_blowfly_batch,
    simulate_blowfly_skeleton,
    simulate_voles,
)
from copreg.lfi.priors import default_blowfly_prior

BF = BlowflyParams(survival_rate=0.2, recruitment_scale=5.0,
                   scaling_pop=300.0, recruit_noise_var=0.2, delay=12,
                   survival_noise_var=0.2)

#: Recruitment far above the count cap.
WILD = BlowflyParams(survival_rate=0.01, recruitment_scale=1e7,
                     scaling_pop=1e7, recruit_noise_var=0.1, delay=2,
                     survival_noise_var=0.1)


def test_skeleton_matches_independent_map():
    # independently coded delayed map: growth + exponential survival decay
    length, burnin, tau = 60, 50, BF.delay
    state = [180.0] * tau
    for _ in range(burnin + length):
        lagged, prev = state[-tau], state[-1]
        grown = 5.0 * lagged * np.exp(-lagged / 300.0)
        state.append(grown + np.exp(-0.2) * prev)
    expected = np.array(state[tau + burnin:])
    got = simulate_blowfly_skeleton(BF, length)
    assert np.max(np.abs(got - expected)) < 1e-9


def test_recruit_conditional_mean():
    # E[recruits | history] = scale * lag * exp(-lag / pop) (unit-mean shock)
    rng = np.random.default_rng(1)
    n_prev, n_lag = 200, 150
    reps = 100_000
    recruits = np.array([blowfly_step(n_prev, n_lag, BF, rng)[0]
                         for _ in range(reps)])
    lam = 5.0 * n_lag * np.exp(-n_lag / 300.0)
    # Var = E[Var|shock] + Var[E|shock] = lam + lam^2 * shock_var
    se = np.sqrt((lam + lam * lam * 0.2) / reps)
    assert abs(recruits.mean() - lam) < 3.0 * se


def test_blowfly_series_length_and_dtype():
    rng = np.random.default_rng(2)
    series = simulate_blowfly(BF, 275, rng)
    assert series.shape == (275,)
    assert series.dtype == np.int64
    assert np.all(series >= 0)


def test_blowfly_deterministic_given_seed():
    a = simulate_blowfly(BF, 100, np.random.default_rng(42))
    b = simulate_blowfly(BF, 100, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_blowfly_survivors_bounded_by_previous_population():
    rng = np.random.default_rng(3)
    for _ in range(500):
        n_prev = int(rng.integers(0, 500))
        _, survivors, _ = blowfly_step(n_prev, 100, BF, rng)
        assert 0 <= survivors <= n_prev


def test_blowfly_cap_flag_and_ceiling():
    rng = np.random.default_rng(4)
    series, diag = simulate_blowfly(WILD, 30, rng, cap=1e5,
                                    return_diagnostics=True)
    assert diag["capped"]
    assert series.max() <= 1e5


def test_blowfly_batch_matches_contract():
    rng = np.random.default_rng(5)
    batch = simulate_blowfly_batch(BF, 50, 8, rng)
    assert batch.shape == (8, 50)
    batch2 = simulate_blowfly_batch(BF, 50, 8, np.random.default_rng(5))
    np.testing.assert_array_equal(batch, batch2)


@pytest.mark.parametrize("length", [30, 100])
def test_blowfly_scalar_and_batch_loops_are_one_recursion(length):
    """The scalar loop (training units) and the batch loop (replicates) are
    kept apart for speed; at reps=1 they give the same series and consume
    the same draws, on 100 prior draws and on capped runs."""
    draws = default_blowfly_prior().sample_matrix(
        np.random.default_rng(length), 100)
    cases = [BlowflyParams.from_array(row) for row in draws] + [WILD] * 10
    for seed, params in enumerate(cases):
        rng, batch_rng = (np.random.default_rng(seed),
                          np.random.default_rng(seed))
        one = simulate_blowfly(params, length, rng)
        batch = simulate_blowfly_batch(params, length, 1, batch_rng)
        assert np.array_equal(one, batch[0])
        assert np.array_equal(rng.random(3), batch_rng.random(3))
    assert one.max() == 1e8  # the wild runs reach the default cap


def test_blowfly_param_validation():
    with pytest.raises(DomainError):
        BlowflyParams(0.2, 5.0, 300.0, 0.2, 0, 0.2)  # delay < 1
    with pytest.raises(DomainError):
        BlowflyParams(-0.2, 5.0, 300.0, 0.2, 3, 0.2)


# -- predator-prey ---------------------------------------------------------------


def logistic_only_params(r=2.0):
    return VolesParams(prey_growth=r, season_amplitude=0.0,
                       gen_pred_max=1e-14, gen_pred_scale=0.1,
                       attack_rate=1e-14, interference=0.06,
                       pred_growth=1.0, noise_scale=0.0, obs_rate=80.0)


def test_voles_logistic_reduction_matches_closed_form():
    # with no noise, no seasonality, no predation the prey follows
    # dn/dt = r n (1 - n): n(t) = n0 / (n0 + (1 - n0) exp(-r t))
    params = logistic_only_params()
    prey, _ = integrate_voles(params, 3.0, np.random.default_rng(0), dt=1e-3,
                              init=(0.2, 0.1))
    t = np.arange(prey.shape[0]) * 1e-3
    closed = 0.2 / (0.2 + 0.8 * np.exp(-2.0 * t))
    assert np.max(np.abs(prey[:, 0] - closed)) < 1e-3


def test_voles_first_order_dt_convergence():
    params = logistic_only_params()

    def err_at(dt):
        prey, _ = integrate_voles(params, 2.0, np.random.default_rng(0),
                                  dt=dt, init=(0.2, 0.1))
        t_end = 2.0
        closed = 0.2 / (0.2 + 0.8 * np.exp(-2.0 * t_end))
        return abs(prey[-1, 0] - closed)

    dts = np.array([0.02, 0.01, 0.005, 0.0025])
    errs = np.array([err_at(dt) for dt in dts])
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 0.8 < slope < 1.2


def test_voles_observation_count_and_determinism():
    params = VolesParams(5.0, 0.5, 0.1, 0.1, 10.0, 0.06, 1.2, 1.0, 80.0)
    a = simulate_voles(params, 90, np.random.default_rng(7))
    b = simulate_voles(params, 90, np.random.default_rng(7))
    assert a.shape == (90,)
    assert np.all(a >= 0)
    np.testing.assert_array_equal(a, b)


def test_voles_states_stay_above_floor():
    params = VolesParams(5.0, 0.9, 0.3, 0.05, 15.0, 0.02, 1.5, 2.0, 80.0)
    prey, pred = integrate_voles(params, 10.0, np.random.default_rng(8),
                                 dt=1e-2)
    assert prey.min() >= 1e-6
    assert pred.min() >= 1e-6


def test_voles_divergence_error_carries_params():
    # deterministic logistic climb through a cap below carrying capacity
    params = logistic_only_params(r=200.0)
    with pytest.raises(SimulationDivergedError) as exc_info:
        integrate_voles(params, 5.0, np.random.default_rng(9), dt=1e-2,
                        init=(0.5, 0.1), cap=0.9)
    assert exc_info.value.params == params


def test_voles_replicate_matrix():
    params = VolesParams(5.0, 0.5, 0.1, 0.1, 10.0, 0.06, 1.2, 1.0, 80.0)
    reps = simulate_voles(params, 30, np.random.default_rng(10), reps=6)
    assert reps.shape == (6, 30)


def test_voles_param_validation():
    with pytest.raises(DomainError):
        VolesParams(5.0, 1.2, 0.1, 0.1, 10.0, 0.06, 1.2, 1.0, 80.0)
    with pytest.raises(DomainError):
        VolesParams(-5.0, 0.5, 0.1, 0.1, 10.0, 0.06, 1.2, 1.0, 80.0)
