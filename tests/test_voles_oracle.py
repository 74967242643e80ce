"""Voles simulation and training units against per-step loops, bit for bit.

``reference_integrate_voles`` is the Euler-Maruyama loop written one step at
a time: each step draws its ``reps`` normals.  :func:`integrate_voles` and
:func:`simulate_voles` draw all of a path's normals in one call and integrate
them in :func:`integrate_voles_lockstep`; they must consume the same random
stream, also when a path diverges, so arrays, errors and the generator's
next draws all equal the reference exactly.

``reference_generate_training`` is ``generate_training`` written one unit at
a time: each unit's generator draws rho, runs the simulator on it (voles
through the per-step reference) and resamples after a divergence.
:func:`copreg.lfi.generate_training` integrates voles units together in
blocks; every unit must consume its stream as the reference does, so params,
series, divergence warnings and errors all equal the reference exactly.
"""

import functools
import logging
import tracemalloc

import numpy as np
import pytest

from copreg.errors import (
    ConfigError,
    DataError,
    DomainError,
    SimulationDivergedError,
)
from copreg.lfi import blowfly_model, generate_training, voles_model
from copreg.lfi import pipeline
from copreg.lfi.priors import ParamPrior, PriorSpec, default_voles_prior
from copreg.lfi.simulators import (
    STATE_CAP,
    STATE_FLOOR,
    VolesParams,
    integrate_voles,
    simulate_voles,
    voles_counts,
    voles_drift,
)

LOGGER = "copreg.lfi.pipeline"

# -- reference: the per-step loop and the per-unit loop ------------------------------


def reference_integrate_voles(params, years, rng, dt=1e-2, init=(1.0, 0.1),
                              cap=STATE_CAP, reps=1):
    steps = int(round(years / dt))
    prey = np.full(reps, float(init[0]))
    pred = np.full(reps, float(init[1]))
    out_n = np.empty((steps + 1, reps))
    out_p = np.empty((steps + 1, reps))
    out_n[0], out_p[0] = prey, pred
    for i in range(steps):
        t = i * dt
        dn, dp = voles_drift(prey, pred, t, params)
        noise = prey * params.noise_scale * np.sqrt(dt) * rng.standard_normal(
            reps)
        prey = np.maximum(prey + dn * dt + noise, STATE_FLOOR)
        pred = np.maximum(pred + dp * dt, STATE_FLOOR)
        if np.any(prey > cap) or np.any(pred > cap):
            raise SimulationDivergedError(
                f"predator-prey state exceeded {cap:g} at t={t:.3f}",
                params=params)
        out_n[i + 1], out_p[i + 1] = prey, pred
    return out_n, out_p


def reference_simulate_voles(params, length, rng, reps=None):
    """Counts at years k + 0.45 and k + 0.7 of the whole years simulated."""
    years = int(np.ceil(length / 2))
    idx = [int(round((k + off) / 1e-2)) for k in range(years)
           for off in (0.45, 0.7)][:length]
    prey, _ = reference_integrate_voles(params, years, rng, reps=reps or 1)
    counts = voles_counts(params.obs_rate, prey[idx], rng)
    return counts[:, 0] if reps is None else counts.T.copy()


def reference_generate_training(model, n_total, seed=0, max_retries=100):
    children = np.random.SeedSequence(seed).spawn(n_total)
    params = np.empty((n_total, model.prior.dim))
    series = np.empty((n_total, model.series_length), dtype=np.int64)
    for i in range(n_total):
        rng = np.random.default_rng(children[i])
        for attempt in range(max_retries):
            rho = model.prior.sample_matrix(rng, 1)[0]
            try:
                if model.name == "voles":
                    series[i] = reference_simulate_voles(
                        VolesParams.from_array(rho), model.series_length, rng)
                else:
                    series[i] = model.simulate(rho, rng)
                params[i] = rho
                break
            except SimulationDivergedError:
                logging.getLogger(LOGGER).warning(
                    "simulation diverged (unit %d, attempt %d); resampling",
                    i, attempt)
        else:
            raise DataError(f"unit {i}: exceeded {max_retries} resampling "
                            "attempts")
    return params, series


@functools.lru_cache(maxsize=None)
def reference_voles(n_total, length, seed):
    return reference_generate_training(voles_model(series_length=length),
                                       n_total, seed=seed)


def units(model, n_total, seed=0, max_retries=100):
    """``generate_training``'s (params, series), train and test rejoined."""
    train, test = generate_training(model, n_total, split=0.75, seed=seed,
                                    max_retries=max_retries)
    return (np.vstack([train.params, test.params]),
            np.vstack([train.series, test.series]))


def noisy_voles(series_length=16, **replace):
    """Voles whose noise-scale prior, lognormal(8, 4), makes about half
    the first attempts exceed the state cap, at steps spread over the path;
    ``replace`` swaps in further priors by name."""
    params = default_voles_prior().params
    replace.setdefault("noise_scale",
                       ParamPrior("noise_scale", "lognormal", 8.0, 4.0))
    params = [replace.get(p.name, p) for p in params]
    return voles_model(prior=PriorSpec(params), series_length=series_length)


def outcome(run, caplog):
    """(result or raised error, divergence warnings) of ``run()``."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger=LOGGER):
        try:
            result = run()
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [r.getMessage() for r in caplog.records]


# -- byte identity ---------------------------------------------------------------


@pytest.mark.parametrize("n_total,length,seed",
                         [(16, 32, 1), (16, 32, 84), (40, 90, 3)])
def test_voles_units_equal_the_per_unit_loop(n_total, length, seed):
    params, series = units(voles_model(series_length=length), n_total,
                           seed=seed)
    ref_params, ref_series = reference_voles(n_total, length, seed)
    assert series.dtype == ref_series.dtype
    assert np.array_equal(params, ref_params)
    assert np.array_equal(series, ref_series)


def test_voles_units_do_not_depend_on_the_block_size(monkeypatch):
    monkeypatch.setattr(pipeline, "VOLES_BLOCK", 7)
    ref_params, ref_series = reference_voles(40, 90, 3)
    params, series = units(voles_model(series_length=90), 40, seed=3)
    assert np.array_equal(params, ref_params)
    assert np.array_equal(series, ref_series)


# prior draw k runs INTEGRATE_CASES[k % 2] and SIMULATE_CASES[k % 4]
INTEGRATE_CASES = [{"years": 2.0, "reps": 2},
                   {"years": 1.0, "dt": 5e-3, "init": (0.2, 0.1),
                    "cap": 50.0}]
SIMULATE_CASES = [{"length": 9}, {"length": 32, "reps": 3}, {"length": 32},
                  {"length": 9, "reps": 3}]


def seeded_outcome(simulate, params, seed, **options):
    """(the arrays ``simulate`` returns on a fresh generator, or its
    divergence message and params; that generator's next draws)."""
    rng = np.random.default_rng(seed)
    try:
        result = simulate(params, rng=rng, **options)
        result = list(result) if isinstance(result, tuple) else [result]
    except SimulationDivergedError as exc:
        result = (str(exc), exc.params)
    return result, rng.standard_normal(4)


def assert_same_outcome(got, want):
    (result, draws), (ref_result, ref_draws) = got, want
    assert np.array_equal(draws, ref_draws)
    assert type(result) is type(ref_result)
    if isinstance(ref_result, tuple):
        assert result == ref_result
        return
    assert len(result) == len(ref_result)
    for a, b in zip(result, ref_result):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@pytest.mark.parametrize("wide_noise", [False, True])
def test_simulators_equal_the_per_step_loop(wide_noise):
    """150 draws from the shipped prior, and 150 with a noise scale wide
    enough that many paths diverge, each run through one integrate_voles
    and one simulate_voles case."""
    model = noisy_voles() if wide_noise else voles_model()
    draws = model.prior.sample_matrix(np.random.default_rng(11), 150)
    diverged = 0
    for k, row in enumerate(draws):
        params = VolesParams.from_array(row)
        for simulate, reference, options in (
                (integrate_voles, reference_integrate_voles,
                 INTEGRATE_CASES[k % 2]),
                (simulate_voles, reference_simulate_voles,
                 SIMULATE_CASES[k % 4])):
            want = seeded_outcome(reference, params, k, **options)
            assert_same_outcome(
                seeded_outcome(simulate, params, k, **options), want)
            diverged += isinstance(want[0], tuple)
    if wide_noise:
        assert 50 <= diverged <= 250


def test_blowfly_units_equal_the_per_unit_loop():
    model = blowfly_model(series_length=50)
    params, series = units(model, 20, seed=2)
    ref_params, ref_series = reference_generate_training(model, 20, seed=2)
    assert np.array_equal(params, ref_params)
    assert np.array_equal(series, ref_series)


# -- divergence replay ---------------------------------------------------------------


@pytest.mark.parametrize("max_retries", [100, 3])
def test_diverged_units_replay_their_stream(caplog, monkeypatch,
                                            max_retries):
    """About half the first attempts diverge; with three attempts unit 12
    runs out of them."""
    monkeypatch.setattr(pipeline, "VOLES_BLOCK", 5)
    model = noisy_voles()
    got, got_warnings = outcome(
        lambda: units(model, 24, seed=2, max_retries=max_retries), caplog)
    want, want_warnings = outcome(
        lambda: reference_generate_training(model, 24, seed=2,
                                            max_retries=max_retries),
        caplog)
    assert len(want_warnings) >= 10
    assert got_warnings == want_warnings
    if max_retries == 3:
        assert got == want
        assert got[0] is DataError
    else:
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_out_of_domain_draw_raises_after_the_units_before_it(caplog,
                                                             monkeypatch):
    """A season amplitude whose logit draw rounds to 1.0 fails the domain
    check, after the warnings of every earlier unit, as in the per-unit
    loop."""
    monkeypatch.setattr(pipeline, "VOLES_BLOCK", 5)
    model = noisy_voles(season_amplitude=ParamPrior(
        "season_amplitude", "logitnormal", 35.0, 1.0))
    got = outcome(lambda: units(model, 24, seed=3), caplog)
    want = outcome(lambda: reference_generate_training(model, 24, seed=3),
                   caplog)
    assert got == want
    assert got[0][0] is DomainError
    assert got[1]


def test_generate_training_rejects_no_attempts():
    with pytest.raises(ConfigError):
        generate_training(voles_model(series_length=16), 4, max_retries=0)


# -- memory ------------------------------------------------------------------------


def test_voles_units_stay_in_memory_bounded_by_the_block(monkeypatch):
    """2000 length-32 units (1600 steps each): one block of normal draws is
    1600 x 256 x 8 B = 3.3 MB and the run peaks near 5 MB; all units at
    once would draw 25.6 MB."""
    model = voles_model(series_length=32)
    bound = 8 * 2**20

    def peak(block):
        monkeypatch.setattr(pipeline, "VOLES_BLOCK", block)
        tracemalloc.start()
        try:
            generate_training(model, 2000, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(256) < bound
    assert peak(2000) > bound
