"""Release gate: one test per acceptance criterion, one printed line each.

Criteria 5 and 6 exercise the Boston housing benchmark and require a local
copy of the (public) dataset; see ``copreg.datasets.load_boston_housing``
for the accepted locations.  Equivalent properties run on synthetic skewed
data in the supplement tests at the bottom, which do not replace the
criteria.
"""

import filecmp
import json
import os
import time

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import kstest

from helpers import fd_gradient_check, synthetic_skewed_regression

from copreg.calibration import mean_log_score
from copreg.copula import (
    ShrinkageState,
    copula_logdensity,
    corr_matrix,
    sample_beta,
    sample_theta,
    scaling_rows,
)
from copreg.datasets import load_boston_housing
from copreg.errors import DataError
from copreg.lfi import (
    BlowflyParams,
    LfiFitConfig,
    VolesParams,
    blowfly_model,
    blowfly_step,
    energy_score,
    eval_simulation,
    fit_all_parameters,
    generate_training,
    integrate_voles,
    marginal_calibration_distance,
    simulate_blowfly_skeleton,
)
from copreg.margin import fit_kde, to_pseudo
from copreg.nnet import TrainConfig, build_cnn, build_ffn
from copreg.pipeline import fit_copula_regression, fit_gaussian_baseline
from copreg.predict import (
    average_predictive_cdf,
    default_grid,
    margin_grid,
    predict_cdf,
    predict_density,
    predict_density_at,
    sample_predictive,
)

_LOG_2PI = np.log(2.0 * np.pi)

pytestmark = pytest.mark.acceptance


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _random_shrinkage(rng, q):
    if rng.random() < 0.5:
        return ShrinkageState("horseshoe", lam=rng.uniform(0.2, 1.5, q),
                              tau=rng.uniform(0.3, 1.2), nu=np.ones(q),
                              xi=1.0)
    return ShrinkageState("ridge", tau2=rng.uniform(0.2, 2.0))


# -- criterion 1: copula oracle equivalence -----------------------------------------


def test_criterion_01_copula_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    base = np.concatenate([rng.normal(-1, 0.7, 60), rng.normal(1.0, 0.9, 60)])
    margin = fit_kde(base)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        q = int(rng.integers(1, 4))
        basis = rng.normal(size=(n, q)) * rng.uniform(0.3, 1.2)
        y = rng.choice(base, size=n)
        st = _random_shrinkage(rng, q)
        mc = 200_000
        betas = rng.normal(size=(mc, q)) * np.sqrt(st.prior_variance_diag(q))
        z = to_pseudo(margin, y)
        s = scaling_rows(basis, st)
        resid = (z - (betas @ basis.T) * s) / s
        loglik = ((-0.5 * resid * resid).sum(axis=1) - 0.5 * n * _LOG_2PI
                  - np.log(s).sum() + margin.logpdf(y).sum()
                  - float((-0.5 * z * z - 0.5 * _LOG_2PI).sum()))
        vals = np.exp(loglik)
        est = vals.mean()
        se = vals.std() / np.sqrt(mc)
        target = np.exp(
            copula_logdensity(np.clip(margin.cdf(y), 1e-12, 1 - 1e-12),
                              basis, st) + margin.logpdf(y).sum())
        worst = max(worst, abs(est - target) / se)
    elapsed = time.time() - t0
    _report(1, worst < 3.0 and elapsed < 120.0,
            f"max |z| = {worst:.2f} over 50 instances "
            f"(< 3 MC SEs), {elapsed:.0f}s")


# -- criterion 2: correlation-matrix invariants ---------------------------------------


def test_criterion_02_corr_matrix_invariants():
    rng = np.random.default_rng(7)
    worst_diag = 0.0
    worst_eig = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        q = int(rng.integers(1, 6))
        st = _random_shrinkage(rng, q)
        r = corr_matrix(rng.normal(size=(n, q)) * 2.0, st)
        worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(r) - 1.0))))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(r).min()))
    _report(2, worst_diag < 1e-12 and worst_eig >= -1e-10,
            f"diag dev {worst_diag:.1e} (<1e-12), "
            f"min eig {worst_eig:.1e} (>=-1e-10) over 1000 draws")


# -- criterion 3: predictive normalization and sampling --------------------------------


def test_criterion_03_predictive_normalization_and_sampling():
    from test_predict import IdentityBasis, make_random_pm

    rng = np.random.default_rng(31)
    margin = fit_kde(rng.gamma(2.0, 1.5, size=400))
    worst_mass = 0.0
    for _ in range(100):
        pm = make_random_pm(rng, margin)
        x0 = rng.normal(size=3)
        grid = default_grid(pm, x0)
        total = np.trapezoid(predict_density(pm, x0, grid), grid)
        worst_mass = max(worst_mass, abs(total - 1.0))
    worst_ks = 0.0
    for k in range(3):
        pm = make_random_pm(rng, margin)
        x0 = rng.normal(size=3)
        draws = sample_predictive(pm, x0, 100_000,
                                  np.random.default_rng(100 + k))
        stat = kstest(draws, lambda y: predict_cdf(pm, x0, y)).statistic
        worst_ks = max(worst_ks, stat)
    _report(3, worst_mass < 1e-3 and worst_ks < 0.02,
            f"mass dev {worst_mass:.2e} (<1e-3) over 100 models, "
            f"K-S {worst_ks:.4f} (<0.02) at 1e5 draws")


# -- criterion 4: gradient correctness ---------------------------------------------------


def test_criterion_04_gradient_correctness():
    rng = np.random.default_rng(41)
    ffn = build_ffn(14, seed=4)
    x_d = rng.normal(size=(12, 14))
    y_d = rng.normal(size=12)
    worst_dense = fd_gradient_check(ffn, x_d, y_d, n_probes=100, seed=1,
                                    mask_seed=55)
    cnn = build_cnn(80, seed=5)  # reference kernels (31, 10), filters (31, 7)
    x_c = rng.normal(size=(4, 80))
    y_c = rng.normal(size=4)
    worst_conv = fd_gradient_check(cnn, x_c, y_c, n_probes=100, seed=2)
    _report(4, worst_dense < 1e-4 and worst_conv < 1e-4,
            f"dense rel err {worst_dense:.2e}, conv rel err {worst_conv:.2e} "
            "(<1e-4, 100 probes each)")


# -- criteria 5 and 6: Boston housing benchmark ----------------------------------------


def _boston_or_fail(number):
    try:
        return load_boston_housing()
    except DataError as exc:
        _report(number, False,
                "Boston housing data unavailable in this environment "
                f"({exc})")


def _fit_benchmark_triplet(x, y, seed):
    fits = {}
    for variant in ("horseshoe", "ridge"):
        fit = fit_copula_regression(
            x, y, variant=variant, network=build_ffn(x.shape[1], seed=seed),
            train_cfg=TrainConfig(epochs=200, seed=seed),
            burnin=1000, draws=1000, seed=seed)
        fits[variant] = fit
    baseline = fit_gaussian_baseline(
        x, y, network=build_ffn(x.shape[1], seed=seed, output_bias=True),
        train_cfg=TrainConfig(epochs=200, seed=seed), seed=seed)
    return fits, baseline


def test_criterion_05_marginal_calibration_boston():
    data = _boston_or_fail(5)
    x, y, _ = data
    t0 = time.time()
    fit = fit_copula_regression(
        x, y, variant="horseshoe", network=build_ffn(x.shape[1], seed=0),
        train_cfg=TrainConfig(epochs=200, seed=0), burnin=1000, draws=1000,
        seed=0)
    grid = margin_grid(fit.margin)
    margin_cdf = fit.margin.cdf(grid)
    dnnc_dist = float(np.max(np.abs(
        average_predictive_cdf(fit.predictive, x, grid) - margin_cdf)))
    baseline = fit_gaussian_baseline(
        x, y, network=build_ffn(x.shape[1], seed=0, output_bias=True),
        train_cfg=TrainConfig(epochs=200, seed=0), seed=0)
    base_dist = float(np.max(np.abs(baseline.average_cdf(x, grid)
                                    - margin_cdf)))
    elapsed = time.time() - t0
    _report(5, dnnc_dist < 0.05 and base_dist > 2.0 * dnnc_dist
            and elapsed < 600.0,
            f"copula sup-dist {dnnc_dist:.4f} (<0.05), baseline "
            f"{base_dist:.4f} (>2x), {elapsed:.0f}s")


def test_criterion_06_mls_ordering_boston():
    data = _boston_or_fail(6)
    x, y, _ = data
    t0 = time.time()
    wins = 0
    details = []
    for seed in range(5):
        fits, baseline = _fit_benchmark_triplet(x, y, seed)
        mls = {v: mean_log_score(predict_density_at(f.predictive, x, y))
               for v, f in fits.items()}
        mls["dnn"] = mean_log_score(baseline.density_at(x, y))
        ordered = mls["horseshoe"] > mls["ridge"] > mls["dnn"]
        wins += ordered
        details.append(f"seed {seed}: "
                       f"{mls['horseshoe']:.2f}/{mls['ridge']:.2f}/"
                       f"{mls['dnn']:.2f}")
    elapsed = time.time() - t0
    _report(6, wins >= 4 and elapsed < 1800.0,
            f"ordering held {wins}/5 seeds ({'; '.join(details)}), "
            f"{elapsed:.0f}s")


# -- criterion 7: sampler correctness ----------------------------------------------------


def _batch_se(chain, n_batches=40):
    usable = (chain.size // n_batches) * n_batches
    means = chain[:usable].reshape(n_batches, -1).mean(axis=1)
    return means.std(ddof=1) / np.sqrt(n_batches)


def test_criterion_07_sampler_correctness():
    # no-data chain over (beta, theta) against direct prior sampling
    rng = np.random.default_rng(71)
    q = 2
    draws = 40_000

    def direct_prior(m):
        xi = 1.0 / rng.gamma(0.5, size=m)
        tau2 = (1.0 / xi) / rng.gamma(0.5, size=m)
        nu = (1.0 / tau2[:, None]) / rng.gamma(0.5, size=(m, q))
        lam2 = (1.0 / nu) / rng.gamma(0.5, size=(m, q))
        beta = rng.normal(size=(m, q)) * np.sqrt(lam2)
        return beta, lam2, tau2

    beta_a, lam2_a, tau2_a = direct_prior(draws)
    st = ShrinkageState.initial("horseshoe", q)
    basis = np.zeros((2, q))
    z = np.zeros(2)
    beta_b = np.empty((draws, q))
    lam2_b = np.empty((draws, q))
    tau2_b = np.empty(draws)
    for i in range(draws):
        beta = sample_beta(z, basis, st, rng)
        st = sample_theta(beta, st, rng)
        beta_b[i] = beta
        lam2_b[i] = st.lam ** 2
        tau2_b[i] = st.tau ** 2

    p_values = []
    for g_a, g_b in (
            (ndtr(beta_a[:, 0]), ndtr(beta_b[:, 0])),
            (1.0 / (1.0 + lam2_a[:, 0]), 1.0 / (1.0 + lam2_b[:, 0])),
            (1.0 / (1.0 + tau2_a), 1.0 / (1.0 + tau2_b))):
        se_a = g_a.std(ddof=1) / np.sqrt(g_a.size)
        se_b = _batch_se(g_b)
        zscore = (g_a.mean() - g_b.mean()) / np.sqrt(se_a ** 2 + se_b ** 2)
        p_values.append(float(2.0 * (1.0 - ndtr(abs(zscore)))))
    geweke_ok = all(p > 0.01 for p in p_values)

    # scalar conjugate posterior closed form
    st1 = ShrinkageState("ridge", tau2=1.0)
    d = np.array([sample_beta(np.array([1.0]), np.array([[1.0]]), st1,
                              rng)[0] for _ in range(100_000)])
    expect = np.sqrt(2.0) / 2.0
    se = d.std() / np.sqrt(d.size)
    scalar_ok = abs(d.mean() - expect) < 3.0 * se
    _report(7, geweke_ok and scalar_ok,
            f"prior-recovery p-values {[round(p, 3) for p in p_values]} "
            f"(>0.01); scalar mean {d.mean():.4f} vs {expect:.4f} "
            f"(within 3 SE = {3 * se:.4f})")


# -- criterion 8: blowfly simulator ------------------------------------------------------


def test_criterion_08_blowfly_simulator():
    params = BlowflyParams(0.2, 5.0, 300.0, 0.2, 12, 0.2)
    length, burnin, tau = 80, 50, params.delay
    state = [180.0] * tau
    for _ in range(burnin + length):
        lagged, prev = state[-tau], state[-1]
        state.append(5.0 * lagged * np.exp(-lagged / 300.0)
                     + np.exp(-0.2) * prev)
    skeleton_err = float(np.max(np.abs(
        simulate_blowfly_skeleton(params, length)
        - np.array(state[tau + burnin:]))))

    rng = np.random.default_rng(81)
    reps = 100_000
    recruits = np.array([blowfly_step(200, 150, params, rng)[0]
                         for _ in range(reps)])
    lam = 5.0 * 150 * np.exp(-150 / 300.0)
    se = np.sqrt((lam + lam * lam * params.recruit_noise_var) / reps)
    mean_err = abs(recruits.mean() - lam)
    _report(8, skeleton_err < 1e-9 and mean_err < 3.0 * se,
            f"skeleton err {skeleton_err:.1e} (<1e-9); conditional mean off "
            f"by {mean_err:.2f} (3 SE = {3 * se:.2f})")


# -- criterion 9: voles simulator ---------------------------------------------------------


def test_criterion_09_voles_simulator():
    params = VolesParams(prey_growth=2.0, season_amplitude=0.0,
                         gen_pred_max=1e-14, gen_pred_scale=0.1,
                         attack_rate=1e-14, interference=0.06,
                         pred_growth=1.0, noise_scale=0.0, obs_rate=80.0)
    prey, _ = integrate_voles(params, 3.0, np.random.default_rng(0), dt=1e-3,
                              init=(0.2, 0.1))
    t = np.arange(prey.shape[0]) * 1e-3
    closed = 0.2 / (0.2 + 0.8 * np.exp(-2.0 * t))
    logistic_err = float(np.max(np.abs(prey[:, 0] - closed)))

    def end_err(dt):
        path, _ = integrate_voles(params, 2.0, np.random.default_rng(0),
                                  dt=dt, init=(0.2, 0.1))
        ref = 0.2 / (0.2 + 0.8 * np.exp(-2.0 * 2.0))
        return abs(path[-1, 0] - ref)

    dts = np.array([0.02, 0.01, 0.005, 0.0025])
    errs = np.array([end_err(dt) for dt in dts])
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    _report(9, logistic_err < 1e-3 and 0.8 < slope < 1.2,
            f"logistic err {logistic_err:.1e} (<1e-3); convergence order "
            f"{slope:.2f} (first order)")


# -- criterion 10: desk-scale likelihood-free calibration ---------------------------------


@pytest.mark.slow
def test_criterion_10_lfi_marginal_calibration_desk_scale():
    t0 = time.time()
    model = blowfly_model()
    train_b, test_b = generate_training(model, 2500, split=0.8, seed=7)
    assert train_b.n == 2000 and test_b.n == 500
    cfg = LfiFitConfig(epochs=60, patience=10, variant="horseshoe",
                       burnin=500, draws=500)
    prior_ref = np.log(model.prior.sample_matrix(
        np.random.default_rng(1234), 20_000))
    models = fit_all_parameters(train_b, cfg, seed=7)  # seeds 7 * 7919 + j
    table = eval_simulation(models, test_b)
    dists = {}
    for j, name in enumerate(train_b.param_names):
        dists[name] = marginal_calibration_distance(models[j], test_b,
                                                    prior_ref[:, j])
    coverages = [table[name]["coverage"] for name in train_b.param_names]
    in_band = sum(0.85 <= c <= 0.99 for c in coverages)
    worst_dist = max(dists.values())
    elapsed = time.time() - t0
    _report(10, worst_dist < 0.1 and in_band >= 4 and elapsed < 7200.0,
            f"max prior sup-dist {worst_dist:.3f} (<0.1); coverage in "
            f"[0.85, 0.99] for {in_band}/6 parameters "
            f"({[round(c, 2) for c in coverages]}); {elapsed:.0f}s")


# -- criterion 11: energy score -----------------------------------------------------------


def test_criterion_11_energy_score():
    rng = np.random.default_rng(111)
    samples = rng.normal(size=(50, 2))
    obs = rng.normal(size=2)
    m = samples.shape[0]
    term1 = sum(np.sqrt(((samples[i] - obs) ** 2).sum())
                for i in range(m)) / m
    term2 = sum(np.sqrt(((samples[i] - samples[j]) ** 2).sum())
                for i in range(m) for j in range(m)) / (2.0 * m * m)
    brute_err = abs(energy_score(samples, obs) - (term1 - term2))
    degenerate = energy_score(np.tile(obs, (10, 1)), obs)
    _report(11, brute_err < 1e-12 and degenerate == 0.0,
            f"brute-force dev {brute_err:.1e} (<1e-12); degenerate perfect "
            f"forecast scores {degenerate}")


# -- criterion 12: command determinism -------------------------------------------------------


def _run_twice_and_compare(task, cfg_path, tmp_path, seed, skip=()):
    from copreg.cli import main

    out_a = tmp_path / f"{task}-a"
    out_b = tmp_path / f"{task}-b"
    for out in (out_a, out_b):
        assert main([task, "--config", str(cfg_path), "--out", str(out),
                     "--seed", str(seed)]) == 0
    mismatches = []
    for root, _, files in os.walk(out_a):
        rel = os.path.relpath(root, out_a)
        for name in files:
            if name in skip:
                continue
            a = os.path.join(root, name)
            b = os.path.join(out_b, rel, name)
            if not filecmp.cmp(a, b, shallow=False):
                mismatches.append(os.path.join(rel, name))
    return mismatches


def test_criterion_12_byte_identical_outputs(tmp_path):
    rng = np.random.default_rng(0)
    n = 80
    x = rng.uniform(-1.0, 1.0, size=(n, 3))
    y = 1.2 * x[:, 0] + rng.gamma(2.0, 0.5, size=n)
    data_path = tmp_path / "toy.csv"
    np.savetxt(data_path, np.column_stack([x, y]), delimiter=",",
               header="x1,x2,x3,response", comments="", fmt="%.17g")

    fit_cfg = {"dataset": str(data_path), "network": {"width": 8},
               "train": {"epochs": 15},
               "mcmc": {"variant": "ridge", "burnin": 40, "draws": 80}}
    fit_cfg_path = tmp_path / "fit.json"
    fit_cfg_path.write_text(json.dumps(fit_cfg))
    mism = _run_twice_and_compare("fit", fit_cfg_path, tmp_path, seed=3)

    bundle = tmp_path / "fit-a"
    pred_cfg_path = tmp_path / "pred.json"
    pred_cfg_path.write_text(json.dumps(
        {"bundle": str(bundle), "dataset": str(data_path), "grid_size": 32}))
    mism += _run_twice_and_compare("predict", pred_cfg_path, tmp_path, seed=3)

    cal_cfg_path = tmp_path / "cal.json"
    cal_cfg_path.write_text(json.dumps(
        {"bundle": str(bundle), "dataset": str(data_path), "folds": 2,
         "grid_size": 64, "refit": fit_cfg}))
    mism += _run_twice_and_compare("calibrate", cal_cfg_path, tmp_path,
                                   seed=3)

    lfi_cfg_path = tmp_path / "lfi.json"
    lfi_cfg_path.write_text(json.dumps({
        "simulator": "blowfly", "series_length": 40, "n_total": 30,
        "split": 0.8, "score_reps": 40,
        "lfi_fit": {"kernel_sizes": [7, 5], "filter_counts": [3, 2],
                    "dense_width": 6, "epochs": 4, "batch_size": 24,
                    "variant": "ridge", "burnin": 20, "draws": 40}}))
    mism += _run_twice_and_compare("lfi", lfi_cfg_path, tmp_path, seed=11)
    _report(12, not mism,
            "fit/predict/calibrate/lfi outputs byte-identical across reruns"
            + (f"; mismatches: {mism}" if mism else ""))


# -- synthetic supplements for the Boston-gated criteria -------------------------------------
# These do not substitute for criteria 5 and 6; they demonstrate the same
# properties at the same tolerances on shipped synthetic data.


@pytest.mark.slow
def test_supplement_marginal_calibration_synthetic():
    x, y = synthetic_skewed_regression()
    fit = fit_copula_regression(
        x, y, variant="horseshoe", network=build_ffn(x.shape[1], seed=0),
        train_cfg=TrainConfig(epochs=200, seed=0), burnin=1000, draws=1000,
        seed=0)
    grid = margin_grid(fit.margin)
    margin_cdf = fit.margin.cdf(grid)
    dnnc_dist = float(np.max(np.abs(
        average_predictive_cdf(fit.predictive, x, grid) - margin_cdf)))
    baseline = fit_gaussian_baseline(
        x, y, network=build_ffn(x.shape[1], seed=0, output_bias=True),
        train_cfg=TrainConfig(epochs=200, seed=0), seed=0)
    base_dist = float(np.max(np.abs(baseline.average_cdf(x, grid)
                                    - margin_cdf)))
    print(f"[supplement 5s] copula {dnnc_dist:.4f}, baseline {base_dist:.4f}")
    assert dnnc_dist < 0.05
    assert base_dist > 2.0 * dnnc_dist


@pytest.mark.slow
def test_supplement_mls_ordering_synthetic():
    x, y = synthetic_skewed_regression()
    wins = 0
    for seed in range(5):
        fits, baseline = _fit_benchmark_triplet(x, y, seed)
        mls = {v: mean_log_score(predict_density_at(f.predictive, x, y))
               for v, f in fits.items()}
        mls["dnn"] = mean_log_score(baseline.density_at(x, y))
        wins += mls["horseshoe"] > mls["ridge"] > mls["dnn"]
    print(f"[supplement 6s] ordering held in {wins}/5 seeds")
    assert wins >= 4
