"""Correctness checks on a workload's outputs, computed apart from the program.

Each check returns ``(name, ok, detail)``.  The tabular checks re-evaluate the
margin from ``margin.json`` with their own kernel sums; the LFI checks sample
the prior themselves and recompute the report's point estimates and interval
coverage by quadrature of ``predict_density`` on a fine grid, which shares
nothing with the Gauss-Hermite/transform-curve path the report uses.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
from scipy.special import ndtr

_SQRT_2PI = np.sqrt(2.0 * np.pi)

#: Tolerances, fixed from the method's properties rather than from any run.
KS_99 = 1.63               # 99% two-sided Kolmogorov band is KS_99 / sqrt(n)
PIT_ALLOWANCE = 0.05       # in-sample PIT of a briefly trained network
MASS_TOL = 0.01            # each exported density integrates to ~1
CDF_TRAPZ_TOL = 0.01       # cdf column vs cumulative trapezoid of density
KS_ALPHA = 1e-6            # prior-vs-simulated two-sample KS level
# The bandwidth grid steps h by ~21% (61 points over [sd/10n, 10 sd]), so
# the chosen h can sit half a step off the LSCV optimum, which costs up to
# ~1e-4 of the cost; Silverman's rule sometimes lands closer.  A bandwidth
# 1.5x off costs ~2e-3, so this relative slack still catches a bad search.
LSCV_REL_TOL = 5e-4
# Report rmse vs quadrature recomputation.  Where the margin of log(rho) is
# a staircase of narrow kernels (the integer delay, or a dozen training
# series) the report's 64-node Gauss-Hermite sum over the interpolated
# transform curve is itself off by a few per cent of the rmse.
RMSE_REL_TOL = 0.05


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _margin(bundle_dir):
    with open(os.path.join(bundle_dir, "margin.json")) as fh:
        doc = json.load(fh)
    return np.asarray(doc["sample"], dtype=float), float(doc["bandwidth"])


def kde_cdf(grid, sample, h, chunk=256):
    out = np.empty(len(grid))
    for i in range(0, len(grid), chunk):
        g = np.asarray(grid[i:i + chunk], dtype=float)
        out[i:i + chunk] = ndtr((g[:, None] - sample) / h).mean(axis=1)
    return out


def kde_pdf(points, sample, h, chunk=256):
    out = np.empty(len(points))
    for i in range(0, len(points), chunk):
        t = (np.asarray(points[i:i + chunk])[:, None] - sample) / h
        out[i:i + chunk] = np.exp(-0.5 * t * t).sum(axis=1)
    return out / (sample.size * h * _SQRT_2PI)


def lscv_cost(y, h, chunk=256):
    """Unbiased least-squares cross-validation cost of a Gaussian KDE.

    int fhat^2 - (2/n) sum_i fhat_{-i}(y_i), evaluated over all ordered pairs.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    conv = 0.0   # sum_{i,j} phi_{sqrt2 h}(y_i - y_j), diagonal included
    loo = 0.0    # sum_{i != j} phi_h(y_i - y_j)
    for i in range(0, n, chunk):
        d = y[i:i + chunk, None] - y[None, :]
        d2 = d * d
        conv += np.exp(-d2 / (4.0 * h * h)).sum()
        loo += np.exp(-d2 / (2.0 * h * h)).sum()
    loo -= n  # drop the i == j terms
    quad = conv / (n * n * 2.0 * np.sqrt(np.pi) * h)
    fit = loo / (n * (n - 1) * _SQRT_2PI * h)
    return quad - 2.0 * fit


def silverman_bandwidth(y):
    y = np.asarray(y, dtype=float)
    sd = y.std(ddof=1)
    iqr = np.subtract(*np.percentile(y, [75, 25]))
    return 0.9 * min(sd, iqr / 1.34) * y.size ** (-0.2)


def _predict_files(pred_dir, expected):
    """Exported (y, density, cdf) grids: count, mass, cdf vs cumtrapz."""
    paths = sorted(glob.glob(os.path.join(pred_dir, "pred_*.csv")))
    worst_mass, worst_cdf = 0.0, 0.0
    for path in paths:
        _, rows = _read_csv(path)
        g, dens, cdf = rows[:, 0], rows[:, 1], rows[:, 2]
        steps = 0.5 * (dens[1:] + dens[:-1]) * np.diff(g)
        cum = np.concatenate([[0.0], np.cumsum(steps)])
        worst_mass = max(worst_mass, abs(cum[-1] - 1.0))
        worst_cdf = max(worst_cdf, float(np.max(np.abs(cdf - cdf[0] - cum))))
    return [
        ("predict_files", len(paths) == expected, f"{len(paths)} files"),
        ("predict_mass", worst_mass < MASS_TOL,
         f"worst |mass - 1| = {worst_mass:.2e}"),
        ("predict_cdf_trapezoid", worst_cdf < CDF_TRAPZ_TOL,
         f"worst |cdf - cumtrapz(density)| = {worst_cdf:.2e}"),
    ]


# -- tabular ----------------------------------------------------------------------------


def tabular(wl):
    out = []
    _, train = _read_csv(wl.files["train"])
    y = train[:, -1]
    sample, h = _margin(wl.files["bundle"])

    _, marg = _read_csv(os.path.join(wl.files["cal"],
                                     "marginal_calibration.csv"))
    grid, avg_cdf = marg[:, 0], marg[:, 3]
    band = KS_99 / np.sqrt(y.size)
    sup = float(np.max(np.abs(avg_cdf - kde_cdf(grid, sample, h))))
    out.append(("marginal_calibration", sup < band,
                f"sup|avg predictive cdf - margin cdf| = {sup:.4f} "
                f"(limit {band:.4f})"))

    _, prob = _read_csv(os.path.join(wl.files["cal"],
                                     "probability_calibration.csv"))
    pit = float(np.max(np.abs(prob[:, 1] - prob[:, 0])))
    out.append(("pit_coverage", pit < PIT_ALLOWANCE + band,
                f"sup|coverage - nominal| = {pit:.4f} "
                f"(limit {PIT_ALLOWANCE + band:.4f})"))

    with open(os.path.join(wl.files["cal"], "scores.json")) as fh:
        scores = json.load(fh)
    margin_only = float(np.mean(np.log(kde_pdf(y, sample, h))))
    mls = scores["mls_in_sample"]
    out.append(("log_score_beats_margin", np.isfinite(mls)
                and mls > margin_only,
                f"model {mls:.4f} vs margin-only {margin_only:.4f}"))

    c_chosen = lscv_cost(y, h)
    c_silver = lscv_cost(y, silverman_bandwidth(y))
    out.append(("lscv_vs_silverman",
                c_chosen <= c_silver + LSCV_REL_TOL * abs(c_silver),
                f"cost(h={h:.4g}) = {c_chosen:.6g}, "
                f"cost(silverman) = {c_silver:.6g}"))

    if "pred" in wl.files:
        out += _predict_files(wl.files["pred"], wl.scale["new_rows"])

    if wl.scale.get("folds", 0) >= 2:
        # A held-out response beyond the training range gets zero density
        # from the Gaussian-tailed margin, so a fold may score -inf on some
        # seeds; only NaN or +inf is a fault here.
        folds = np.asarray(scores["fold_scores"], dtype=float)
        ok = (folds.size == wl.scale["folds"]
              and not np.any(np.isnan(folds) | (folds == np.inf)))
        out.append(("kfold_scores", bool(ok),
                    f"{folds.size} fold scores, "
                    f"{int(np.sum(folds == -np.inf))} at -inf"))
    return out


# -- likelihood-free ----------------------------------------------------------------------


def _prior_sample(prior_doc, rng, n):
    cols = []
    for p in prior_doc["params"]:
        draw = rng.normal(p["mu"], p["sigma"], size=n)
        if p["dist"] == "lognormal":
            x = np.exp(draw)
        else:
            x = 1.0 / (1.0 + np.exp(-draw))
        if p["integer"]:
            x = np.maximum(np.rint(x), 1.0)
        cols.append(x)
    return np.column_stack(cols)


def _in_support(p, col):
    ok = np.all(np.isfinite(col)) and np.all(col > 0.0)
    if p["dist"] == "logitnormal":
        ok = ok and np.all(col < 1.0)
    if p["integer"]:
        ok = ok and np.all(col == np.rint(col)) and np.all(col >= 1.0)
    return bool(ok)


def _margin_table(sample, h):
    """The margin CDF tabulated at no more than h/8 spacing, +-10 h wide."""
    lo, hi = sample[0] - 10.0 * h, sample[-1] + 10.0 * h
    num = int(min(200_001, max(4001, 8.0 * (hi - lo) / h)))
    grid = np.linspace(lo, hi, num)
    return grid, kde_cdf(grid, sample, h)


def _quadrature_summary(pm, series, truth, table):
    """Posterior mean, CDF at the truth and total mass by trapezoid quadrature.

    The nodes are the margin table plus the images, under the tabulated
    margin quantile map, of 4001 points spanning +-12 predictive sd on the
    pseudo-response scale: a predictive far narrower than a kernel is still
    resolved.
    """
    from copreg.predict import predict_density

    grid, cdf = table
    f_hat, s_hat = pm.location_scale(series)
    z = np.linspace(s_hat * f_hat - 12.0 * s_hat,
                    s_hat * f_hat + 12.0 * s_hat, 4001)
    nodes = np.union1d(grid, np.interp(ndtr(z), cdf, grid))
    dens = predict_density(pm, series, nodes)
    steps = 0.5 * (dens[1:] + dens[:-1]) * np.diff(nodes)
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    mass = cum[-1]
    mean = float(np.trapezoid(nodes * dens, nodes) / mass)
    u = float(np.interp(truth, nodes, cum) / mass)
    return mean, u, mass


def lfi(wl):
    from scipy.stats import ks_2samp

    from copreg.pipeline import CopulaRegression

    out = []
    with open(wl.files["config"]) as fh:
        cfg = json.load(fh)
    with open(cfg["prior_file"]) as fh:
        prior_doc = json.load(fh)
    names = [p["name"] for p in prior_doc["params"]]
    dim = len(names)
    _, train = _read_csv(os.path.join(wl.files["data"], "train.csv"))
    _, test = _read_csv(os.path.join(wl.files["data"], "test.csv"))
    params = np.vstack([train[:, :dim], test[:, :dim]])
    series = np.vstack([train[:, dim:], test[:, dim:]])

    support = all(_in_support(p, params[:, j])
                  for j, p in enumerate(prior_doc["params"]))
    out.append(("prior_support", support, f"{params.shape[0]} draws"))
    ref = _prior_sample(prior_doc, np.random.default_rng([wl.seed, 9091]),
                        4000)
    pvals = [ks_2samp(params[:, j], ref[:, j]).pvalue for j in range(dim)]
    out.append(("prior_ks", min(pvals) > KS_ALPHA,
                f"min KS p-value {min(pvals):.3g}"))

    counts_ok = (series.shape[1] == wl.scale["series_length"]
                 and params.shape[0] == wl.scale["n_total"]
                 and np.all(series >= 0) and np.all(series == np.rint(series)))
    out.append(("counts", bool(counts_ok),
                f"{series.shape[0]} series of length {series.shape[1]}"))

    if "pred" in wl.files:
        for name in names:
            out += [(f"{name}.{check}", ok, detail)
                    for check, ok, detail in _predict_files(
                        os.path.join(wl.files["pred"], name),
                        wl.scale["observed"])]
        return out

    with open(os.path.join(wl.files["score"], "lfi_report.json")) as fh:
        report = json.load(fh)
    test_params, test_series = test[:, :dim], test[:, dim:]
    alpha = 0.025  # eval_simulation's central 95% interval
    worst_rmse, worst_cov, worst_mass = 0.0, 0.0, 0.0
    for j, name in enumerate(names):
        bundle_dir = os.path.join(wl.files["fit"], f"param_{name}")
        pm = CopulaRegression.load(bundle_dir).predictive
        table = _margin_table(*_margin(bundle_dir))
        truth = np.log(test_params[:, j])
        est, us = [], []
        for i in range(test_series.shape[0]):
            mean, u, mass = _quadrature_summary(pm, test_series[i], truth[i],
                                                table)
            est.append(mean)
            us.append(u)
            worst_mass = max(worst_mass, abs(mass - 1.0))
        us = np.asarray(us)
        mse = float(np.mean((np.asarray(est) - truth) ** 2))
        cov = float(np.mean((us >= alpha) & (us <= 1.0 - alpha)))
        got = report["parameters"][name]
        rmse = np.sqrt(mse)
        worst_rmse = max(worst_rmse, abs(np.sqrt(got["mse"]) - rmse) / rmse)
        worst_cov = max(worst_cov, abs(got["coverage"] - cov))
    n_test = test_series.shape[0]
    out.append(("posterior_mass", worst_mass < MASS_TOL,
                f"worst |mass - 1| = {worst_mass:.2e}"))
    out.append(("report_mse", worst_rmse < RMSE_REL_TOL,
                f"worst relative rmse gap {worst_rmse:.2e}"))
    out.append(("report_coverage", worst_cov <= 1.0 / n_test + 1e-12,
                f"worst coverage gap {worst_cov:.3f} (one series = "
                f"{1.0 / n_test:.3f})"))

    comp = report["composite"]
    ces, cls = comp["neg_energy_score"], comp["log_score"]
    out.append(("composite_energy", np.isfinite(ces) and ces <= 0.0
                and np.isfinite(cls),
                f"neg energy score {ces:.4g}, log score {cls:.4g}"))
    return out


def run(wl):
    return tabular(wl) if wl.name.startswith("tabular") else lfi(wl)
