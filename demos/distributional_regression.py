"""Marginally calibrated distributional regression on skewed synthetic data.

Fits the copula regression (horseshoe prior) and the plain Gaussian-forecast
network to the same data, then compares the two calibration diagnostics.
The average copula predictive reproduces the response margin by
construction; the homoscedastic baseline cannot.
"""

import numpy as np

from copreg.calibration import (
    P_GRID,
    calibration_report,
    mean_log_score,
    probability_calibration,
)
from copreg.nnet import TrainConfig, build_ffn
from copreg.pipeline import FitConfig, fit_gaussian_baseline
from copreg.predict import predict_quantile

rng = np.random.default_rng(1)
n, p = 500, 8
x = rng.uniform(0.0, 1.0, size=(n, p))
location = x[:, 0] + 0.6 * np.sin(3.0 * x[:, 1])
y = location + np.exp(rng.normal(0.0, 0.9, size=n))  # sharp left edge

print("fitting copula regression (horseshoe) ...")
spec = FitConfig(train={"epochs": 200},
                 mcmc={"variant": "horseshoe", "burnin": 1000, "draws": 1000})
fit = spec.fit(x, y, seed=2)
pm = fit.predictive
print(f"  MCMC acceptance {fit.draws.diagnostics['acceptance']:.2f}, "
      f"scale ESS {fit.draws.diagnostics['ess_scale']:.0f}")

print("fitting plain network baseline ...")
baseline = fit_gaussian_baseline(x, y,
                                 network=build_ffn(p, seed=2,
                                                   output_bias=True),
                                 train_cfg=TrainConfig(epochs=200, seed=2))

# the copula's diagnostics are those of `copreg calibrate`; the baseline is
# judged on the same margin grid
report = calibration_report(pm, x, y)

# marginal calibration: sup distance between average predictive CDF and margin
d_dnn = np.max(np.abs(baseline.average_cdf(x, report.marginal_grid)
                      - report.margin_cdf))
print(f"marginal calibration sup-distance: copula "
      f"{report.marginal_distance:.4f}, baseline {d_dnn:.4f}")

# probability calibration: empirical coverage of the truth
dev_dnn = np.max(np.abs(
    probability_calibration(baseline.cdf_at(x, y), P_GRID) - P_GRID))
print(f"probability calibration max deviation: copula "
      f"{report.probability_distance:.4f}, baseline {dev_dnn:.4f}")

# in-sample mean log scores
print(f"in-sample mean log score: copula {report.mls_in_sample:.3f}, "
      f"baseline {mean_log_score(baseline.density_at(x, y)):.3f}")

# predictive intervals widen and sharpen with the features
for row in (x[0], x[1]):
    lo = predict_quantile(pm, row, 0.05)
    hi = predict_quantile(pm, row, 0.95)
    print(f"90% interval at one feature row: [{lo:.2f}, {hi:.2f}]")
