"""Small-scale likelihood-free inference on the blowfly simulator.

Simulates (parameter, series) pairs under the prior, fits one convolutional
copula regression per parameter with the parameter on its prior's axis (log
for these lognormal priors) as response, and reads approximate marginal
posteriors off the predictive distributions.  The report is the one
``copreg lfi-score`` writes, from the same seeds.
Desk-scale settings keep this to a few minutes; scale n_total and the
network for production runs.
"""

from copreg.lfi import (
    LfiFitConfig,
    blowfly_model,
    fit_all_parameters,
    generate_training,
    lfi_report,
)

SEED = 5
model = blowfly_model(series_length=150)
print(f"simulator: {model.name}, T={model.series_length}, "
      f"parameters: {model.prior.names}")

train_b, test_b = generate_training(model, 700, split=0.8, seed=SEED)
print(f"simulated {train_b.n} training and {test_b.n} test series")

cfg = LfiFitConfig(kernel_sizes=(15, 7), filter_counts=(12, 5),
                   dense_width=40, epochs=30, variant="horseshoe",
                   burnin=300, draws=300)
models = fit_all_parameters(train_b, config=cfg, seed=SEED)
print(f"fitted {len(models)} regressors, one per parameter")

# composite out-of-sample scores at the posterior-mean parameters for one
# held-out series, treated as the observed data
observed = test_b.series[0].astype(float)
report = lfi_report(models, test_b, observed, model, SEED, reps=400)
print(f"{'parameter':22s} {'mse':>7s} {'se':>7s} {'cover':>6s} {'margcal':>8s}")
for name, row in report["parameters"].items():
    dist = report["marginal_calibration"][name]
    print(f"{name:22s} {row['mse']:7.3f} {row['se']:7.3f} "
          f"{row['coverage']:6.2f} {dist:8.3f}")

composite = report["composite"]
print(f"composite log score {composite['log_score']:.2f}, "
      f"negated energy score {composite['neg_energy_score']:.2f}")
