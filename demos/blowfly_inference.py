"""Small-scale likelihood-free inference on the blowfly simulator.

Simulates (parameter, series) pairs under the prior, fits one convolutional
copula regression per parameter with the parameter on its prior's axis (log
for these lognormal priors) as response, and reads approximate marginal
posteriors off the predictive distributions.
Desk-scale settings keep this to a few minutes; scale n_total and the
network for production runs.
"""

import numpy as np

from copreg.lfi import (
    LfiFitConfig,
    blowfly_model,
    composite_scores,
    eval_simulation,
    fit_all_parameters,
    generate_training,
    marginal_calibration_distance,
)
from copreg.predict import predictive_expectation

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

table = eval_simulation(models, test_b)
prior_ref = model.prior.sample_matrix(np.random.default_rng(99), 20_000)
print(f"{'parameter':22s} {'mse':>7s} {'se':>7s} {'cover':>6s} {'margcal':>8s}")
for j, prior in enumerate(model.prior.params):
    row = table[prior.name]
    dist = marginal_calibration_distance(models[j], test_b,
                                         prior.to_axis(prior_ref[:, j]))
    print(f"{prior.name:22s} {row['mse']:7.3f} {row['se']:7.3f} "
          f"{row['coverage']:6.2f} {dist:8.3f}")

# composite out-of-sample scores at the posterior-mean parameters for one
# held-out series, treated as the observed data
observed = test_b.series[0].astype(float)
rho_hat = np.array([prior.rounded(predictive_expectation(
    models[j], observed[None, :], func=prior.from_axis)[0])
    for j, prior in enumerate(model.prior.params)])
cls, ces = composite_scores(rho_hat, observed, model, reps=400,
                            rng=np.random.default_rng(123))
print(f"composite log score {cls:.2f}, negated energy score {ces:.2f}")
