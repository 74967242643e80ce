from .pipeline import (
    LfiFitConfig,
    SimBatch,
    SimModel,
    blowfly_model,
    eval_simulation,
    fit_all_parameters,
    generate_training,
    lfi_fit,
    lfi_report,
    marginal_calibration_distance,
    voles_model,
)
from .priors import ParamPrior, PriorSpec, default_blowfly_prior, default_voles_prior
from .scoring import bivariate_kde_logpdf, composite_scores, energy_score
from .simulators import (
    BlowflyParams,
    VolesParams,
    blowfly_step,
    integrate_voles,
    simulate_blowfly,
    simulate_blowfly_batch,
    simulate_blowfly_skeleton,
    simulate_voles,
    voles_drift,
)

__all__ = [
    "LfiFitConfig", "SimBatch", "SimModel", "blowfly_model", "voles_model",
    "eval_simulation", "fit_all_parameters", "generate_training", "lfi_fit",
    "lfi_report", "marginal_calibration_distance",
    "ParamPrior", "PriorSpec", "default_blowfly_prior", "default_voles_prior",
    "bivariate_kde_logpdf", "composite_scores", "energy_score",
    "BlowflyParams", "VolesParams", "blowfly_step", "integrate_voles",
    "simulate_blowfly", "simulate_blowfly_batch", "simulate_blowfly_skeleton",
    "simulate_voles", "voles_drift",
]
