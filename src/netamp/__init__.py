"""Bayes-optimal estimation for linear regression with network side information.

The package covers the full loop: a generative model coupling regression
data and a community graph through shared latents (`synth`), posterior-mean
scalar denoisers and channel functionals (`priors`), the message-passing
estimator (`amp`) with its deterministic state evolution
(`state_evolution`), the variational characterization of the limiting
mutual information (`rs_potential`), FDR-controlled variable discovery and
credible sets (`inference`), a Laplacian-penalized baseline (`laplacian`)
and a reproducible experiment harness (`experiments`, `cli`).
"""

__version__ = "0.1.0"

from .priors import (PriorSpec, QuadratureRule, ScalarChannelParams,
                     denoise_beta, denoise_sigma, denoiser_partials,
                     joint_atoms, mmse1, mmse2, scalar_mi, spike_slab)
from .synth import (Dataset, ModelParams, ap_to_snr, centered_adjacency_apply,
                    gaussian_surrogate, generate, load_dataset, save_dataset,
                    snr_to_ap, with_delta)
from .state_evolution import SeFixedPoint, SeTrace, fixed_point, predicted_errors, se_run
from .amp import AmpConfig, AmpResult, run
from .rs_potential import RsEvaluation, minimize, rs_value
from .inference import (CredibleIntervals, DiscoveryResult, credible_intervals,
                        discover, mse_beta, mse_sigma, pvalues)
from .laplacian import LapConfig, LapFit, LapTune, fit, graph_laplacian, tune

__all__ = [
    "PriorSpec", "QuadratureRule", "ScalarChannelParams", "denoise_beta",
    "denoise_sigma", "denoiser_partials", "joint_atoms", "mmse1", "mmse2",
    "scalar_mi", "spike_slab",
    "Dataset", "ModelParams", "ap_to_snr", "centered_adjacency_apply",
    "gaussian_surrogate", "generate", "load_dataset", "save_dataset", "snr_to_ap",
    "with_delta",
    "SeFixedPoint", "SeTrace", "fixed_point", "predicted_errors", "se_run",
    "AmpConfig", "AmpResult", "run",
    "RsEvaluation", "minimize", "rs_value",
    "CredibleIntervals", "DiscoveryResult", "credible_intervals", "discover",
    "mse_beta", "mse_sigma", "pvalues",
    "LapConfig", "LapFit", "LapTune", "fit", "graph_laplacian", "tune",
]
