"""Bayesian nonparametric clustering of mixed-scale survey data.

Latent continuous vectors represent continuous, ordinal and nominal
observations; a Poisson-Dirichlet process mixture of Gaussians over the
latent means induces the clustering, with kernel variances scaled by the
records' sampling probabilities so complex-survey weights enter the model.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .latent import (LatentState, TransformSpec, conditional_moments, decode_ordinal,
                     fit_transforms, initial_latents, resample_latents,
                     transform_continuous)
from .pdprocess import (BaseMeasure, PDHyper, eppf_log, update_base_scales,
                        update_discount, update_strength, urn_weights)
from .covariance import (CovarianceState, compose_sigma, correlation_support,
                         scatter_matrix, update_correlation, update_variance)
from .postproc import (ClusterSummary, cluster_summary, dahl_select,
                       expand_variables, hm_measure, min_hm_select, similarity)
from .sampler import (ChainOutput, MixtureState, SamplerConfig, effective_pis, gibbs_sweep,
                      run_chain, update_mu_i, update_unique_mus, urn_sweep_terms)
from .schema import (ChainInvariantError, Dataset, PriorConstants, Schema, SchemaError,
                     ValidationReport, VariableSpec, build_schema, continuous_spec,
                     default_cutoffs, nominal_spec, ordinal_spec, validate_dataset)
from .simgen import (MixtureDensity, ScenarioSpec, gen_study1, gen_study2,
                     scenario_sampler_settings, scenario_variable_specs,
                     study1_latents)

# the submodules are attributes of the package too, but not part of its API
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
