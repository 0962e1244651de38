"""Bayesian nonparametric clustering of mixed-scale survey data.

Latent continuous vectors represent continuous, ordinal and nominal
observations; a Poisson-Dirichlet process mixture of Gaussians over the
latent means induces the clustering, with kernel variances scaled by the
records' sampling probabilities so complex-survey weights enter the model.

The package exports what the README's quick start, the CLI's library
choices and the scenario generators use. Kernel-level names are reached
as ``pdclust.<module>.<name>`` and carry no stability promise.
"""

__version__ = "0.1.0"

from .postproc import (cluster_summary, dahl_select, expand_variables, hm_measure,
                       min_hm_select, similarity)
from .sampler import SamplerConfig, run_chain
from .schema import (Dataset, PriorConstants, TransformSpec, build_schema, continuous_spec,
                     nominal_spec, ordinal_spec, validate_dataset)
from .simgen import (ScenarioSpec, gen_study1, gen_study2, scenario_sampler_settings,
                     scenario_variable_specs)

__all__ = [
    # the README's quick start
    "Dataset", "PriorConstants", "SamplerConfig", "TransformSpec", "build_schema",
    "continuous_spec", "ordinal_spec", "nominal_spec", "run_chain", "similarity",
    "dahl_select", "cluster_summary", "hm_measure", "expand_variables",
    # the scenario generators of the benchmark and the acceptance suite
    "ScenarioSpec", "gen_study1", "gen_study2", "scenario_sampler_settings",
    "scenario_variable_specs",
    # the library form of ``--selection min-hm`` and ``pdclust validate``
    "min_hm_select", "validate_dataset",
]
