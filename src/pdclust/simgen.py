"""Seeded generators for the benchmark scenarios.

Study 1 (scenarios I-III, n = 100): iid draws from a three-component
trivariate normal mixture, observed either directly or through binary and
ordinal thresholdings. Study 2 (scenarios IV-VI, n = 200): one uniform draw
per interval of a fixed grid with weights proportional to the interval
masses of a five-component univariate mixture, exercising the
sampling-design machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .schema import Dataset, VariableSpec, continuous_spec, ordinal_spec

STUDY1 = ("I", "II", "III")
STUDY2 = ("IV", "V", "VI")

#: Records per study-1 dataset.
STUDY1_N = 100
#: Three-component mixture behind study 1 (equal mixing).
STUDY1_MEANS = np.array([[2.0, 2.0, 5.0], [6.0, 4.0, 2.0], [1.0, 6.0, 2.0]])
STUDY1_VARS = np.array([[1.0, 1.0, 1.0], [0.1, 2.0, 0.1], [2.0, 0.1, 0.1]])

#: Five-component univariate mixture behind study 2.
STUDY2_WEIGHTS = np.array([0.10, 0.05, 0.30, 0.25, 0.30])
STUDY2_MEANS = np.array([10.0, 17.0, 20.0, 23.0, 32.0])
STUDY2_VARS = np.array([4.0, 0.49, 1.0, 1.21, 25.0])
#: Study 2's grid: one record per interval of this width, starting at 0.
STUDY2_INTERVAL_WIDTH = 0.25
STUDY2_N_INTERVALS = 200


@dataclass(frozen=True)
class ScenarioSpec:
    """Which benchmark scenario to generate, and with what seed."""

    scenario: str
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in STUDY1 + STUDY2:
            raise ValueError(f"unknown scenario {self.scenario!r}")


@dataclass(frozen=True)
class MixtureDensity:
    """Handle on a univariate normal mixture: its components and its CDF."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def cdf(self, x):
        x = np.asarray(x, dtype=float)[..., None]
        return ndtr((x - self.means) / np.sqrt(self.variances)) @ self.weights


def scenario_variable_specs(scenario: str) -> list[VariableSpec]:
    """Observed-variable declarations for a scenario."""
    if scenario == "I":
        return [continuous_spec(f"y{i}") for i in (1, 2, 3)]
    if scenario == "II":
        return [ordinal_spec("y1", 2), ordinal_spec("y3", 2)]
    if scenario == "III":
        return [
            ordinal_spec("y1", 2),
            ordinal_spec("y2", 3),
            ordinal_spec("y3", 2),
            continuous_spec("y4"),
        ]
    if scenario in STUDY2:
        return [continuous_spec("y")]
    raise ValueError(f"unknown scenario {scenario!r}")


def scenario_sampler_settings(scenario: str, wbar: float) -> tuple[str, float]:
    """(weight mode, variance scale) a benchmark run should use."""
    if scenario in STUDY1 or scenario == "IV":
        return "ignore", 1.0
    if scenario == "V":
        return "design", wbar / 15.0
    if scenario == "VI":
        return "design", wbar / 25.0
    raise ValueError(f"unknown scenario {scenario!r}")


def study1_latents(rng) -> tuple[np.ndarray, np.ndarray]:
    """Latent mixture triples shared by scenarios I-III; returns (z, labels)."""
    comp = rng.integers(0, 3, size=STUDY1_N)
    z = STUDY1_MEANS[comp] + np.sqrt(STUDY1_VARS[comp]) * rng.standard_normal((STUDY1_N, 3))
    return z, comp


def gen_study1(spec: ScenarioSpec) -> tuple[Dataset, np.ndarray]:
    """Generate a study-1 dataset; returns (dataset, true component labels).

    Scenarios sharing a seed observe the same latent triples, only through
    different thresholdings.
    """
    if spec.scenario not in STUDY1:
        raise ValueError(f"{spec.scenario} is not a study-1 scenario")
    rng = np.random.default_rng(spec.seed)
    z, comp = study1_latents(rng)

    if spec.scenario == "I":
        values = z
    elif spec.scenario == "II":
        values = np.column_stack([(z[:, 0] > 5).astype(float),
                                  (z[:, 2] > 3).astype(float)])
    else:
        y2 = ((z[:, 1] > 4) & (z[:, 1] <= 5)).astype(float) + 2.0 * (z[:, 1] > 5)
        values = np.column_stack([
            (z[:, 0] > 5).astype(float),
            y2,
            (z[:, 2] > 3).astype(float),
            rng.standard_normal(STUDY1_N),
        ])
    return Dataset.from_values(values), comp


def gen_study2(spec: ScenarioSpec) -> tuple[Dataset, MixtureDensity]:
    """Generate the study-2 dataset; returns (dataset, density handle).

    One uniform draw per grid interval; each record's weight is the
    interval's mass under the mixture, normalized to mean 1 so only weight
    ratios matter.
    """
    if spec.scenario not in STUDY2:
        raise ValueError(f"{spec.scenario} is not a study-2 scenario")
    rng = np.random.default_rng(spec.seed)
    density = MixtureDensity(STUDY2_WEIGHTS, STUDY2_MEANS, STUDY2_VARS)

    taus = STUDY2_INTERVAL_WIDTH * np.arange(STUDY2_N_INTERVALS + 1)
    cdf = density.cdf(taus)
    masses = np.diff(cdf)
    y = rng.uniform(taus[:-1], taus[1:])
    weights = masses / masses.mean()
    return Dataset(values=y[:, None], weights=weights), density
