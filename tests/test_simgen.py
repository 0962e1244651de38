import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from pdclust import (ScenarioSpec, build_schema, gen_study1, gen_study2,
                     scenario_sampler_settings, scenario_variable_specs, validate_dataset)
from pdclust.simgen import STUDY2_MEANS, STUDY2_VARS, STUDY2_WEIGHTS, study1_latents


def study2_pdf(x):
    """Density of the study-2 normal mixture, written out from its constants."""
    return sum(w * np.exp(-0.5 * (x - m) ** 2 / v) / np.sqrt(2 * np.pi * v)
               for w, m, v in zip(STUDY2_WEIGHTS, STUDY2_MEANS, STUDY2_VARS))


class TestScenarioSpec:
    def test_defaults(self):
        assert gen_study1(ScenarioSpec("I"))[0].n == 100
        assert gen_study2(ScenarioSpec("V"))[0].n == 200

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            ScenarioSpec("VII")


class TestStudy1:
    def test_deterministic_given_spec(self):
        a, la = gen_study1(ScenarioSpec("III", seed=42))
        b, lb = gen_study1(ScenarioSpec("III", seed=42))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(la, lb)

    def test_scenario_ii_has_two_binary_columns(self):
        ds, _ = gen_study1(ScenarioSpec("II", seed=0))
        assert ds.p == 2
        assert set(np.unique(ds.values)) <= {0.0, 1.0}
        specs = scenario_variable_specs("II")
        assert all(v.kind == "ordinal" and len(v.levels) == 2 for v in specs)

    def test_scenarios_share_latent_triples(self):
        spec1, spec2 = ScenarioSpec("I", seed=7), ScenarioSpec("II", seed=7)
        ds1, _ = gen_study1(spec1)
        ds2, _ = gen_study1(spec2)
        assert np.array_equal(ds2.values[:, 0], (ds1.values[:, 0] > 5).astype(float))
        assert np.array_equal(ds2.values[:, 1], (ds1.values[:, 2] > 3).astype(float))

    def test_discretization_matches_stored_latents(self):
        spec = ScenarioSpec("III", seed=5)
        z, comp = study1_latents(np.random.default_rng(5))
        ds, labels = gen_study1(spec)
        assert np.array_equal(labels, comp)
        assert np.array_equal(ds.values[:, 0], (z[:, 0] > 5).astype(float))
        y2 = ((z[:, 1] > 4) & (z[:, 1] <= 5)) + 2.0 * (z[:, 1] > 5)
        assert np.array_equal(ds.values[:, 1], y2)
        assert np.array_equal(ds.values[:, 2], (z[:, 2] > 3).astype(float))

    def test_group_sizes_roughly_balanced(self):
        _, labels = gen_study1(ScenarioSpec("I", seed=3))
        counts = np.bincount(labels, minlength=3)
        assert counts.min() > 15  # equal mixing over 100 draws

    def test_noise_column_uncorrelated_with_labels(self):
        ds, labels = gen_study1(ScenarioSpec("III", seed=1))
        y4 = ds.values[:, 3]
        for g in range(3):
            onehot = (labels == g).astype(float)
            corr = np.corrcoef(y4, onehot)[0, 1]
            assert abs(corr) < 0.3

    def test_datasets_validate_against_their_schemas(self):
        for scenario in ("I", "II", "III"):
            ds, _ = gen_study1(ScenarioSpec(scenario, seed=2))
            schema = build_schema(scenario_variable_specs(scenario))
            assert validate_dataset(ds, schema).ok


class TestStudy2:
    def test_mixture_coefficients_sum_to_one(self):
        assert STUDY2_WEIGHTS.sum() == 1.0

    def test_grid_covers_zero_to_fifty(self):
        ds, _ = gen_study2(ScenarioSpec("IV", seed=0))
        assert ds.n == 200
        assert np.all((ds.values[:, 0] > 0) & (ds.values[:, 0] <= 50))
        taus = 0.25 * np.arange(201)
        assert taus[-1] == 50.0
        assert np.all((ds.values[:, 0] > taus[:-1]) & (ds.values[:, 0] <= taus[1:]))

    def test_weights_are_interval_masses_normalized(self):
        ds, density = gen_study2(ScenarioSpec("V", seed=1))
        taus = 0.25 * np.arange(201)
        masses = np.diff(density.cdf(taus))
        assert np.all(masses > 0)
        assert np.allclose(ds.weights, masses / masses.mean())
        assert np.isclose(ds.wbar, 1.0)

    def test_interval_masses_match_quadrature(self):
        _, density = gen_study2(ScenarioSpec("IV", seed=0))
        taus = 0.25 * np.arange(201)
        total_cdf = density.cdf(50.0) - density.cdf(0.0)
        total_quad = quad(study2_pdf, 0.0, 50.0, limit=400)[0]
        assert abs(np.diff(density.cdf(taus)).sum() - total_cdf) < 1e-12
        assert abs(total_cdf - total_quad) < 1e-8
        # spot-check a few individual intervals against quadrature
        for i in (30, 79, 120):
            mass_cdf = density.cdf(taus[i + 1]) - density.cdf(taus[i])
            mass_quad = quad(study2_pdf, taus[i], taus[i + 1])[0]
            assert abs(mass_cdf - mass_quad) < 1e-10

    def test_density_mode_near_twenty(self):
        _, density = gen_study2(ScenarioSpec("IV", seed=0))
        taus = 0.25 * np.arange(201)
        masses = np.diff(density.cdf(taus))
        window = (taus[:-1] >= 18) & (taus[:-1] <= 22)
        i_star = np.argmax(masses)
        assert 19.0 <= taus[i_star] <= 21.0
        assert masses[i_star] == masses[window].max()

    def test_density_handle_components(self):
        _, density = gen_study2(ScenarioSpec("VI", seed=0))
        assert np.array_equal(density.means, STUDY2_MEANS)
        assert np.array_equal(density.variances, STUDY2_VARS)
        x = np.linspace(0, 50, 7)
        manual = sum(
            w * stats.norm.cdf(x, loc=m, scale=np.sqrt(v))
            for w, m, v in zip(STUDY2_WEIGHTS, STUDY2_MEANS, STUDY2_VARS)
        )
        assert np.allclose(density.cdf(x), manual)


class TestSamplerSettings:
    def test_study1_ignores_design(self):
        assert scenario_sampler_settings("I", 123.0) == ("ignore", 1.0)
        assert scenario_sampler_settings("IV", 123.0) == ("ignore", 1.0)

    def test_weighted_scenarios_scale_with_wbar(self):
        assert scenario_sampler_settings("V", 1.0) == ("design", 1.0 / 15.0)
        assert scenario_sampler_settings("VI", 30.0) == ("design", 30.0 / 25.0)
