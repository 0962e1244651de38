import ast
import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import pdclust
from pdclust import (Dataset, PriorConstants, SamplerConfig, build_schema, continuous_spec,
                     gen_study1, gen_study2, nominal_spec, ordinal_spec, run_chain,
                     scenario_sampler_settings, scenario_variable_specs)
from pdclust.covariance import (CORR_WINDOW_FRAC, CovarianceState, chol_logdet,
                                correlation_support, scatter_matrix, update_correlation,
                                update_variance)
from pdclust.geweke import _ancestral_draw, geweke_joint_test
from pdclust.latent import LatentState, initial_latents, resample_latents
from pdclust.pdprocess import (BaseMeasure, PDHyper, update_base_scales, update_discount,
                               update_strength)
from pdclust.sampler import (MixtureState, UrnTables, _location_posterior, URN_BLOCK,
                             effective_pis, gibbs_sweep, init_states, update_mu_i,
                             update_unique_mus, urn_sweep_terms)
from pdclust.schema import ChainInvariantError
from pdclust.simgen import STUDY1, ScenarioSpec

PRIOR_C = PriorConstants(var_prior_shape=2.1, var_prior_scale=30.0,
                         base_prior_shape=2.1, base_prior_scale=30.0)
PRIOR_2_2 = PriorConstants(var_prior_shape=2.0, var_prior_scale=2.0,
                           base_prior_shape=2.0, base_prior_scale=2.0)


def tiny_states(n=6, q=1, seed=0, z=None):
    rng = np.random.default_rng(seed)
    if z is None:
        z = rng.standard_normal((n, q))
    schema = build_schema([continuous_spec(f"y{j}") for j in range(q)])
    ds = Dataset.from_values(z.copy())
    latents = LatentState(z=z.copy(), dataset=ds, schema=schema)
    n = z.shape[0]
    mixture = MixtureState(np.arange(n), z.copy(), np.ones(n, dtype=np.int64))
    cov = CovarianceState(np.ones(schema.q), np.eye(schema.q), schema.free_mask(),
                          priors=PRIOR_2_2)
    base = BaseMeasure(np.ones(q), priors=PRIOR_2_2)
    hyper = PDHyper(0.0, 1.0)
    return latents, mixture, cov, base, hyper, rng


def urn_update(i, latents, mixture, cov, base, hyper, pis, var_scale, rng):
    """One step-(a) reassignment of record ``i``, from tables built as gibbs_sweep builds them."""
    tables = UrnTables(latents.z, pis, var_scale, cov, base.base_var, hyper, mixture.mus)
    update_mu_i(i, mixture, rng, tables)


class TestMembershipUpdate:
    @pytest.mark.parametrize("pi, var_scale", [(1.0, 1.0), (0.4, 1.7)])
    def test_new_cluster_probability_closed_form(self, pi, var_scale):
        # q=1, unit kernel and base variance, z=0, one other record at the
        # same location, c = var_scale * pi:
        # P(open new) = N(0|0,c+1)/(N(0|0,c+1)+N(0|0,c)) = 1/(1+sqrt((c+1)/c)),
        # which is sqrt(2)-1 at c=1
        z = np.array([[0.0], [0.0]])
        opened = 0
        trials = 40_000
        latents, mixture, cov, base, hyper, rng = tiny_states(z=z)
        base.base_var[:] = 1.0
        pis = np.full(2, pi)
        for _ in range(trials):
            mixture.labels = np.array([0, 0])
            mixture.mus = np.zeros((1, 1))
            mixture.counts = np.array([2])
            urn_update(0, latents, mixture, cov, base, hyper, pis, var_scale, rng)
            opened += mixture.r == 2
        p0 = opened / trials
        c = var_scale * pi
        expected = 1.0 / (1.0 + np.sqrt((c + 1.0) / c))
        assert abs(p0 - expected) < 3 * np.sqrt(expected * (1 - expected) / trials)

    def test_single_record_always_opens_cluster(self):
        latents, mixture, cov, base, hyper, rng = tiny_states(n=1)
        # strength < 0 is legal with positive discount; the empty-urn path
        # must not evaluate log(strength)
        hyper.discount, hyper.strength = 0.5, -0.25
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(20):
                urn_update(0, latents, mixture, cov, base, hyper, np.ones(1), 1.0, rng)
                assert mixture.r == 1 and mixture.counts.sum() == 1

    def test_count_conservation_over_many_updates(self):
        latents, mixture, cov, base, hyper, rng = tiny_states(n=25, q=2, seed=3)
        for sweep in range(30):
            for i in range(25):
                urn_update(i, latents, mixture, cov, base, hyper, np.ones(25), 1.0, rng)
                mixture.check(25)

    def test_non_finite_weights_raise_naming_the_record(self):
        latents, mixture, cov, base, hyper, rng = tiny_states(n=5, q=2, seed=4)
        # the cluster locations stay finite, so records 0 and 1 update normally
        latents.z[2] = np.nan
        with pytest.raises(FloatingPointError, match="record 2"):
            gibbs_sweep(latents, mixture, cov, base, hyper, 1.0, np.ones(5), rng)


def test_urn_sweep_terms_match_scipy_densities():
    rng = np.random.default_rng(12)
    n, q, var_scale = 7, 3, 1.3
    corr = np.array([[1.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 1.0]])
    cov = CovarianceState(sdevs=[0.7, 1.5, 1.1], corr=corr, free=[True] * 3)
    base_var = np.array([2.0, 0.5, 3.5])
    pis = rng.uniform(0.2, 1.0, n)
    assert len(np.unique(pis)) == n
    z = 2.0 * rng.standard_normal((n, q))
    log_new, log_const = urn_sweep_terms(z, pis, var_scale, cov, base_var)
    for i in range(n):
        c = var_scale * pis[i]
        expected_new = stats.multivariate_normal.logpdf(
            z[i], np.zeros(q), c * cov.sigma + np.diag(base_var))
        assert abs(log_new[i] - expected_new) < 1e-10
        # log_const is the kernel density at the cluster location itself
        expected_const = stats.multivariate_normal.logpdf(z[i], z[i], c * cov.sigma)
        assert abs(log_const[i] - expected_const) < 1e-10


class TestLocationPosterior:
    def test_singleton_matches_new_cluster_draw(self):
        # a birth's location is step (b)'s draw for a cluster of that one record
        latents, mixture, cov, base, hyper, _ = tiny_states(n=1, q=3, seed=5)
        rng = np.random.default_rng(5)
        corr = np.array([[1.0, 0.4, -0.2], [0.4, 1.0, 0.3], [-0.2, 0.3, 1.0]])
        cov = CovarianceState(rng.uniform(0.5, 2.0, 3), corr, cov.free, priors=PRIOR_C)
        base.base_var = rng.uniform(0.5, 3.0, 3)
        pis, var_scale = np.array([0.7]), 1.4
        tables = UrnTables(latents.z, pis, var_scale, cov, base.base_var, hyper, mixture.mus)
        tables.detach(0, mixture)
        tables.birth(0, mixture, np.random.default_rng(9))
        step_b = MixtureState(np.zeros(1, dtype=np.int64), np.zeros((1, 3)),
                              np.ones(1, dtype=np.int64))
        update_unique_mus(latents, step_b, cov, base, var_scale, pis, np.random.default_rng(9))
        assert np.array_equal(mixture.mus, step_b.mus)

    def test_flat_base_limit_gives_weighted_mean(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((8, 2)) + 5.0
        pis = rng.uniform(0.3, 1.0, 8)
        sigma_inv = np.linalg.inv(np.array([[1.0, 0.3], [0.3, 1.0]]))
        w = 1.0 / pis
        zsum = (z * w[:, None]).sum(axis=0)
        nu, _ = _location_posterior(sigma_inv, np.full(2, 1e8), w.sum(), zsum)
        assert np.allclose(nu, zsum / w.sum(), atol=1e-4)

    def test_equal_weights_identity_kernel(self):
        # V = (m I + diag(1/base_var))^{-1} for m members, unit everything
        nu, v = _location_posterior(np.eye(2), np.array([2.0, 4.0]), 5.0,
                                    np.zeros(2))
        assert np.allclose(v, np.diag([1 / 5.5, 1 / 5.25]))


#: SHA-256 of the kept partitions and the five traces, hashed in the order
#: of ``bench/harness.fingerprint``, of a 40-sweep chain per scenario: data
#: seed 1, chain seed 7, burn-in 10, preset C. Each chain reaches two or more
#: clusters, so births and deaths are exercised. Any change to the sampler's
#: arithmetic or to the order of its draws changes them; a change that means
#: to alter the trajectory says so and records new hashes. Recorded with
#: numpy 2.4 and OpenBLAS on x86-64, where another BLAS may round otherwise.
SHORT_CHAIN_HASHES = {
    "I": "fe68a43f8da7a6adc29c85402ad41f697b5c759bdf8019f9518275de6efc5cc8",
    "II": "4c6bffe7a90d6e2e56ebc37ee7bf45949831b3e2287ab97829cf616a987b91f4",
    "III": "f94de68d84dacdeefee699e39cd13f8a277399c24d16d049895247ba1cfbbed8",
    "IV": "667af998f1754e4508382b9a17fff2db094b9a27347a1382290ef33d0f0d0df2",
    "V": "e9e5ff36e5963439183373823b6208a397185a74f853b452a2016168d3dae3b9",
    "VI": "7c62d3cbdf0c3cd025879103f95a4176e688687d25cdaa5cd0c0d0892669692c",
}


@pytest.mark.parametrize("scenario", SHORT_CHAIN_HASHES)
def test_short_chains_stay_bit_identical(scenario):
    dataset, _ = (gen_study1 if scenario in STUDY1 else gen_study2)(ScenarioSpec(scenario, seed=1))
    weight_mode, var_scale = scenario_sampler_settings(scenario, dataset.wbar)
    out = run_chain(dataset, build_schema(scenario_variable_specs(scenario)),
                    SamplerConfig(iterations=40, burnin=10, seed=7, weight_mode=weight_mode,
                                  var_scale=var_scale, priors=PRIOR_C))
    digest = hashlib.sha256()
    for array in (out.partitions, out.trace_discount, out.trace_strength, out.trace_r,
                  out.trace_var, out.trace_base_var):
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == SHORT_CHAIN_HASHES[scenario]


class TestSweepAndChain:
    def test_sweep_determinism(self):
        s1 = tiny_states(n=12, q=2, seed=9)
        s2 = tiny_states(n=12, q=2, seed=9)
        for states in (s1, s2):
            latents, mixture, cov, base, hyper, rng = states
            for _ in range(5):
                gibbs_sweep(latents, mixture, cov, base, hyper, 1.0,
                            np.ones(12), rng)
        assert np.array_equal(s1[0].z, s2[0].z)
        assert np.array_equal(s1[1].labels, s2[1].labels)
        assert np.array_equal(s1[2].corr, s2[2].corr)
        assert s1[4].discount == s2[4].discount

    def test_sweep_keeps_continuous_latents(self):
        latents, mixture, cov, base, hyper, rng = tiny_states(n=15, q=3, seed=2)
        before = latents.z.copy()
        gibbs_sweep(latents, mixture, cov, base, hyper, 1.0, np.ones(15), rng)
        assert np.array_equal(latents.z, before)

    def test_kept_count_formula(self):
        assert SamplerConfig(iterations=4700, burnin=200, thinning=3).kept == 1500
        assert SamplerConfig(iterations=8, burnin=7, thinning=1).kept == 1

    def test_single_stored_partition(self):
        ds, _ = gen_study1(ScenarioSpec("I", seed=0))
        schema = build_schema(scenario_variable_specs("I"))
        out = run_chain(ds, schema, SamplerConfig(iterations=8, burnin=7, thinning=1,
                                                  weight_mode="ignore", priors=PRIOR_C))
        assert out.partitions.shape[0] == 1

    def test_chain_determinism_bit_identical(self):
        ds, _ = gen_study1(ScenarioSpec("III", seed=4))
        schema = build_schema(scenario_variable_specs("III"))
        cfg = SamplerConfig(iterations=25, burnin=5, thinning=2, seed=77,
                            weight_mode="ignore", priors=PRIOR_C)
        a, b = run_chain(ds, schema, cfg), run_chain(ds, schema, cfg)
        assert np.array_equal(a.partitions, b.partitions)
        assert np.array_equal(a.trace_discount, b.trace_discount)
        assert np.array_equal(a.trace_var, b.trace_var)
        assert np.array_equal(a.trace_base_var, b.trace_base_var)

    def test_cluster_count_settles_quickly(self):
        # the chain should be near its final cluster count within ~30 sweeps
        ds, _ = gen_study1(ScenarioSpec("I", seed=1))
        schema = build_schema(scenario_variable_specs("I"))
        latents = initial_latents(ds, schema)
        cfg = SamplerConfig(iterations=40, burnin=1, weight_mode="ignore",
                            priors=PRIOR_C)
        mixture, cov, base, hyper = init_states(latents, schema, cfg)
        rng = np.random.default_rng(0)
        for _ in range(30):
            gibbs_sweep(latents, mixture, cov, base, hyper, 1.0, np.ones(ds.n), rng)
        assert mixture.r <= 12

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SamplerConfig(iterations=10, burnin=10)
        with pytest.raises(ValueError):
            SamplerConfig(iterations=10, burnin=1, thinning=0)
        with pytest.raises(ValueError):
            SamplerConfig(iterations=10, burnin=1, var_scale=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(iterations=10, burnin=1, weight_mode="sometimes")
        with pytest.raises(ValueError, match="iterations.*burnin.*thinning"):
            SamplerConfig(iterations=3, burnin=1, thinning=3)

    def test_effective_pis_modes(self):
        ds = Dataset(values=[[0.0], [0.0]], weights=[2.0, 4.0])
        assert np.array_equal(effective_pis(ds, "ignore"), [1.0, 1.0])
        assert np.allclose(effective_pis(ds, "design"), [0.5, 0.25])


class TestStateBuilder:
    def test_every_config_constant_reaches_the_states(self):
        cfg = SamplerConfig(iterations=2, burnin=1, priors=PRIOR_C)
        schema = build_schema([continuous_spec("y1"), ordinal_spec("y2", 2)])
        ds = Dataset.from_values([[0.5, 0.0], [1.5, 1.0], [-0.2, 1.0]])
        built = init_states(initial_latents(ds, schema), schema, cfg)
        drawn = _ancestral_draw(schema, cfg, np.ones(3), np.random.default_rng(0))[:4]
        for _, cov, base, hyper in (built, drawn):
            assert cov.priors is cfg.priors and base.priors is cfg.priors
            assert hyper.priors is cfg.priors

        constants = {f.name for f in dataclasses.fields(PriorConstants)}
        for cls in (CovarianceState, PDHyper, BaseMeasure):
            assert not constants & {f.name for f in dataclasses.fields(cls)}, cls.__name__


def _mixture_counts_off():
    MixtureState(np.array([0, 0, 1]), np.zeros((2, 1)), np.array([2, 2])).check(3)


def _covariance_not_symmetric():
    cov = CovarianceState(np.ones(2), np.eye(2), [True, True], priors=PRIOR_2_2)
    cov.corr[0, 1] = 0.3
    cov.check()


def _nominal_decode_drifted():
    schema = build_schema([nominal_spec("y", 3)])
    latents = initial_latents(Dataset.from_values([[0.0], [2.0]]), schema)
    latents.z[0] = -1.0
    latents.check_consistent()


@pytest.mark.parametrize("corrupt, message", [
    (_mixture_counts_off, "cluster counts do not sum to n"),
    (_covariance_not_symmetric, "corr not symmetric"),
    (_nominal_decode_drifted, "nominal decode mismatch for y"),
], ids=["mixture", "covariance", "latent"])
def test_state_checks_raise_chain_invariant_error(corrupt, message):
    with pytest.raises(ChainInvariantError, match=message):
        corrupt()


def test_state_checks_survive_optimised_python():
    # python -O strips assert statements; the checks must raise all the same
    code = ("import numpy as np\n"
            "from pdclust.sampler import MixtureState\n"
            "try:\n"
            "    MixtureState(np.array([0, 0]), np.zeros((1, 1)), np.array([3])).check(2)\n"
            "except AssertionError as err:\n"
            "    print(type(err).__name__, err)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(pdclust.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    assert out.stdout.strip() == "ChainInvariantError cluster counts do not sum to n"


def test_no_assert_statement_guards_the_package():
    # python -O strips assert statements, so none may stand in for a runtime check
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(pdclust.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in pdclust: " + ", ".join(found)


def test_no_module_is_exported():
    # ``from pdclust import *`` would rebind a caller's ``schema`` to pdclust.schema
    modules = [name for name in pdclust.__all__
               if isinstance(getattr(pdclust, name), types.ModuleType)]
    assert not modules, "modules in pdclust.__all__: " + ", ".join(modules)


def test_exports_are_what_the_readme_cli_and_benchmark_call():
    assert sorted(pdclust.__all__) == sorted([
        "Dataset", "PriorConstants", "SamplerConfig", "TransformSpec", "build_schema",
        "continuous_spec", "ordinal_spec", "nominal_spec", "run_chain", "similarity",
        "dahl_select", "cluster_summary", "hm_measure", "expand_variables",
        "ScenarioSpec", "gen_study1", "gen_study2", "scenario_sampler_settings",
        "scenario_variable_specs", "min_hm_select", "validate_dataset"])
    workloads = Path(__file__).parents[1] / "bench" / "workloads.py"
    called = set(re.findall(r"\bpc\.(\w+)", workloads.read_text()))
    assert called and called <= set(pdclust.__all__), sorted(called - set(pdclust.__all__))
    for kernel in ("update_mu_i", "gibbs_sweep", "MixtureDensity"):
        assert not hasattr(pdclust, kernel), kernel


def test_package_imports_exactly_its_exports():
    # no dir() scan: __all__ is a literal list, so it and the imports cannot drift apart
    tree = ast.parse(Path(pdclust.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    (exports,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"]
    assert len(exports) == len(set(exports))
    assert imported == set(exports)


def _names_read(tree):
    """Names a module reads, including those inside string annotations."""
    annotations = [ann for node in ast.walk(tree)
                   for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
                   if ann is not None]
    trees = [tree] + [ast.parse(node.value, mode="eval") for ann in annotations
                      for node in ast.walk(ann)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def test_every_imported_name_is_read():
    found = []
    for path in sorted(Path(pdclust.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} {bound}" for alias in node.names
                          if (bound := (alias.asname or alias.name).split(".")[0]) not in read]
    assert not found, "imported names never read: " + ", ".join(found)


class TestGewekeHarness:
    def test_smoke_run_passes(self):
        schema = build_schema([continuous_spec("y1"), ordinal_spec("y2", 2)])
        cfg = SamplerConfig(iterations=2, burnin=1, weight_mode="design", priors=PRIOR_2_2)
        report = geweke_joint_test(schema, cfg, draws=3000, seed=7)
        assert len(report.names) == 12
        assert report.max_abs_z < 4.0  # loose smoke bound; full run in acceptance

    def test_rejects_large_models(self):
        schema = build_schema([continuous_spec(f"y{i}") for i in range(3)])
        cfg = SamplerConfig(iterations=2, burnin=1)
        with pytest.raises(ValueError):
            geweke_joint_test(schema, cfg, draws=10)


def test_update_unique_mus_refreshes_all_clusters():
    latents, mixture, cov, base, hyper, rng = tiny_states(n=10, q=2, seed=11)
    mixture.labels = np.repeat([0, 1], 5)
    mixture.mus = np.zeros((2, 2))
    mixture.counts = np.array([5, 5])
    before = mixture.mus.copy()
    update_unique_mus(latents, mixture, cov, base, 1.0, np.ones(10), rng)
    assert not np.allclose(mixture.mus, before)
    mixture.check(10)


def reference_update_mu_i(i, latents, mixture, cov, base, hyper, pi_i, var_scale, rng,
                          log_new, log_const):
    """Step (a) with numpy's scalar isfinite, a separate temporary and np.cumsum."""
    z_i = latents.z[i]
    q = z_i.shape[0]
    old = mixture.labels[i]
    mixture.labels[i] = -1
    mixture.counts[old] -= 1
    if mixture.counts[old] == 0:
        mixture.remove_cluster(old)
    r_i = mixture.r
    open_new = r_i == 0
    if not open_new:
        logd = np.empty(r_i + 1)
        diff = mixture.mus - z_i
        t = diff @ cov.sigma_inv
        quad = (t * diff).sum(axis=1) / (var_scale * pi_i)
        logd[1:] = np.log(mixture.counts - hyper.discount) + log_const - 0.5 * quad
        logd[0] = np.log(hyper.strength + hyper.discount * r_i) + log_new
        p = np.exp(logd - logd.max())
        total = p.sum()
        if not np.isfinite(total):
            raise FloatingPointError(f"membership weights of record {i} are not finite")
        p /= total
        idx = int(np.searchsorted(np.cumsum(p), rng.random()))
        idx = min(idx, r_i)
        open_new = idx == 0
    if open_new:
        w_i = 1.0 / pi_i
        nu, V = _location_posterior(
            cov.sigma_inv, base.base_var, w_i / var_scale, (z_i * w_i) / var_scale
        )
        mu_new = nu + np.linalg.cholesky(V) @ rng.standard_normal(q)
        mixture.labels[i] = mixture.add_cluster(mu_new)
    else:
        j = idx - 1
        mixture.labels[i] = j
        mixture.counts[j] += 1
    return mixture


def reference_update_unique_mus(latents, mixture, cov, base, var_scale, pis, rng):
    """Step (b) one cluster at a time: one inv, cholesky and normal draw per cluster."""
    inv_pis = 1.0 / np.asarray(pis, dtype=float)
    for j in range(mixture.r):
        members = np.flatnonzero(mixture.labels == j)
        z_members, w_members = latents.z[members], inv_pis[members]
        zsum = (z_members * w_members[:, None]).sum(axis=0) / var_scale
        prec = (w_members.sum() / var_scale) * cov.sigma_inv + np.diag(1.0 / base.base_var)
        V = np.linalg.inv(prec)
        nu = V @ (cov.sigma_inv @ zsum)
        mixture.mus[j] = nu + np.linalg.cholesky(V) @ rng.standard_normal(z_members.shape[1])
    return mixture


def reference_correlation_support(corr, j, k):
    """The PD support of entry (j, k) from three copies of the matrix and three dets."""
    def det_at(rho):
        m = corr.copy()
        m[j, k] = m[k, j] = rho
        return float(np.linalg.det(m))

    h1, hm1, h0 = det_at(1.0), det_at(-1.0), det_at(0.0)
    t1 = 0.5 * (h1 + hm1 - 2.0 * h0)
    t2 = 0.5 * (h1 - hm1)
    t3 = h0
    cur = float(corr[j, k])
    scale = max(abs(t1), abs(t2), abs(t3), 1.0)
    if abs(t1) <= 1e-13 * scale:
        if abs(t2) <= 1e-13 * scale:
            lo, hi = -1.0, 1.0
        elif t2 > 0:
            lo, hi = -t3 / t2, 1.0
        else:
            lo, hi = -1.0, -t3 / t2
    else:
        disc = max(t2 * t2 - 4.0 * t1 * t3, 0.0)
        qf = -0.5 * (t2 + np.copysign(np.sqrt(disc), t2 if t2 != 0 else 1.0))
        r1, r2 = (0.0, 0.0) if qf == 0.0 else (qf / t1, t3 / qf)
        lo, hi = min(r1, r2), max(r1, r2)
    lo, hi = max(lo, -1.0), min(hi, 1.0)
    return float(min(lo, cur)), float(max(hi, cur))


def reference_correlation_logpost(corr, sdevs, scatter, n, q):
    """The correlation log target from q principal-minor slogdets and a solve."""
    logdet = chol_logdet(np.linalg.cholesky(corr))
    minors = 0.0
    for l in range(q):
        keep = np.arange(q) != l
        sign, val = np.linalg.slogdet(corr[np.ix_(keep, keep)])
        if sign <= 0:
            raise np.linalg.LinAlgError("principal minor not positive")
        minors += val
    post = -0.5 * (q + 1.0) * minors - 0.5 * (n + 2.0 - q * (q - 1.0)) * logdet
    if np.any(scatter):
        a = scatter / np.outer(sdevs, sdevs)
        post -= 0.5 * float(np.trace(np.linalg.solve(corr, a)))
    return post


def reference_update_correlation(state, j, k, scatter, n, rng):
    """Step (e) scoring both the candidate and the current matrix from scratch."""
    q = state.q
    lo, hi = reference_correlation_support(state.corr, j, k)
    length = hi - lo
    if length <= 0.0:
        return False
    half = length / CORR_WINDOW_FRAC
    cur = float(state.corr[j, k])
    w_lo, w_hi = max(lo, cur - half), min(hi, cur + half)
    cand = rng.uniform(w_lo, w_hi)
    c_lo, c_hi = max(lo, cand - half), min(hi, cand + half)
    cand_corr = state.corr.copy()
    cand_corr[j, k] = cand_corr[k, j] = cand
    try:
        log_ratio = (
            reference_correlation_logpost(cand_corr, state.sdevs, scatter, n, q)
            - reference_correlation_logpost(state.corr, state.sdevs, scatter, n, q)
        )
    except np.linalg.LinAlgError:
        return False
    log_ratio += np.log(w_hi - w_lo) - np.log(c_hi - c_lo)
    if np.log(rng.random()) < log_ratio:
        state.corr[j, k] = state.corr[k, j] = cand
        try:
            state.refresh()
        except np.linalg.LinAlgError:
            state.corr[j, k] = state.corr[k, j] = cur
            state.refresh()
            return False
        return True
    return False


def reference_gibbs_sweep(latents, mixture, cov, base, hyper, var_scale, pis, rng):
    """The sweep with steps (a), (b) and (e) made one record, cluster or entry at a time."""
    n, q = latents.z.shape
    log_new, log_const = urn_sweep_terms(latents.z, pis, var_scale, cov, base.base_var)
    for i in range(n):
        reference_update_mu_i(i, latents, mixture, cov, base, hyper, pis[i], var_scale, rng,
                              log_new[i], log_const[i])
    reference_update_unique_mus(latents, mixture, cov, base, var_scale, pis, rng)
    base.base_var = update_base_scales(base, mixture.mus, rng)
    scatter = scatter_matrix(latents.z, mixture.mus[mixture.labels], pis, var_scale)
    for j in np.flatnonzero(cov.free):
        update_variance(cov, int(j), scatter, n, rng)
    for j in range(q):
        for k in range(j + 1, q):
            reference_update_correlation(cov, j, k, scatter, n, rng)
    hyper.discount = update_discount(hyper, mixture.counts, rng)
    hyper.strength = update_strength(hyper, mixture.counts, rng)
    resample_latents(latents, mixture, cov, var_scale, pis, rng)


def scenario_start(scenario, seed):
    """``((latents, mixture, cov, base, hyper), var_scale, pis)`` of a scenario's chain start."""
    spec = ScenarioSpec(scenario, seed=seed)
    dataset, _ = (gen_study1 if scenario in STUDY1 else gen_study2)(spec)
    schema = build_schema(scenario_variable_specs(scenario))
    weight_mode, var_scale = scenario_sampler_settings(scenario, dataset.wbar)
    cfg = SamplerConfig(iterations=2, burnin=0, var_scale=var_scale,
                        weight_mode=weight_mode, priors=PRIOR_C)
    pis = effective_pis(dataset, weight_mode)
    latents = initial_latents(dataset, schema)
    return (latents, *init_states(latents, schema, cfg)), var_scale, pis


def scenario_sweeps(scenario, sweeps, seed=3, sweep=gibbs_sweep):
    states, var_scale, pis = scenario_start(scenario, seed)
    rng = np.random.default_rng(seed)
    for _ in range(sweeps):
        sweep(*states, var_scale, pis, rng)
    return states[1:]


@pytest.mark.parametrize("scenario", ["I", "II", "III", "IV", "V", "VI"])
def test_sweeps_match_reference_urn_and_correlation_steps(scenario):
    new = scenario_sweeps(scenario, 40)
    ref = scenario_sweeps(scenario, 40, sweep=reference_gibbs_sweep)
    (m1, c1, b1, h1), (m2, c2, b2, h2) = new, ref
    for a, b in [(m1.labels, m2.labels), (m1.counts, m2.counts), (m1.mus, m2.mus),
                 (c1.sdevs, c2.sdevs), (c1.corr, c2.corr), (b1.base_var, b2.base_var),
                 (h1.discount, h2.discount), (h1.strength, h2.strength)]:
        assert np.array_equal(a, b)


def test_stacked_steps_b_and_e_match_per_item_calls():
    rng = np.random.default_rng(17)
    for trial in range(40):
        q, r = int(rng.integers(1, 6)), int(rng.integers(1, 13))
        n = r + int(rng.integers(0, 40))
        a = rng.standard_normal((q, q + 2))
        m = a @ a.T
        corr = m / np.sqrt(np.outer(np.diag(m), np.diag(m)))
        cov = CovarianceState(sdevs=rng.uniform(0.5, 1.5, q), corr=corr, free=[True] * q)
        latents, _, _, base, _, _ = tiny_states(n=n, q=q, seed=trial)
        base.base_var = rng.uniform(0.5, 4.0, q)
        pis, var_scale = rng.uniform(0.3, 1.0, n), rng.uniform(0.5, 2.0)
        labels = np.concatenate([np.arange(r), rng.integers(0, r, n - r)])
        stacked, single = (MixtureState(labels.copy(), np.zeros((r, q)), np.bincount(labels))
                           for _ in range(2))
        update_unique_mus(latents, stacked, cov, base, var_scale, pis,
                          np.random.default_rng(trial))
        reference_update_unique_mus(latents, single, cov, base, var_scale, pis,
                                    np.random.default_rng(trial))
        assert np.array_equal(stacked.mus, single.mus)
        for j in range(q):
            for k in range(j + 1, q):
                assert correlation_support(corr, j, k) == reference_correlation_support(
                    corr, j, k)


def test_correlation_score_follows_a_scatter_changed_in_place():
    # one scatter buffer, rewritten between calls: the current matrix's score is not reused
    q, n = 4, 50
    rng = np.random.default_rng(29)
    cov, ref = (CovarianceState(sdevs=np.ones(q), corr=np.eye(q), free=[True] * q)
                for _ in range(2))
    scatter = np.empty((q, q))
    moves, rng_new, rng_ref = [], np.random.default_rng(30), np.random.default_rng(30)
    for _ in range(300):
        x = rng.standard_normal((n, q)) * rng.uniform(0.2, 3.0, q)
        scatter[:] = x.T @ x
        j, k = sorted(rng.choice(q, 2, replace=False).tolist())
        moves.append(update_correlation(cov, j, k, scatter, n, rng_new))
        assert moves[-1] == reference_update_correlation(ref, j, k, scatter, n, rng_ref)
        assert np.array_equal(cov.corr, ref.corr)
    assert 0 < sum(moves) < len(moves)


@pytest.mark.parametrize("discount, strength", [(0.0, 1.7), (0.0, 0.2), (0.3, -0.25),
                                                (0.7, 2.5)])
def test_log_tables_match_per_record_logs(discount, strength):
    n = 60
    latents, mixture, cov, base, hyper, rng = tiny_states(n=n, q=2, seed=21)
    hyper.discount, hyper.strength = discount, strength
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tables = UrnTables(latents.z, np.ones(n), 1.0, cov, base.base_var, hyper,
                           mixture.mus)
    for r in range(1, n):
        counts = rng.multinomial(n - 1 - r, np.full(r, 1.0 / r)) + 1
        assert np.array_equal(tables.log_join[counts], np.log(counts - hyper.discount))
        assert tables.log_open[r] == np.log(hyper.strength + hyper.discount * r)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_quadratic_table_tracks_births_and_deaths(q):
    n = 30
    rng = np.random.default_rng(40 + q)
    a = rng.standard_normal((q, q + 2))
    m = a @ a.T
    corr = m / np.sqrt(np.outer(np.diag(m), np.diag(m)))
    cov = CovarianceState(sdevs=rng.uniform(0.5, 1.5, q), corr=corr, free=[True] * q)
    latents, mixture, _, base, hyper, _ = tiny_states(n=n, q=q, seed=q)
    base.base_var[:] = 4.0
    pis = rng.uniform(0.3, 1.0, n)
    checked = 0
    for _ in range(6):
        tables = UrnTables(latents.z, pis, 1.0, cov, base.base_var, hyper, mixture.mus)
        births = deaths = 0
        for i in range(n):
            deaths += mixture.counts[mixture.labels[i]] == 1
            update_mu_i(i, mixture, rng, tables)
            births += mixture.counts[mixture.labels[i]] == 1
        fresh = UrnTables(latents.z, pis, 1.0, cov, base.base_var, hyper, mixture.mus)
        if q <= 3:
            assert np.array_equal(tables.log_kernel, fresh.log_kernel)
        else:
            np.testing.assert_allclose(tables.log_kernel, fresh.log_kernel, rtol=1e-12, atol=0)
        checked += births > 0 and deaths > 0
    assert checked > 0


def urn_pass_against_reference(latents, cov, base, hyper, pis, labels, mus, seed, stop=None):
    """Step (a) over records 0..stop-1 by update_mu_i and by the reference.

    Both start from the same partition and generator seed, and after every
    record their labels, counts and locations must be equal. Returns the
    tables, both mixtures and both generators, and each record's turn as
    ``(row of its block, alone, moved, row length)``.
    """
    counts = np.bincount(labels)
    new = MixtureState(labels.copy(), mus.copy(), counts.copy())
    ref = MixtureState(labels.copy(), mus.copy(), counts.copy())
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    tables = UrnTables(latents.z, pis, 1.0, cov, base.base_var, hyper, new.mus)
    log_new, log_const = urn_sweep_terms(latents.z, pis, 1.0, cov, base.base_var)
    turns = []
    for i in range(len(labels) if stop is None else stop):
        row = i - tables._rows.start if i in tables._rows else 0
        old, alone = new.labels[i], new.counts[new.labels[i]] == 1
        length = new.r + (not alone)
        update_mu_i(i, new, rng_new, tables)
        reference_update_mu_i(i, latents, ref, cov, base, hyper, pis[i], 1.0, rng_ref,
                              log_new[i], log_const[i])
        assert np.array_equal(new.labels, ref.labels)
        assert np.array_equal(new.counts, ref.counts)
        assert np.array_equal(new.mus, ref.mus)
        turns.append((row, alone, alone or new.labels[i] != old, length))
    return tables, (new, rng_new), (ref, rng_ref), turns


def random_partition(rng, n, q, clusters, trial):
    """Clusters of many sizes and close locations, so that every urn weight competes."""
    latents, _, cov, base, hyper, _ = tiny_states(n=n, q=q, seed=trial)
    hyper.discount, hyper.strength = rng.choice([0.0, 0.4]), rng.uniform(0.5, 3.0)
    pis = rng.uniform(0.3, 1.0, n)
    _, labels = np.unique(rng.integers(0, rng.integers(*clusters), n), return_inverse=True)
    counts = np.bincount(labels)
    mus = latents.z[rng.choice(n, counts.size)] + 0.3 * rng.standard_normal((counts.size, q))
    return latents, cov, base, hyper, pis, labels, mus


def separated_partition(trial, movers=(), singleton=None):
    """Nine far-apart clusters over more than two blocks of records.

    Each record lies near its cluster's location, so it stays, except the
    ``movers``, which start in the wrong cluster, and the ``singleton``,
    which starts alone in the ninth cluster.
    """
    n, q, r = 2 * URN_BLOCK + 9, 3, 9
    rng = np.random.default_rng(100 + trial)
    latents, _, cov, base, hyper, _ = tiny_states(n=n, q=q, seed=trial)
    hyper.discount, hyper.strength = (0.0, 0.4)[trial % 2], 1.5
    mus = 6.0 * rng.standard_normal((r, q))
    labels = np.arange(n) % (r - 1)
    if singleton is not None:
        labels[singleton] = r - 1
    latents.z[:] = mus[labels] + 0.2 * rng.standard_normal((n, q))
    for i in movers:
        labels[i] = (labels[i] + 1) % (r - 1)
    return latents, cov, base, hyper, rng.uniform(0.3, 1.0, n), labels, mus[:labels.max() + 1]


def test_urn_passes_match_reference_on_random_partitions():
    rng = np.random.default_rng(31)
    for case in ["random", "two-blocks", "many-clusters", "block-edges"]:
        turns, past_two_blocks = [], []
        for trial in range(60 if case == "random" else 10):
            if case == "random":
                state = random_partition(rng, 40, 3, (1, 9), trial)
            elif case == "two-blocks":
                state = random_partition(rng, 2 * URN_BLOCK + 9, 3, (1, 9), trial)
            elif case == "many-clusters":
                state = random_partition(rng, 60, 2, (9, 17), trial)
            else:
                state = separated_partition(trial, movers=(0, URN_BLOCK),
                                            singleton=URN_BLOCK + 5)
            trial_turns = urn_pass_against_reference(*state, seed=trial)[3]
            turns += trial_turns
            past_two_blocks += trial_turns[2 * URN_BLOCK:]
        if case == "two-blocks":
            assert any(row > 0 for row, *_ in past_two_blocks)
        elif case == "many-clusters":
            # a row of nine or more entries takes numpy's 8-way pairwise sum
            assert any(row > 0 and length >= 9 for row, alone, _, length in turns)
        elif case == "block-edges":
            assert any(row == 0 and moved and not alone for row, alone, moved, _ in turns)
            assert any(row == URN_BLOCK - 1 and moved and not alone
                       for row, alone, moved, _ in turns)
            assert any(row > 0 and alone for row, alone, _, _ in turns)


class CountingGenerator:
    """A generator that counts its ``random`` calls and passes everything else on."""

    def __init__(self, rng):
        self.rng, self.random_calls = rng, 0

    def random(self, *args, **kwargs):
        self.random_calls += 1
        return self.rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_a_pass_without_births_draws_its_uniforms_in_one_call():
    latents, cov, base, hyper, pis, labels, mus = separated_partition(
        0, movers=(0, URN_BLOCK))
    mixture = MixtureState(labels.copy(), mus.copy(), np.bincount(labels))
    tables = UrnTables(latents.z, pis, 1.0, cov, base.base_var, hyper, mixture.mus)
    rng = CountingGenerator(np.random.default_rng(0))
    for i in range(labels.size):
        update_mu_i(i, mixture, rng, tables)
    # both movers left their block, and no record opened a cluster
    assert mixture.labels[0] != labels[0] and mixture.labels[URN_BLOCK] != labels[URN_BLOCK]
    assert mixture.r == len(mus)
    assert rng.random_calls == 1


def test_non_finite_row_raises_at_its_turn_inside_a_block():
    bad = URN_BLOCK // 2
    latents, cov, base, hyper, pis, labels, mus = separated_partition(0)
    latents.z[bad] = np.nan
    tables, (new, rng_new), (ref, rng_ref), turns = urn_pass_against_reference(
        latents, cov, base, hyper, pis, labels, mus, seed=5, stop=bad)
    assert not any(moved for *_, moved, _ in turns)
    assert bad in tables._rows and bad > tables._rows.start
    with pytest.raises(FloatingPointError, match=f"record {bad} "):
        update_mu_i(bad, new, rng_new, tables)
    log_new, log_const = urn_sweep_terms(latents.z, pis, 1.0, cov, base.base_var)
    with pytest.raises(FloatingPointError, match=f"record {bad} "):
        reference_update_mu_i(bad, latents, ref, cov, base, hyper, pis[bad], 1.0, rng_ref,
                              log_new[bad], log_const[bad])
    # neither drew a uniform for the record that raised
    assert rng_new.random() == rng_ref.random()


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937]


def generator_position(rng):
    """The generator's full state, in a form that compares with ``==``."""
    def freeze(value):
        if isinstance(value, dict):
            return tuple((key, freeze(v)) for key, v in sorted(value.items()))
        if isinstance(value, np.ndarray):
            return value.tobytes()
        return value
    return freeze(rng.bit_generator.state)


def sweeps_keep_generator_position(scenario, sweeps, bit_generator, seed=3):
    """Whether gibbs_sweep leaves the generator where the reference sweep does.

    Both chains start from the same states and generator seed; after every
    sweep their generator states and partitions are compared.
    """
    new, var_scale, pis = scenario_start(scenario, seed)
    ref = scenario_start(scenario, seed)[0]
    rng_new, rng_ref = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    for _ in range(sweeps):
        gibbs_sweep(*new, var_scale, pis, rng_new)
        reference_gibbs_sweep(*ref, var_scale, pis, rng_ref)
        if (generator_position(rng_new) != generator_position(rng_ref)
                or not np.array_equal(new[1].labels, ref[1].labels)):
            return False
    return True


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("scenario", ["I", "II", "III", "IV", "V", "VI"])
def test_sweeps_leave_the_generator_where_the_reference_does(scenario, bit_generator):
    assert sweeps_keep_generator_position(scenario, 15, bit_generator)


def births_against_reference(latents, cov, base, hyper, pis, labels, mus, rng_new, rng_ref):
    """Step (a) over every record by update_mu_i and by the reference.

    Returns ``{record: generator states equal}`` for every record that
    opened a new cluster, read right after its birth, and whether the
    partitions stayed equal and the generator states are equal at the end
    of the pass.
    """
    counts = np.bincount(labels)
    new = MixtureState(labels.copy(), mus.copy(), counts.copy())
    ref = MixtureState(labels.copy(), mus.copy(), counts.copy())
    tables = UrnTables(latents.z, pis, 1.0, cov, base.base_var, hyper, new.mus)
    log_new, log_const = urn_sweep_terms(latents.z, pis, 1.0, cov, base.base_var)
    births = {}
    for i in range(len(labels)):
        update_mu_i(i, new, rng_new, tables)
        reference_update_mu_i(i, latents, ref, cov, base, hyper, pis[i], 1.0, rng_ref,
                              log_new[i], log_const[i])
        if not np.array_equal(new.labels, ref.labels):
            return births, False
        if new.counts[new.labels[i]] == 1:
            births[i] = generator_position(rng_new) == generator_position(rng_ref)
    return births, generator_position(rng_new) == generator_position(rng_ref)


def far_records_partition(trial):
    """Nine separated clusters and three records far from every location.

    Each far record opens a new cluster: record URN_BLOCK - 1 at the last row
    of the first block, record URN_BLOCK at the first row of the next, and
    record URN_BLOCK + 5, alone in its cluster, after that cluster dies.
    """
    state = separated_partition(trial, singleton=URN_BLOCK + 5)
    z = state[0].z
    z[URN_BLOCK - 1] = 60.0
    z[URN_BLOCK] = -60.0
    z[URN_BLOCK + 5] = (60.0, -60.0, 60.0)
    return state


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_births_leave_the_generator_where_the_reference_does(bit_generator):
    for trial in range(4):
        births, agreed = births_against_reference(
            *far_records_partition(trial), np.random.Generator(bit_generator(trial)),
            np.random.Generator(bit_generator(trial)))
        assert {URN_BLOCK - 1, URN_BLOCK, URN_BLOCK + 5} <= set(births)
        assert all(births.values()) and agreed
    # a lone record of the only cluster opens a new one without a uniform
    latents, mixture, cov, base, hyper, _ = tiny_states(n=1)
    births, agreed = births_against_reference(
        latents, cov, base, hyper, np.ones(1), mixture.labels, mixture.mus,
        np.random.Generator(bit_generator(7)), np.random.Generator(bit_generator(7)))
    assert births == {0: True} and agreed


def test_a_hand_back_that_does_nothing_is_caught(monkeypatch):
    monkeypatch.setattr(UrnTables, "hand_back", lambda self, i, rng: None)
    births, _ = births_against_reference(
        *far_records_partition(0), np.random.default_rng(0), np.random.default_rng(0))
    assert not all(births.values())
    for bit_generator in BIT_GENERATORS:
        assert not sweeps_keep_generator_position("V", 15, bit_generator)


def singleton_start(scenario, seed=1):
    """A scenario's chain start with every record alone in a cluster at its own latent.

    The covariance, base and discount states are :func:`init_states`'s.
    """
    (latents, _, *rest), var_scale, pis = scenario_start(scenario, seed)
    n = latents.z.shape[0]
    mixture = MixtureState(np.arange(n), latents.z.copy(), np.ones(n, dtype=np.int64))
    return (latents, mixture, *rest), var_scale, pis


#: SHA-256 of 15 sweeps per scenario from :func:`singleton_start` (data seed
#: 1, generator seed 7), fed after every sweep with the labels, the discount,
#: the strength, the free variances and the base variances. In the first
#: sweep every record starts alone in its cluster, which the one-cluster start
#: of ``SHORT_CHAIN_HASHES`` seldom reaches. Recorded with numpy 2.4 and
#: OpenBLAS on x86-64.
SINGLETON_START_HASHES = {
    "I": "ec13d0a9ebf81902156564bad4f8762c2a0e6133585ff154705d459bef361339",
    "II": "d0d47f4be9bc191861b038df2e8083b4946c9612bb6e84074a322756008db023",
    "III": "120c2bf63ce7e046df6d9f6d91efce0f294ad87bba370a78db8ebe02573c9870",
    "IV": "1e55513eb068cd6281bb18ce653f1fc93b32ea2eb3e1275dd56f6b38952fe4b8",
    "V": "6a1d004f601bd9ecb78f810345d536292270ebfe44a390e3bb6e44d053a4bd6b",
    "VI": "75189d53f6dc2186da0062567e32092624e66aef2cb32cda737d77edcc1c755e",
}


@pytest.mark.parametrize("scenario", SINGLETON_START_HASHES)
def test_sweeps_from_singletons_stay_bit_identical(scenario):
    states, var_scale, pis = singleton_start(scenario)
    _, mixture, cov, base, hyper = states
    rng = np.random.default_rng(7)
    digest = hashlib.sha256()
    for _ in range(15):
        gibbs_sweep(*states, var_scale, pis, rng)
        for array in (mixture.labels, hyper.discount, hyper.strength,
                      cov.sdevs[cov.free] ** 2, base.base_var):
            digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == SINGLETON_START_HASHES[scenario]


def test_a_record_alone_is_decided_from_its_block_row(monkeypatch):
    firsts, alone_decided = [], []
    weigh, choose = UrnTables._weigh, UrnTables.choose

    def recording_weigh(self, start, mixture, rng):
        firsts.append(int(mixture.labels[start]))
        return weigh(self, start, mixture, rng)

    def recording_choose(self, i, mixture, rng):
        own = mixture.labels[i]
        alone_decided.append(bool(own >= 0 and mixture.counts[own] == 1))
        return choose(self, i, mixture, rng)

    monkeypatch.setattr(UrnTables, "_weigh", recording_weigh)
    monkeypatch.setattr(UrnTables, "choose", recording_choose)
    for scenario in ["I", "II", "III", "IV", "V", "VI"]:
        firsts.clear()
        alone_decided.clear()
        states, var_scale, pis = singleton_start(scenario)
        rng = np.random.default_rng(7)
        for _ in range(15):
            gibbs_sweep(*states, var_scale, pis, rng)
        # no block starts at a detached record, and records alone were decided
        assert firsts and min(firsts) >= 0
        assert any(alone_decided)


def urn_blocks(monkeypatch, state):
    """The ``(start, stop)`` of every block one pass of step (a) weighs, and the final labels."""
    latents, cov, base, hyper, pis, labels, mus = state
    blocks, weigh = [], UrnTables._weigh

    def recording_weigh(self, start, mixture, rng):
        weigh(self, start, mixture, rng)
        blocks.append((self._rows.start, self._rows.stop))

    mixture = MixtureState(labels.copy(), mus.copy(), np.bincount(labels))
    tables = UrnTables(latents.z, pis, 1.0, cov, base.base_var, hyper, mixture.mus)
    rng = np.random.default_rng(0)
    with monkeypatch.context() as patch:
        patch.setattr(UrnTables, "_weigh", recording_weigh)
        for i in range(labels.size):
            update_mu_i(i, mixture, rng, tables)
    return blocks, mixture.labels


def test_blocks_grow_while_records_stay(monkeypatch):
    n = 2 * URN_BLOCK + 9
    # no record moves: the block after a full one is twice as long
    blocks, _ = urn_blocks(monkeypatch, separated_partition(0))
    assert blocks == [(0, URN_BLOCK), (URN_BLOCK, n)]
    # a move inside the grown block starts the next one at URN_BLOCK rows
    mover = URN_BLOCK + 4
    state = separated_partition(0, movers=(mover,))
    blocks, labels = urn_blocks(monkeypatch, state)
    assert labels[mover] != state[5][mover]
    assert blocks == [(0, URN_BLOCK), (URN_BLOCK, n), (mover + 1, mover + 1 + URN_BLOCK),
                      (mover + 1 + URN_BLOCK, n)]
