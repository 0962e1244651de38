"""Acceptance suite: every criterion at its stated tolerance.

Benchmark chains are heavy, so each (scenario, prior) configuration runs
once per session and is shared across criteria. Every test prints one
PASS/FAIL line (visible with ``pytest -s``) before asserting.

Criterion 5 is asserted exactly as stated and its vague-prior legs are
expected to fail: the reference values for priors A and B describe an
overfit configuration that the exact collapsed posterior rejects by
hundreds of nats; the sampler itself passes the joint-distribution test of
criterion 7. Criteria 1-4 and 6 read the cluster count from one chain whose
answer depends on its start. The measured values and causes of every red
criterion are recorded in CHANGES.md.
"""

import math

import numpy as np
import pytest
from scipy import stats

import pdclust as pc
import pdclust.covariance
import pdclust.sampler
from pdclust.cli import PRESETS
from pdclust.covariance import CovarianceState, update_correlation, update_variance
from pdclust.geweke import geweke_joint_test
from pdclust.latent import conditional_moments
from pdclust.postproc import dahl_select, expand_variables, hm_measure, similarity
from pdclust.pdprocess import (BaseMeasure, PDHyper, eppf_log, update_base_scales,
                               update_discount, update_strength)

pytestmark = pytest.mark.acceptance

BENCH_DATA_SEED = 1
BENCH_CHAIN_SEED = 2026


def adjacency(labels):
    """Reference co-membership matrix of one partition."""
    labels = np.asarray(labels)
    return labels[:, None] == labels[None, :]


def _report(criterion, ok, details):
    print(f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {details}")


def _run_benchmark(scenario, preset):
    spec = pc.ScenarioSpec(scenario, seed=BENCH_DATA_SEED)
    if scenario in ("I", "II", "III"):
        dataset, _ = pc.gen_study1(spec)
    else:
        dataset, _ = pc.gen_study2(spec)
    schema = pc.build_schema(pc.scenario_variable_specs(scenario))
    mode, var_scale = pc.scenario_sampler_settings(scenario, dataset.wbar)
    var_shape, var_prior_scale, base_shape, base_prior_scale = PRESETS[preset]
    cfg = pc.SamplerConfig(
        iterations=4700, burnin=200, thinning=3, seed=BENCH_CHAIN_SEED,
        weight_mode=mode, var_scale=var_scale,
        priors=pc.PriorConstants(var_prior_shape=var_shape, var_prior_scale=var_prior_scale,
                                 base_prior_shape=base_shape,
                                 base_prior_scale=base_prior_scale),
    )
    out = pc.run_chain(dataset, schema, cfg)
    return dataset, schema, out


def _modal_r(out):
    vals, counts = np.unique(out.trace_r, return_counts=True)
    top = int(np.argmax(counts))
    return int(vals[top]), counts[top] / out.kept


@pytest.fixture(scope="session")
def bench():
    cache = {}

    def get(scenario, preset="C"):
        key = (scenario, preset)
        if key not in cache:
            cache[key] = _run_benchmark(scenario, preset)
        return cache[key]

    return get


class TestCriterion01ScenarioI:
    def test_modal_cluster_count(self, bench):
        _, _, out = bench("I", "C")
        mode, mass = _modal_r(out)
        ok = mode == 3 and mass >= 0.3 and out.runtime_seconds <= 1800
        _report(1, ok, f"scenario I prior C: modal r={mode}, mass={mass:.2f}, "
                       f"runtime={out.runtime_seconds:.0f}s (limit 1800s)")
        assert mode == 3
        assert mass >= 0.3
        assert out.runtime_seconds <= 1800


class TestCriterion02ScenarioII:
    def test_selected_partition_has_three_groups(self, bench):
        _, _, out = bench("II", "C")
        mode, _ = _modal_r(out)
        selected, _ = dahl_select(out.partitions, similarity(out.partitions))
        r_sel = len(np.unique(selected))
        ok = r_sel == 3 and mode in (3, 4)
        _report(2, ok, f"scenario II prior C: selected r={r_sel}, modal r={mode}")
        assert r_sel == 3
        assert mode in (3, 4)


class TestCriterion03ScenarioIII:
    def test_selected_partition_structure(self, bench):
        _, _, out = bench("III", "C")
        mode, _ = _modal_r(out)
        selected, _ = dahl_select(out.partitions, similarity(out.partitions))
        sizes = np.sort(np.bincount(selected))[::-1]
        top3 = sizes[:3].sum() / sizes.sum()
        ok = len(sizes) == 5 and top3 >= 0.8 and mode in (4, 5, 6)
        _report(3, ok, f"scenario III prior C: selected r={len(sizes)} "
                       f"(sizes {sizes.tolist()}), top-3 coverage={top3:.2f}, "
                       f"modal r={mode}")
        assert len(sizes) == 5
        assert top3 >= 0.8
        assert mode in (4, 5, 6)


class TestCriterion04PriorSensitivity:
    def test_vaguer_priors_support_more_clusters(self, bench):
        modes = {}
        for scenario in ("I", "III"):
            for preset in ("A", "B", "C"):
                _, _, out = bench(scenario, preset)
                modes[(scenario, preset)] = _modal_r(out)[0]
        ok = all(
            modes[(s, "A")] > modes[(s, "B")] > modes[(s, "C")]
            for s in ("I", "III")
        )
        _report(4, ok, "modal r by prior: "
                       f"I: {modes[('I', 'A')]}/{modes[('I', 'B')]}/{modes[('I', 'C')]}, "
                       f"III: {modes[('III', 'A')]}/{modes[('III', 'B')]}/{modes[('III', 'C')]}")
        for s in ("I", "III"):
            assert modes[(s, "A")] > modes[(s, "B")] > modes[(s, "C")]


class TestCriterion05DiscountMeans:
    def test_posterior_discount_means(self, bench):
        targets = {"A": 0.99, "B": 0.57, "C": 0.03}
        means, checks = {}, {}
        for preset, target in targets.items():
            _, _, out = bench("I", preset)
            means[preset] = out.trace_discount.mean()
            checks[preset] = abs(means[preset] - target) <= 0.15
        ok = all(checks.values())
        _report(5, ok, "posterior discount means (target 0.99/0.57/0.03 +-0.15): "
                       f"A={means['A']:.3f} ({'ok' if checks['A'] else 'off'}), "
                       f"B={means['B']:.3f} ({'ok' if checks['B'] else 'off'}), "
                       f"C={means['C']:.3f} ({'ok' if checks['C'] else 'off'})")
        for preset, target in targets.items():
            assert abs(means[preset] - target) <= 0.15, (
                f"prior {preset}: mean discount {means[preset]:.3f} vs {target}"
            )


class TestCriterion06WeightedScenarios:
    def test_scenario_iv_single_group(self, bench):
        _, _, out = bench("IV")
        p1 = float(np.mean(out.trace_r == 1))
        ok = abs(p1 - 0.8) <= 0.15 and out.runtime_seconds <= 1200
        _report(6, ok, f"scenario IV: P(r=1)={p1:.2f} (target 0.8+-0.15), "
                       f"runtime={out.runtime_seconds:.0f}s")
        assert abs(p1 - 0.8) <= 0.15
        assert out.runtime_seconds <= 1200

    def test_scenario_v_three_groups(self, bench):
        _, _, out = bench("V")
        mode, mass = _modal_r(out)
        ok = mode == 3 and out.runtime_seconds <= 1200
        _report(6, ok, f"scenario V: modal r={mode} (mass {mass:.2f}), "
                       f"runtime={out.runtime_seconds:.0f}s")
        assert mode == 3
        assert out.runtime_seconds <= 1200

    def test_scenario_vi_five_groups(self, bench):
        _, _, out = bench("VI")
        mode, mass = _modal_r(out)
        ok = mode == 5 and out.runtime_seconds <= 1200
        _report(6, ok, f"scenario VI: modal r={mode} (mass {mass:.2f}), "
                       f"runtime={out.runtime_seconds:.0f}s")
        assert mode == 5
        assert out.runtime_seconds <= 1200


def _geweke_config():
    schema = pc.build_schema([pc.continuous_spec("y1"), pc.ordinal_spec("y2", 2)])
    cfg = pc.SamplerConfig(
        iterations=2, burnin=1, var_scale=1.0, weight_mode="design",
        priors=pc.PriorConstants(var_prior_shape=2.0, var_prior_scale=2.0,
                                 base_prior_shape=2.0, base_prior_scale=2.0))
    return schema, cfg


_LOCATION_SUMS = pdclust.sampler._location_sums

#: Named terms of the sweep and the wrong versions that criterion 7 must catch:
#: the two Hastings terms zeroed, and step (b)'s location sums without the 1/pi
#: weights.
MUTATIONS = {
    "variance-hastings": (pdclust.covariance, "_gamma_logpdf_shape_scale", lambda *args: 0.0),
    "correlation-hastings": (pdclust.covariance, "_window_log_ratio", lambda *args: 0.0),
    "location-weights": (pdclust.sampler, "_location_sums",
                         lambda z, w, members: _LOCATION_SUMS(z, np.ones_like(w), members)),
}


class TestCriterion07SamplerCorrectness:
    def test_joint_distribution_check_passes(self):
        schema, cfg = _geweke_config()
        report = geweke_joint_test(schema, cfg, draws=20_000, seed=11)
        ok = report.passed(3.0)
        _report(7, ok, f"joint-distribution check: max |z|={report.max_abs_z:.2f} "
                       f"over {len(report.names)} statistics, 20000 draws")
        assert ok, str(report)

    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    def test_mutations_are_detected(self, mutation, monkeypatch):
        # replace one kernel's named term inside the sweep
        monkeypatch.setattr(*MUTATIONS[mutation])
        schema, cfg = _geweke_config()
        report = geweke_joint_test(schema, cfg, draws=20_000, seed=11)
        ok = report.max_abs_z > 5.0
        _report(7, ok, f"mutation {mutation}: max |z|={report.max_abs_z:.1f} "
                       "(must exceed 5)")
        assert ok, str(report)


class TestCriterion08PriorRecovery:
    def test_correlation_marginals_uniform(self):
        state = CovarianceState(np.ones(3), np.eye(3), [True] * 3,
                                priors=pc.PriorConstants(var_prior_shape=2.0,
                                                         var_prior_scale=2.0))
        rng = np.random.default_rng(42)
        kept = []
        for t in range(100_000):
            for j in range(3):
                for k in range(j + 1, 3):
                    update_correlation(state, j, k, np.zeros((3, 3)), 0, rng)
            if t >= 2000 and t % 60 == 0:
                kept.append(state.corr[np.triu_indices(3, 1)].copy())
        kept = np.array(kept)
        pvals = [stats.kstest(kept[:, c], stats.uniform(-1, 2).cdf).pvalue
                 for c in range(3)]
        ok = all(p > 0.01 for p in pvals)
        _report(8, ok, f"correlation prior recovery (q=3): KS p={np.round(pvals, 3)}")
        assert ok

    def test_strength_prior_recovery(self):
        hyper = PDHyper(0.0, 1.0, priors=pc.PriorConstants(strength_shape=1.0,
                                                           strength_rate=1.0))
        rng = np.random.default_rng(8)
        trace = []
        for _ in range(80_000):
            hyper.discount = update_discount(hyper, [1], rng)
            hyper.strength = update_strength(hyper, [1], rng)
            trace.append(hyper.strength + hyper.discount)
        thinned = np.asarray(trace[2000::25])
        p = stats.kstest(thinned, stats.gamma(a=1.0, scale=1.0).cdf).pvalue
        ok = p > 0.01
        _report(8, ok, f"strength+discount ~ Gamma(1,1) recovery: KS p={p:.3f}")
        assert ok

    def test_discount_point_mass_recovery(self):
        alpha = 0.5
        hyper = PDHyper(0.0, 1.0, priors=pc.PriorConstants(discount_zero_prob=alpha))
        rng = np.random.default_rng(9)
        hits = []
        for _ in range(60_000):
            hyper.discount = update_discount(hyper, [1], rng)
            hyper.strength = update_strength(hyper, [1], rng)
            hits.append(hyper.discount == 0.0)
        hits = np.asarray(hits[2000:], dtype=float)
        batches = hits[: len(hits) // 60 * 60].reshape(60, -1).mean(axis=1)
        se = batches.std(ddof=1) / np.sqrt(len(batches))
        gap = abs(hits.mean() - alpha)
        ok = gap < 3 * max(se, 1e-4)
        _report(8, ok, f"P(discount=0) recovery: {hits.mean():.3f} vs {alpha} "
                       f"(3 se = {3 * se:.3f})")
        assert ok

    def test_variance_prior_recovery(self):
        # free kernel variance: many independent prior-only metropolis chains,
        # each started from a prior draw. If the kernel leaves the prior
        # invariant, every endpoint is exactly prior-distributed and the
        # endpoints are iid, however slowly a single chain mixes.
        prior = stats.invgamma(a=2.5, scale=8.0)
        state = CovarianceState(np.ones(1), np.eye(1), [True],
                                priors=pc.PriorConstants(var_prior_shape=2.5,
                                                         var_prior_scale=8.0))
        rng = np.random.default_rng(10)
        starts = prior.rvs(size=3000, random_state=rng)
        ends = np.empty_like(starts)
        for c, start in enumerate(starts):
            state.sdevs[0] = np.sqrt(start)
            state.refresh()
            for _ in range(25):
                update_variance(state, 0, np.zeros((1, 1)), 0, rng)
            ends[c] = state.sdevs[0] ** 2
        p_var = stats.kstest(ends, prior.cdf).pvalue
        # base-measure variances, empty-location bypass draws from the prior
        base = BaseMeasure(np.ones(2), priors=pc.PriorConstants(base_prior_shape=2.1,
                                                                base_prior_scale=30.0))
        draws = np.array([
            update_base_scales(base, np.empty((0, 2)), rng)[0]
            for _ in range(10_000)
        ])
        p_base = stats.kstest(draws, stats.invgamma(a=2.1, scale=30.0).cdf).pvalue
        ok = p_var > 0.01 and p_base > 0.01
        _report(8, ok, f"inverse-gamma recovery: kernel var KS p={p_var:.3f}, "
                       f"base var KS p={p_base:.3f}")
        assert ok


def _ewens_log(strength, sizes):
    n, r = sum(sizes), len(sizes)
    return ((r - 1) * math.log(strength) + math.lgamma(strength + 1)
            - math.lgamma(strength + n) + sum(math.lgamma(m) for m in sizes))


def _int_partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _int_partitions(n - first, first):
            yield (first,) + rest


class TestCriterion09OracleEquivalences:
    def test_eppf_matches_ewens_up_to_n12(self):
        worst = 0.0
        count = 0
        for n in range(1, 13):
            for sizes in _int_partitions(n):
                for b in (0.25, 1.0, 3.7):
                    gap = abs(eppf_log(0.0, b, list(sizes)) - _ewens_log(b, sizes))
                    worst = max(worst, gap)
                    count += 1
        ok = worst < 1e-10
        _report(9, ok, f"EPPF vs Ewens over {count} partition/strength pairs: "
                       f"max gap={worst:.1e}")
        assert ok

    def test_variance_chain_matches_direct_inverse_gamma(self):
        d0, d1, n, s11 = 2.1, 30.0, 40, 55.0
        state = CovarianceState(np.ones(1), np.eye(1), [True],
                                priors=pc.PriorConstants(var_prior_shape=d0, var_prior_scale=d1))
        scatter = np.array([[s11]])
        rng = np.random.default_rng(12)
        trace = np.empty(100_000)
        for t in range(trace.size):
            update_variance(state, 0, scatter, n, rng)
            trace[t] = state.sdevs[0] ** 2
        chain = trace[2000:]
        direct = stats.invgamma(a=d0 + n / 2, scale=d1 + s11 / 2)
        batches = chain[: len(chain) // 70 * 70].reshape(70, -1).mean(axis=1)
        se_mean = batches.std(ddof=1) / np.sqrt(len(batches))
        sq = chain ** 2
        sq_b = sq[: len(sq) // 70 * 70].reshape(70, -1).mean(axis=1)
        se_sq = sq_b.std(ddof=1) / np.sqrt(len(sq_b))
        gap_mean = abs(chain.mean() - direct.mean())
        gap_sq = abs(sq.mean() - direct.moment(2))
        ok = gap_mean < 3 * se_mean and gap_sq < 3 * se_sq
        _report(9, ok, f"q=1 variance chain vs direct sampler: "
                       f"|mean gap|={gap_mean:.4f} (3se={3 * se_mean:.4f}), "
                       f"|2nd moment gap|={gap_sq:.3f} (3se={3 * se_sq:.3f})")
        assert ok

    def test_conditional_moments_grid_oracle(self):
        worst = 0.0
        for trial in range(4):
            rng = np.random.default_rng(300 + trial)
            a = rng.standard_normal((3, 3))
            sigma = a @ a.T + 3.0 * np.eye(3)
            mu = rng.standard_normal(3)
            z = mu + 0.5 * rng.standard_normal(3) * np.sqrt(np.diag(sigma))
            coord, scale = trial % 3, 0.9
            prec = np.linalg.inv(scale * sigma)
            sd = np.sqrt(scale * sigma[coord, coord])
            grid = np.linspace(mu[coord] - 12 * sd, mu[coord] + 12 * sd, 2 ** 15 + 1)
            x = z.copy()
            dens = np.empty_like(grid)
            for i, t in enumerate(grid):
                x[coord] = t
                d = x - mu
                dens[i] = np.exp(-0.5 * d @ prec @ d)
            w = dens / np.trapezoid(dens, grid)
            mean = np.trapezoid(w * grid, grid)
            var = np.trapezoid(w * (grid - mean) ** 2, grid)
            nu, v = conditional_moments(np.linalg.inv(sigma), mu, z, coord, scale)
            worst = max(worst, abs(nu - mean) / max(1, abs(mean)),
                        abs(v - var) / max(1, var))
        ok = worst < 1e-6
        _report(9, ok, f"conditional moments vs grid oracle: max rel gap={worst:.1e}")
        assert ok

    def test_hm_double_loop_oracle(self):
        rng = np.random.default_rng(13)
        expanded = rng.standard_normal((9, 4))
        weights = rng.uniform(0.5, 3.0, 9)
        partition = rng.integers(0, 3, 9)
        fast = hm_measure(partition, expanded, weights)
        slow = 0.0
        for lbl in set(partition.tolist()):
            idx = [i for i in range(9) if partition[i] == lbl]
            wsum = sum(weights[i] for i in idx)
            for j in range(4):
                m1 = sum(weights[i] / wsum * expanded[i, j] for i in idx)
                m2 = sum(weights[i] / wsum * expanded[i, j] ** 2 for i in idx)
                slow += len(idx) * (m2 - m1 * m1)
        ok = abs(fast - slow) < 1e-12
        _report(9, ok, f"HM vs double-loop oracle: gap={abs(fast - slow):.1e}")
        assert ok

    def test_dahl_brute_force_oracle(self):
        rng = np.random.default_rng(14)
        parts = rng.integers(0, 4, size=(10, 12))
        sim = similarity(parts)
        chosen, dist = dahl_select(parts, sim)
        dists = [((adjacency(p) - sim) ** 2).sum() for p in parts]
        ok = (np.array_equal(chosen, parts[int(np.argmin(dists))])
              and np.isclose(dist, min(dists)))
        _report(9, ok, f"dahl selection vs brute force over 10 partitions: "
                       f"distance {dist:.3f} == min {min(dists):.3f}")
        assert ok


class TestCriterion10StructuralInvariants:
    def test_invariants_held_over_benchmark_runs(self, bench):
        # the cached benchmark chains all ran with runtime checks enabled:
        # decode consistency, label/count conservation, fixed unit variances
        # and factorization health are asserted at every kept iteration, and
        # membership probabilities are checked to normalize at every urn step
        checked = []
        for scenario in ("I", "II", "III", "IV", "V", "VI"):
            dataset, schema, out = bench(scenario, "C")
            assert out.kept == 1500
            for t in (0, out.kept // 2, out.kept - 1):
                labels = out.partitions[t]
                assert labels.min() == 0
                assert np.array_equal(np.unique(labels),
                                      np.arange(labels.max() + 1))
                assert np.bincount(labels).sum() == dataset.n
            expanded = expand_variables(dataset, schema)
            hm_singletons = hm_measure(np.arange(dataset.n), expanded,
                                       dataset.weights)
            assert hm_singletons == 0.0
            checked.append(scenario)
        _report(10, True, f"runtime checks enabled on scenarios {checked}; "
                          "partitions contiguous, counts conserved, "
                          "HM(singletons)=0")
