import numpy as np
import pytest
from scipy import stats

from pdclust import PriorConstants
from pdclust.covariance import (CovarianceState, _correlation_factor, _correlation_logpost,
                                _gamma_logpdf_shape_scale, chol_logdet, compose_sigma,
                                correlation_support, scatter_matrix, update_correlation,
                                update_variance)

#: Inverse-gamma(2, 2) on the free variances.
PRIOR_2_2 = PriorConstants(var_prior_shape=2.0, var_prior_scale=2.0)


class TestScatterMatrix:
    def test_zero_residuals(self):
        z = np.random.default_rng(0).standard_normal((10, 3))
        s = scatter_matrix(z, z, np.ones(10), 1.0)
        assert np.allclose(s, 0.0)

    def test_single_record_outer_product(self):
        z = np.array([[1.0, 0.0]])
        mu = np.zeros((1, 2))
        s = scatter_matrix(z, mu, np.ones(1), 1.0)
        assert np.allclose(s, np.outer([1, 0], [1, 0]))

    def test_doubling_scale_halves_scatter(self):
        rng = np.random.default_rng(1)
        z, mu = rng.standard_normal((20, 2)), rng.standard_normal((20, 2))
        pis = rng.uniform(0.2, 1.0, 20)
        assert np.allclose(scatter_matrix(z, mu, pis, 2.0),
                           scatter_matrix(z, mu, pis, 1.0) / 2.0)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        s = scatter_matrix(rng.standard_normal((50, 4)), rng.standard_normal((50, 4)),
                           rng.uniform(0.1, 1.0, 50), 0.7)
        assert np.allclose(s, s.T, atol=1e-12)


class TestComposeSigma:
    def test_identity_scale(self):
        omega = np.array([[1.0, 0.4], [0.4, 1.0]])
        sigma, chol = compose_sigma(np.ones(2), omega)
        assert np.array_equal(sigma, omega)
        assert np.allclose(chol @ chol.T, omega)

    def test_diagonal(self):
        sigma, _ = compose_sigma([2.0, 1.0], np.eye(2))
        assert np.allclose(sigma, np.diag([4.0, 1.0]))

    def test_entrywise_identity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        omega = a @ a.T
        d = np.sqrt(np.diag(omega))
        omega = omega / np.outer(d, d)
        sdevs = rng.uniform(0.5, 3.0, 4)
        sigma, _ = compose_sigma(sdevs, omega)
        for j in range(4):
            for k in range(4):
                assert np.isclose(sigma[j, k], sdevs[j] * sdevs[k] * omega[j, k])

    def test_non_pd_raises(self):
        bad = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            compose_sigma(np.ones(2), bad)


class TestVarianceUpdate:
    def test_hastings_term_vanishes_for_equal_points(self):
        x, shape = 1.7, 5.0
        fwd = _gamma_logpdf_shape_scale(x, shape, x / shape)
        back = _gamma_logpdf_shape_scale(x, shape, x / shape)
        assert fwd == back  # correction cancels when the proposal equals the state

    def test_fixed_coordinate_rejected(self):
        state = CovarianceState(np.ones(2), np.eye(2), [True, False], priors=PRIOR_2_2)
        with pytest.raises(ValueError):
            update_variance(state, 1, np.zeros((2, 2)), 0, np.random.default_rng(0))

    def test_conjugate_case_matches_direct_sampler(self):
        # q = 1: the target is exactly InvGamma(shape + n/2, scale + s/2)
        d0, d1, n, s11 = 2.1, 30.0, 40, 55.0
        state = CovarianceState(np.ones(1), np.eye(1), [True],
                                priors=PriorConstants(var_prior_shape=d0, var_prior_scale=d1))
        scatter = np.array([[s11]])
        rng = np.random.default_rng(10)
        trace = np.empty(120_000)
        for t in range(trace.size):
            update_variance(state, 0, scatter, n, rng)
            trace[t] = state.sdevs[0] ** 2
        thinned = trace[2000::20]
        dist = stats.invgamma(a=d0 + n / 2, scale=d1 + s11 / 2)
        assert stats.kstest(thinned, dist.cdf).pvalue > 0.01
        # mean and variance agree within 3 batch-means standard errors
        batches = trace[2000:].reshape(-1, 59)[: 2000].mean(axis=1)
        se = batches.std(ddof=1) / np.sqrt(len(batches))
        assert abs(trace[2000:].mean() - dist.mean()) < 3 * se

    def test_caches_are_fresh_after_accepted_moves(self):
        rng = np.random.default_rng(17)
        state = CovarianceState(sdevs=[1.3, 0.8, 1.0], corr=random_correlation(3, 7),
                                free=[True, True, False])
        z = rng.standard_normal((40, 3)) @ random_correlation(3, 8)
        scatter = scatter_matrix(z, np.zeros_like(z), np.ones(40), 1.0)
        accepted = 0
        for _ in range(30):
            for j in (0, 1):
                accepted += update_variance(state, j, scatter, 40, rng)
                assert_every_cache_is_fresh(state)
        assert accepted > 0

    def test_prior_only_mode_recovers_inverse_gamma(self):
        state = CovarianceState(np.ones(1), np.eye(1), [True],
                                priors=PriorConstants(var_prior_shape=2.5, var_prior_scale=4.0))
        rng = np.random.default_rng(11)
        trace = np.empty(60_000)
        for t in range(trace.size):
            update_variance(state, 0, np.zeros((1, 1)), 0, rng)
            trace[t] = state.sdevs[0] ** 2
        p = stats.kstest(trace[2000::20], stats.invgamma(a=2.5, scale=4.0).cdf).pvalue
        assert p > 0.01


def random_correlation(q, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((q, q + 2))
    m = a @ a.T
    d = np.sqrt(np.diag(m))
    return m / np.outer(d, d)


class TestCorrelationSupport:
    def test_two_by_two(self):
        omega = np.array([[1.0, 0.3], [0.3, 1.0]])
        lo, hi = correlation_support(omega, 0, 1)
        assert abs(lo + 1.0) < 1e-10 and abs(hi - 1.0) < 1e-10

    def test_three_by_three_independent(self):
        lo, hi = correlation_support(np.eye(3), 0, 2)
        assert abs(lo + 1.0) < 1e-10 and abs(hi - 1.0) < 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_roots_and_sign_pattern(self, seed):
        omega = random_correlation(4, seed)
        j, k = (0, 1) if seed % 2 else (1, 3)
        lo, hi = correlation_support(omega, j, k)
        assert lo <= omega[j, k] <= hi

        def h(rho):
            m = omega.copy()
            m[j, k] = m[k, j] = rho
            return np.linalg.det(m)

        for root in (lo, hi):
            if -1.0 < root < 1.0:  # interior roots annihilate the determinant
                assert abs(h(root)) < 1e-8
        grid = np.linspace(-1, 1, 2001)
        inside = (grid > lo + 1e-9) & (grid < hi - 1e-9)
        dets = np.array([h(r) for r in grid])
        assert np.all(dets[inside] > 0)
        assert np.all(dets[~inside & (np.abs(grid) < 1 - 1e-12)] <= 1e-9)


def reference_correlation_logpost(corr, sdevs, scatter, n, q):
    """The correlation log target from q principal-minor slogdets and a solve."""
    logdet = chol_logdet(np.linalg.cholesky(corr))
    minors = 0.0
    for l in range(q):
        keep = np.arange(q) != l
        sign, val = np.linalg.slogdet(corr[np.ix_(keep, keep)])
        assert sign > 0
        minors += val
    post = -0.5 * (q + 1.0) * minors - 0.5 * (n + 2.0 - q * (q - 1.0)) * logdet
    if np.any(scatter):
        a = scatter / np.outer(sdevs, sdevs)
        post -= 0.5 * float(np.trace(np.linalg.solve(corr, a)))
    return post


class TestCorrelationLogpost:
    @pytest.mark.parametrize("q", range(2, 7))
    @pytest.mark.parametrize("case", ["zeros", "scatter"])
    def test_matches_minor_and_solve_formula(self, q, case):
        rng = np.random.default_rng(100 + q)
        corr = random_correlation(q, q)
        sdevs = np.ones(q)
        scatter = np.zeros((q, q))
        if case == "scatter":
            sdevs = rng.uniform(0.4, 2.5, q)
            z = rng.standard_normal((50, q)) * sdevs
            scatter = scatter_matrix(z, np.zeros_like(z), rng.uniform(0.2, 1.0, 50), 1.3)
        new = _correlation_logpost(_correlation_factor(corr), sdevs, scatter, 50, q)
        ref = reference_correlation_logpost(corr, sdevs, scatter, 50, q)
        assert new == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_non_pd_matrix_raises(self):
        bad = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            _correlation_factor(bad)


def assert_cached_factor_is_fresh(state):
    inv_chol, logdet = _correlation_factor(state.corr)
    assert np.array_equal(state.corr_inv_chol, inv_chol)
    assert state.corr_logdet == logdet


def assert_every_cache_is_fresh(state):
    fresh = CovarianceState(sdevs=state.sdevs, corr=state.corr, free=state.free)
    for name in ("sigma", "chol", "sigma_inv", "logdet_sigma", "corr_inv_chol",
                 "corr_logdet", "corr_inv"):
        assert np.array_equal(getattr(state, name), getattr(fresh, name)), name


class TestCorrelationUpdate:
    def test_rejects_lower_triangle_call(self):
        state = CovarianceState(np.ones(2), np.eye(2), [True, True], priors=PRIOR_2_2)
        with pytest.raises(ValueError):
            update_correlation(state, 1, 0, np.zeros((2, 2)), 0,
                               np.random.default_rng(0))

    def test_prior_only_marginals_are_uniform_q3(self):
        # entries de-correlate slowly through the joint support geometry, so
        # thin hard before applying the KS test
        state = CovarianceState(np.ones(3), np.eye(3), [True] * 3, priors=PRIOR_2_2)
        rng = np.random.default_rng(42)
        kept = []
        for t in range(40_000):
            for j in range(3):
                for k in range(j + 1, 3):
                    update_correlation(state, j, k, np.zeros((3, 3)), 0, rng)
            if t >= 2000 and t % 60 == 0:
                kept.append(state.corr[np.triu_indices(3, 1)].copy())
        kept = np.array(kept)
        for col in range(3):
            p = stats.kstest(kept[:, col], stats.uniform(-1, 2).cdf).pvalue
            assert p > 0.01

    def test_accepted_moves_keep_valid_state(self):
        rng = np.random.default_rng(13)
        state = CovarianceState(np.ones(4), np.eye(4), [True] * 4, priors=PRIOR_2_2)
        z = rng.standard_normal((60, 4)) @ random_correlation(4, 99)
        scatter = scatter_matrix(z, np.zeros_like(z), np.ones(60), 1.0)
        accepted = 0
        for _ in range(300):
            for j in range(4):
                for k in range(j + 1, 4):
                    accepted += update_correlation(state, j, k, scatter, 60, rng)
            state.check()
            assert np.all(np.isfinite(np.linalg.cholesky(state.corr)))
        assert accepted > 100  # the chain actually moves

    def test_cached_factor_is_fresh_after_accepted_moves(self):
        rng = np.random.default_rng(15)
        state = CovarianceState(sdevs=[1.3, 0.8, 1.0], corr=random_correlation(3, 7),
                                free=[True] * 3)
        z = rng.standard_normal((40, 3)) @ random_correlation(3, 8)
        scatter = scatter_matrix(z, np.zeros_like(z), np.ones(40), 1.0)
        accepted = 0
        for _ in range(30):
            for j, k in ((0, 1), (0, 2), (1, 2)):
                accepted += update_correlation(state, j, k, scatter, 40, rng)
                assert_every_cache_is_fresh(state)
        assert accepted > 0

    def test_cached_factor_is_fresh_after_backed_out_move(self, monkeypatch):
        # the first refresh after an accepted proposal moves every cache to
        # the candidate and then fails, as a numerically non-PD sigma would
        state = CovarianceState(sdevs=[1.3, 0.8, 1.0], corr=random_correlation(3, 7),
                                free=[True] * 3)
        refresh = CovarianceState.refresh
        failed = []

        def refresh_then_fail(self, *args, **kwargs):
            refresh(self, *args, **kwargs)
            if not failed:
                failed.append(self.corr.copy())
                raise np.linalg.LinAlgError("simulated non-PD refresh")

        monkeypatch.setattr(CovarianceState, "refresh", refresh_then_fail)
        rng = np.random.default_rng(16)
        for _ in range(100):
            before = state.corr.copy()
            moved = update_correlation(state, 0, 2, np.zeros((3, 3)), 0, rng)
            if failed:
                break
        assert failed and not moved
        assert not np.array_equal(failed[0], before)
        assert np.array_equal(state.corr, before)
        assert_cached_factor_is_fresh(state)


def test_fixed_sdevs_never_drift():
    rng = np.random.default_rng(14)
    state = CovarianceState(np.ones(3), np.eye(3), [True, False, False], priors=PRIOR_2_2)
    z = rng.standard_normal((40, 3))
    scatter = scatter_matrix(z, np.zeros_like(z), np.ones(40), 1.0)
    for _ in range(200):
        update_variance(state, 0, scatter, 40, rng)
        for j in range(3):
            for k in range(j + 1, 3):
                update_correlation(state, j, k, scatter, 40, rng)
    assert state.sdevs[1] == 1.0 and state.sdevs[2] == 1.0
    state.check()
