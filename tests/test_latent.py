import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from pdclust import (Dataset, PriorConstants, TransformSpec, build_schema, continuous_spec,
                     nominal_spec, ordinal_spec)
from pdclust.covariance import CovarianceState
from pdclust.latent import (conditional_moments, decode_levels, decode_ordinal, initial_latents,
                            resample_latents, sample_truncated_normal_many)
from pdclust.sampler import MixtureState

#: Inverse-gamma(2, 2) on the free variances.
PRIOR_2_2 = PriorConstants(var_prior_shape=2.0, var_prior_scale=2.0)


class TestTransforms:
    def test_identity(self):
        column = np.array([3.2, -1.0, 0.0])
        mapped = TransformSpec().apply(column)
        assert mapped.dtype == float and np.array_equal(mapped, column)
        assert not TransformSpec().unmapped(column).any()

    def test_log_shift_at_zero(self):
        # the shift of a constant column is its value, so 0.5 + 0.5 maps to log 1
        assert np.array_equal(TransformSpec(kind="log-shift").apply(np.full(3, 0.5)),
                              np.zeros(3))

    def test_log_shift_fit_preserves_ranks(self):
        rng = np.random.default_rng(0)
        income = rng.lognormal(8.0, 1.2, size=500)
        transformed = TransformSpec(kind="log-shift", shift_quantile=0.01).apply(income)
        assert np.array_equal(np.argsort(income), np.argsort(transformed))

    def test_log_shift_rejects_nonpositive(self):
        # the 1 % quantile of this column is -0.82, so only -1 maps to a nonpositive value
        column = np.array([-1.0, 5.0, 6.0, 7.0])
        spec = TransformSpec(kind="log-shift")
        assert spec.unmapped(column).tolist() == [True, False, False, False]
        with pytest.raises(ValueError):
            spec.apply(column)

    def test_bad_quantile(self):
        with pytest.raises(ValueError):
            TransformSpec(kind="log-shift", shift_quantile=1.5)

    def test_log_shift_shifts_by_the_columns_quantile(self):
        column = np.arange(1.0, 9.0)
        spec = TransformSpec(kind="log-shift", shift_quantile=0.25)
        shift = np.quantile(column, 0.25)
        assert spec.shift(column) == shift
        assert np.array_equal(spec.apply(column), np.log(column + shift))

    def test_initial_latents_transform_each_column(self):
        schema = build_schema(
            [continuous_spec("inc", TransformSpec(kind="log-shift", shift_quantile=0.25)),
             continuous_spec("y")]
        )
        values = np.column_stack([np.arange(1.0, 9.0), np.linspace(-1.0, 1.0, 8)])
        latents = initial_latents(Dataset.from_values(values), schema)
        assert np.array_equal(latents.z[:, 0],
                              np.log(values[:, 0] + np.quantile(values[:, 0], 0.25)))
        assert np.array_equal(latents.z[:, 1], values[:, 1])
        latents.check_consistent()


def decode_nominal_row(row):
    """The category of one record of a nominal variable whose latent block is ``row``."""
    schema = build_schema([nominal_spec("y", len(row) + 1)])
    return decode_levels(np.array([row]), schema, 0).tolist()


class TestDecode:
    def test_ordinal_examples(self):
        assert decode_ordinal(np.array([2.0]), [-np.inf, 0, 4, np.inf]).tolist() == [1]
        assert decode_ordinal(np.array([-0.3]), [-np.inf, 0, np.inf]).tolist() == [0]

    def test_ordinal_boundary_is_right_closed(self):
        assert decode_ordinal(np.array([0.0]), [-np.inf, 0, np.inf]).tolist() == [0]
        assert decode_ordinal(np.array([4.0]), [-np.inf, 0, 4, np.inf]).tolist() == [1]

    def test_nominal_examples(self):
        assert decode_nominal_row([-1.0, -2.0, -0.5]) == [3]
        assert decode_nominal_row([0.5, -1.0]) == [0]
        assert decode_nominal_row([0.2, 0.9, 0.1]) == [1]

    def test_nominal_tie_breaks_to_lowest_index(self):
        assert decode_nominal_row([0.7, 0.7]) == [0]


class TestConditionalMoments:
    def test_identity_covariance(self):
        sigma = np.eye(3)
        nu, v = conditional_moments(np.linalg.inv(sigma), np.array([1.0, 2.0, 3.0]),
                                    np.array([9.0, 9.0, 9.0]), 1, 1.0)
        assert nu == 2.0 and v == 1.0

    def test_bivariate_closed_form(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        nu, v = conditional_moments(np.linalg.inv(sigma), np.array([0.0, 0.0]),
                                    np.array([123.0, 1.0]), 0, 1.0)
        assert np.isclose(nu, 0.5) and np.isclose(v, 0.75)

    def test_scale_multiplies_variance_not_mean(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        prec, mu, z = np.linalg.inv(sigma), np.array([0.0, 1.0]), np.array([0.0, 2.0])
        nu1, v1 = conditional_moments(prec, mu, z, 0, 1.0)
        nu2, v2 = conditional_moments(prec, mu, z, 0, 2.5)
        assert nu1 == nu2 and np.isclose(v2, 2.5 * v1)

    @pytest.mark.parametrize("trial", range(5))
    def test_against_grid_normalization(self, trial):
        # independent oracle: normalize the joint density along one axis
        rng = np.random.default_rng(100 + trial)
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T + 3.0 * np.eye(3)
        mu = rng.standard_normal(3)
        z = mu + rng.standard_normal(3) * np.sqrt(np.diag(sigma)) * 0.5
        coord = trial % 3
        scale = 0.7

        prec = np.linalg.inv(scale * sigma)
        marg_sd = np.sqrt(scale * sigma[coord, coord])
        grid = np.linspace(mu[coord] - 12 * marg_sd, mu[coord] + 12 * marg_sd, 2 ** 15 + 1)
        dens = np.empty_like(grid)
        x = z.copy()
        for i, t in enumerate(grid):
            x[coord] = t
            d = x - mu
            dens[i] = np.exp(-0.5 * d @ prec @ d)
        w = dens / np.trapezoid(dens, grid)
        mean = np.trapezoid(w * grid, grid)
        var = np.trapezoid(w * (grid - mean) ** 2, grid)

        nu, v = conditional_moments(np.linalg.inv(sigma), mu, z, coord, scale)
        assert abs(nu - mean) < 1e-6 * max(1.0, abs(mean))
        assert abs(v - var) < 1e-6 * max(1.0, var)


class TestTruncatedNormal:
    def test_half_normal_mean(self):
        rng = np.random.default_rng(1)
        draws = sample_truncated_normal_many(
            np.zeros(100_000), np.ones(100_000),
            np.full(100_000, -np.inf), np.zeros(100_000), rng)
        assert np.all(draws <= 0)
        assert abs(draws.mean() + np.sqrt(2 / np.pi)) < 0.01

    def test_untruncated_matches_normal(self):
        rng = np.random.default_rng(2)
        draws = sample_truncated_normal_many(
            np.full(100_000, 1.5), np.full(100_000, 4.0),
            np.full(100_000, -np.inf), np.full(100_000, np.inf), rng)
        assert abs(draws.mean() - 1.5) < 0.03
        assert abs(draws.var() - 4.0) < 0.1

    def test_far_tail_is_stable(self):
        rng = np.random.default_rng(3)
        draws = sample_truncated_normal_many(
            np.zeros(20_000), np.ones(20_000), np.full(20_000, 4.0),
            np.full(20_000, np.inf), rng)
        assert np.all(draws > 4.0)
        expected = stats.norm.pdf(4.0) / stats.norm.sf(4.0)
        assert abs(draws.mean() - expected) < 0.01

    def test_two_sided_tail_region(self):
        rng = np.random.default_rng(4)
        draws = sample_truncated_normal_many(
            np.zeros(20_000), np.ones(20_000), np.full(20_000, 4.0),
            np.full(20_000, 8.0), rng)
        assert np.all((draws > 4.0) & (draws <= 8.0))

    @pytest.mark.parametrize("case", range(10))
    def test_ks_against_closed_form_cdf(self, case):
        rng = np.random.default_rng(50 + case)
        mean = rng.uniform(-3, 3)
        sd = rng.uniform(0.3, 3.0)
        lo = rng.uniform(-6, 2)
        hi = lo + rng.uniform(0.5, 6.0)
        draws = sample_truncated_normal_many(
            np.full(10_000, mean), np.full(10_000, sd ** 2),
            np.full(10_000, lo), np.full(10_000, hi),
            np.random.default_rng(1000 + case))
        a, b = (lo - mean) / sd, (hi - mean) / sd
        fa, fb = ndtr(a), ndtr(b)

        def cdf(x):
            return (ndtr((x - mean) / sd) - fa) / (fb - fa)

        p = stats.kstest(draws, cdf).pvalue
        assert p > 0.01

    def test_zero_mass_region_clamps_with_warning(self, caplog):
        rng = np.random.default_rng(5)
        with caplog.at_level("WARNING"):
            (x,) = sample_truncated_normal_many([0.0], [1.0], [60.0], [61.0], rng)
        assert 60.0 < x < 61.0
        assert "zero mass" in caplog.text


def binary_state(n=40, seed=0):
    schema = build_schema([ordinal_spec("b", 2)])
    rng = np.random.default_rng(seed)
    ds = Dataset.from_values(rng.integers(0, 2, size=(n, 1)).astype(float))
    return schema, ds, rng


class TestResampleLatents:
    def test_continuous_only_unchanged(self):
        schema = build_schema([continuous_spec("a"), continuous_spec("b")])
        rng = np.random.default_rng(0)
        ds = Dataset.from_values(rng.standard_normal((30, 2)))
        state = initial_latents(ds, schema)
        before = state.z.copy()
        mixture = MixtureState(np.arange(ds.n), state.z.copy(), np.ones(ds.n, dtype=np.int64))
        cov = CovarianceState(np.ones(schema.q), np.eye(schema.q), schema.free_mask(),
                              priors=PRIOR_2_2)
        resample_latents(state, mixture, cov, 1.0, np.ones(30), rng)
        assert np.array_equal(state.z, before)

    def test_binary_level_one_gives_positive_latents(self):
        schema, ds, rng = binary_state()
        state = initial_latents(ds, schema)
        mixture = MixtureState(np.arange(ds.n), np.zeros_like(state.z),
                               np.ones(ds.n, dtype=np.int64))
        cov = CovarianceState(np.ones(schema.q), np.eye(schema.q), schema.free_mask(),
                              priors=PRIOR_2_2)
        for _ in range(3):
            resample_latents(state, mixture, cov, 1.0, np.ones(ds.n), rng)
        ones = ds.values[:, 0] == 1.0
        assert np.all(state.z[ones, 0] > 0)
        assert np.all(state.z[~ones, 0] <= 0)

    def test_decode_consistency_over_sweeps(self):
        specs = [continuous_spec("c"), ordinal_spec("o", 4), nominal_spec("m", 4),
                 ordinal_spec("b", 2)]
        schema = build_schema(specs)
        rng = np.random.default_rng(7)
        n = 60
        values = np.column_stack([
            rng.standard_normal(n),
            rng.integers(0, 4, n),
            rng.integers(0, 4, n),
            rng.integers(0, 2, n),
        ]).astype(float)
        ds = Dataset.from_values(values)
        state = initial_latents(ds, schema)
        state.check_consistent()
        mixture = MixtureState(np.arange(n), state.z * 0.5, np.ones(n, dtype=np.int64))
        cov = CovarianceState(np.ones(schema.q), np.eye(schema.q), schema.free_mask(),
                              priors=PRIOR_2_2)
        pis = rng.uniform(0.5, 1.0, n)
        for _ in range(10):
            resample_latents(state, mixture, cov, 1.3, pis, rng)
            state.check_consistent()

    def test_nominal_block_coherence(self):
        # when the observed category is not the last, exactly one coordinate
        # may exceed max(others, 0)
        schema = build_schema([nominal_spec("m", 5)])
        rng = np.random.default_rng(9)
        n = 50
        ds = Dataset.from_values(rng.integers(0, 5, (n, 1)).astype(float))
        state = initial_latents(ds, schema)
        mixture = MixtureState(np.arange(n), np.zeros_like(state.z), np.ones(n, dtype=np.int64))
        cov = CovarianceState(np.ones(schema.q), np.eye(schema.q), schema.free_mask(),
                              priors=PRIOR_2_2)
        for _ in range(5):
            resample_latents(state, mixture, cov, 1.0, np.ones(n), rng)
        for i in range(n):
            block = state.z[i]
            exceed = sum(
                block[l] > max(np.delete(block, l).max(initial=0.0), 0.0)
                for l in range(len(block))
            )
            assert exceed <= 1


def test_initial_latents_satisfy_constraints():
    specs = [ordinal_spec("o", 5), nominal_spec("m", 3)]
    schema = build_schema(specs)
    values = np.array([[0, 0], [2, 1], [4, 2], [1, 2]], dtype=float)
    state = initial_latents(Dataset.from_values(values), schema)
    state.check_consistent()
