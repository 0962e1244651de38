import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pdclust import PriorConstants
from pdclust.pdprocess import (BaseMeasure, PDHyper, eppf_log, update_base_scales,
                               update_discount, update_strength, urn_weights)


def ewens_log(strength, sizes):
    """Independent Ewens sampling formula (discount = 0)."""
    n = sum(sizes)
    r = len(sizes)
    out = (r - 1) * math.log(strength)
    out += math.lgamma(strength + 1) - math.lgamma(strength + n)
    out += sum(math.lgamma(m) for m in sizes)
    return out


class TestUrnWeights:
    def test_dirichlet_case(self):
        w = urn_weights(0.0, 1.0, [1], n=2)
        assert np.allclose(w, [0.5, 0.5])

    def test_discounted_case(self):
        w = urn_weights(0.5, 1.0, [2], n=3)
        assert np.allclose(w, [0.5, 0.5])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            urn_weights(0.0, 1.0, [2, 2], n=3)

    @given(
        st.floats(0.0, 0.95),
        st.floats(0.05, 5.0),
        st.lists(st.integers(1, 20), min_size=1, max_size=15),
    )
    @settings(max_examples=200, deadline=None)
    def test_weights_form_a_distribution(self, discount, extra, sizes):
        n = sum(sizes) + 1
        w = urn_weights(discount, -discount + extra, sizes, n)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-12


def int_partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in int_partitions(n - first, first):
            yield (first,) + rest


class TestEppf:
    def test_single_cluster_closed_form(self):
        n, b = 7, 1.3
        expect = math.lgamma(b + 1) + math.lgamma(n) - math.lgamma(b + n)
        assert abs(eppf_log(0.0, b, [n]) - expect) < 1e-12

    def test_ewens_two_three(self):
        # b = 1, sizes (2, 3): 1 * Gamma(2)/Gamma(6) * Gamma(2)Gamma(3) = 1/60
        assert abs(eppf_log(0.0, 1.0, [2, 3]) - math.log(1 / 60)) < 1e-12

    def test_matches_ewens_for_all_partitions_up_to_8(self):
        for n in range(1, 9):
            for sizes in int_partitions(n):
                for b in (0.3, 1.0, 4.5):
                    assert abs(eppf_log(0.0, b, list(sizes)) - ewens_log(b, sizes)) < 1e-10

    @given(st.lists(st.integers(1, 9), min_size=2, max_size=8), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_exchangeable_in_cluster_sizes(self, sizes, pyrandom):
        shuffled = sizes[:]
        pyrandom.shuffle(shuffled)
        assert np.isclose(eppf_log(0.3, 0.7, sizes), eppf_log(0.3, 0.7, shuffled))

    def test_decreasing_in_strength_for_one_cluster(self):
        values = [eppf_log(0.0, b, [10]) for b in np.linspace(0.1, 8.0, 25)]
        assert np.all(np.diff(values) < 0)

    @pytest.mark.parametrize("discount, strength", [(0.0, 1.0), (0.0, 0.01), (0.0, 250.0),
                                                    (0.4, -0.3), (0.9, -0.85), (0.3, 7.5)])
    def test_one_record_partition_has_log_eppf_exactly_zero(self, discount, strength):
        assert eppf_log(discount, strength, [1]) == 0.0

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            eppf_log(1.2, 1.0, [2])
        with pytest.raises(ValueError):
            eppf_log(0.0, 1.0, [])
        with pytest.raises(ValueError):
            eppf_log(0.5, -0.7, [3])


class TestHyperUpdates:
    def test_degenerate_proposal_always_accepted(self):
        # proposing the current point must never move away from it
        hyper = PDHyper(0.0, 1.0)
        rng = np.random.default_rng(0)
        draws = {update_discount(hyper, [1], rng) for _ in range(200)}
        assert 0.0 in draws  # zero is re-proposed half the time and kept

    def test_domain_is_respected_over_many_updates(self):
        hyper = PDHyper(0.0, 1.0)
        rng = np.random.default_rng(1)
        sizes = np.array([3, 4, 5])
        for _ in range(100_000):
            hyper.discount = update_discount(hyper, sizes, rng)
            hyper.strength = update_strength(hyper, sizes, rng)
            assert 0.0 <= hyper.discount < 1.0
            assert hyper.strength > -hyper.discount

    def test_prior_recovery_point_mass(self):
        # a one-record partition's likelihood is 1, so cycling both updates
        # recovers P(discount = 0)
        hyper = PDHyper(0.0, 1.0, priors=PriorConstants(discount_zero_prob=0.35))
        rng = np.random.default_rng(2)
        hits = []
        for _ in range(30_000):
            hyper.discount = update_discount(hyper, [1], rng)
            hyper.strength = update_strength(hyper, [1], rng)
            hits.append(hyper.discount == 0.0)
        hits = np.asarray(hits[2000:], dtype=float)
        batches = hits[: len(hits) // 50 * 50].reshape(50, -1).mean(axis=1)
        se = batches.std(ddof=1) / np.sqrt(len(batches))
        assert abs(hits.mean() - 0.35) < 3 * max(se, 1e-3)

    def test_prior_recovery_strength_gamma(self):
        hyper = PDHyper(0.2, 1.0, priors=PriorConstants(strength_shape=1.5, strength_rate=0.8))
        rng = np.random.default_rng(3)
        trace = []
        for _ in range(60_000):
            hyper.discount = update_discount(hyper, [1], rng)
            hyper.strength = update_strength(hyper, [1], rng)
            trace.append(hyper.strength + hyper.discount)
        thinned = np.asarray(trace[2000::20])
        p = stats.kstest(thinned, stats.gamma(a=1.5, scale=1 / 0.8).cdf).pvalue
        assert p > 0.01

    def test_rejects_proposals_below_minus_discount(self):
        hyper = PDHyper(0.6, -0.5)
        rng = np.random.default_rng(4)
        for _ in range(2000):
            hyper.strength = update_strength(hyper, [2, 2], rng)
            assert hyper.strength > -0.6


class TestBaseScales:
    def test_zero_locations_posterior(self):
        base = BaseMeasure(np.ones(2), priors=PriorConstants(base_prior_shape=2.1,
                                                          base_prior_scale=30.0))
        rng = np.random.default_rng(0)
        draws = np.array([
            update_base_scales(base, np.zeros((2, 2)), rng) for _ in range(8000)
        ])
        # two clusters of zero locations: IGa(2.1 + 1, 30)
        dist = stats.invgamma(a=3.1, scale=30.0)
        assert stats.kstest(draws[:, 0], dist.cdf).pvalue > 0.01
        assert stats.kstest(draws[:, 1], dist.cdf).pvalue > 0.01

    def test_single_location_posterior(self):
        base = BaseMeasure(np.ones(1), priors=PriorConstants(base_prior_shape=1.0,
                                                          base_prior_scale=1.0))
        rng = np.random.default_rng(1)
        draws = np.array([
            update_base_scales(base, np.array([[2.0]]), rng)[0]
            for _ in range(8000)
        ])
        # r = 1, location 2: IGa(1.5, 1 + 2) = IGa(1.5, 3)
        assert stats.kstest(draws, stats.invgamma(a=1.5, scale=3.0).cdf).pvalue > 0.01

    def test_empty_locations_draw_from_prior(self):
        base = BaseMeasure(np.ones(3), priors=PriorConstants(base_prior_shape=2.0,
                                                          base_prior_scale=5.0))
        rng = np.random.default_rng(2)
        draws = np.array([
            update_base_scales(base, np.empty((0, 3)), rng) for _ in range(8000)
        ])
        assert stats.kstest(draws[:, 1], stats.invgamma(a=2.0, scale=5.0).cdf).pvalue > 0.01

    def test_dimension_mismatch(self):
        base = BaseMeasure(np.ones(2))
        with pytest.raises(ValueError):
            update_base_scales(base, np.ones((3, 3)), np.random.default_rng(0))


def test_hyper_validation():
    with pytest.raises(ValueError):
        PDHyper(discount=1.0, strength=1.0)
    with pytest.raises(ValueError):
        PDHyper(discount=0.2, strength=-0.2)
    with pytest.raises(ValueError):
        PriorConstants(strength_rate=-1.0)
