import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdclust import (Dataset, build_schema, cluster_summary, continuous_spec,
                     dahl_select, expand_variables, hm_measure, min_hm_select,
                     nominal_spec, ordinal_spec, similarity)
from pdclust import postproc


def adjacency(labels):
    """Reference co-membership matrix of one partition."""
    labels = np.asarray(labels)
    return labels[:, None] == labels[None, :]


def hm_double_loop(partition, expanded, weights):
    """Independent reference implementation: explicit double loop."""
    total = 0.0
    for lbl in set(partition.tolist()):
        idx = [i for i in range(len(partition)) if partition[i] == lbl]
        wsum = sum(weights[i] for i in idx)
        for j in range(expanded.shape[1]):
            m1 = sum(weights[i] / wsum * expanded[i, j] for i in idx)
            m2 = sum(weights[i] / wsum * expanded[i, j] ** 2 for i in idx)
            total += len(idx) * (m2 - m1 * m1)
    return total


class TestSimilarity:
    def test_identical_partitions_give_adjacency(self):
        parts = np.tile([0, 0, 1, 1], (5, 1))
        sim = similarity(parts)
        assert np.array_equal(sim, adjacency([0, 0, 1, 1]).astype(float))

    def test_half_and_half(self):
        parts = np.array([[0, 0, 0], [0, 1, 2]])
        sim = similarity(parts)
        off = sim[~np.eye(3, dtype=bool)]
        assert np.all(off == 0.5)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(0)
        parts = rng.integers(0, 4, size=(20, 15))
        sim = similarity(parts)
        assert np.array_equal(sim, sim.T)
        assert np.all(np.diag(sim) == 1.0)
        assert np.all((sim >= 0) & (sim <= 1))

    def test_duplicate_partition_moves_toward_its_adjacency(self):
        rng = np.random.default_rng(1)
        parts = rng.integers(0, 3, size=(6, 10))
        sim0 = similarity(parts)
        target = adjacency(parts[2]).astype(float)
        sim1 = similarity(np.vstack([parts, parts[2]]))
        assert np.all((target - sim1) * (target - sim0) >= 0)
        assert np.all(np.abs(target - sim1) <= np.abs(target - sim0) + 1e-15)

    @pytest.mark.parametrize("kept, n, labels", [
        (67, 13, range(4)),
        (70, 300, range(6)),
        (1, 13, range(4)),
        (67, 13, [-7, -1, 3, 40]),
        (5, 6, [-10**12, 0, 10**12]),
    ])
    def test_equals_mean_of_adjacency_matrices(self, kept, n, labels):
        rng = np.random.default_rng(kept + n)
        parts = rng.choice(np.array(list(labels)), size=(kept, n))
        mean = sum(adjacency(p).astype(float) for p in parts) / kept
        assert np.array_equal(similarity(parts), mean)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            similarity(np.empty((0, 4), dtype=int))


class TestDahlSelect:
    def test_identical_partitions_distance_zero(self):
        parts = np.tile([0, 1, 1, 2], (4, 1))
        chosen, dist = dahl_select(parts, similarity(parts))
        assert np.array_equal(chosen, [0, 1, 1, 2])
        assert dist == 0.0

    def test_brute_force_argmin_three_candidates(self):
        parts = np.array([[0, 0, 1, 1], [0, 1, 2, 3], [0, 0, 0, 0]])
        sim = similarity(parts)
        dists = [((adjacency(p) - sim) ** 2).sum() for p in parts]
        chosen, dist = dahl_select(parts, sim)
        assert np.array_equal(chosen, parts[int(np.argmin(dists))])
        assert np.isclose(dist, min(dists))

    def test_selected_distance_is_minimal(self):
        rng = np.random.default_rng(2)
        parts = rng.integers(0, 3, size=(10, 8))
        sim = similarity(parts)
        _, dist = dahl_select(parts, sim)
        for p in parts:
            assert dist <= ((adjacency(p) - sim) ** 2).sum() + 1e-12

    def test_tie_breaks_to_earliest(self):
        parts = np.array([[0, 0, 1], [0, 0, 1]])
        chosen, _ = dahl_select(parts, similarity(parts))
        assert np.array_equal(chosen, parts[0])

    @pytest.mark.parametrize("parts", [[[0, 0, 1], [0, 1, 1]],
                                       [[0, 1, 1], [0, 0, 1]]])
    def test_tie_between_distinct_partitions_breaks_to_earliest(self, parts):
        parts = np.array(parts)
        sim = similarity(parts)
        dists = [((adjacency(p) - sim) ** 2).sum() for p in parts]
        assert dists[0] == dists[1]
        chosen, _ = dahl_select(parts, sim)
        assert np.array_equal(chosen, parts[0])

    @pytest.mark.parametrize("kept, n", [(67, 13), (1, 9), (150, 300)])
    def test_matches_exact_brute_force(self, kept, n):
        rng = np.random.default_rng(kept * n)
        parts = rng.integers(0, 3, size=(kept, n)) * 5 - 4
        counts = sum(adjacency(p).astype(np.int64) for p in parts)
        # kept**2 times the squared distance, in exact integer arithmetic
        scaled = [int(((kept * adjacency(p) - counts) ** 2).sum()) for p in parts]
        sim = similarity(parts)
        chosen, dist = dahl_select(parts, sim)
        best = int(np.argmin(scaled))
        assert np.array_equal(chosen, parts[best])
        assert abs(dist - ((adjacency(parts[best]) - sim) ** 2).sum()) < 1e-9

    @pytest.mark.parametrize("kept, n", [(9, 13), (9, 300)])
    def test_chunked_products_match_exact_brute_force(self, monkeypatch, kept, n):
        # 2**6 // 9 = 7 records per float32 product, so the diagonal block
        # and every stripe below it split into several chunks
        monkeypatch.setattr(postproc, "_F32_EXACT", 2**6)
        self.test_matches_exact_brute_force(kept, n)

    def test_rejects_more_partitions_than_float32_counts_exactly(self, monkeypatch):
        monkeypatch.setattr(postproc, "_F32_EXACT", 2**6)
        parts = np.zeros((65, 5), dtype=int)
        with pytest.raises(ValueError, match="at most 64 stored partitions"):
            dahl_select(parts, similarity(parts))

    def test_result_is_member_of_stored_set(self):
        rng = np.random.default_rng(3)
        parts = rng.integers(0, 4, size=(12, 9))
        chosen, _ = dahl_select(parts, similarity(parts))
        assert any(np.array_equal(chosen, p) for p in parts)


class TestExpandVariables:
    def test_binary_passthrough(self):
        schema = build_schema([ordinal_spec("b", 2)])
        ds = Dataset.from_values([[0.0], [1.0], [1.0]])
        out = expand_variables(ds, schema)
        assert out.shape == (3, 1)
        assert np.array_equal(out[:, 0], [0, 1, 1])

    def test_nominal_indicators_sum_to_one(self):
        schema = build_schema([nominal_spec("m", 4)])
        ds = Dataset.from_values(np.array([[0], [3], [2], [1], [3]], dtype=float))
        out = expand_variables(ds, schema)
        assert out.shape == (5, 4)
        assert np.all(out.sum(axis=1) == 1.0)
        assert np.array_equal(out[1], [0, 0, 0, 1])

    def test_multilevel_ordinal_expands_to_indicators(self):
        schema = build_schema([ordinal_spec("o", 3)])
        ds = Dataset.from_values(np.array([[0], [1], [2]], dtype=float))
        assert expand_variables(ds, schema).shape == (3, 3)

    def test_continuous_standardized(self):
        schema = build_schema([continuous_spec("y")])
        ds = Dataset.from_values(np.arange(10.0)[:, None])
        out = expand_variables(ds, schema)
        assert abs(out[:, 0].mean()) < 1e-12
        assert abs(out[:, 0].var() - 1.0) < 1e-12

    def test_constant_column_becomes_zeros(self, caplog):
        schema = build_schema([continuous_spec("y")])
        ds = Dataset.from_values(np.full((4, 1), 2.5))
        with caplog.at_level("WARNING"):
            out = expand_variables(ds, schema)
        assert np.all(out == 0.0)
        assert "constant column" in caplog.text

    def test_column_order_follows_input(self):
        schema = build_schema([nominal_spec("m", 3), continuous_spec("c")])
        ds = Dataset.from_values(np.array([[0, 7.0], [2, 9.0]]))
        out = expand_variables(ds, schema)
        # nominal first (3 indicator columns), then the standardized continuous
        assert out.shape == (2, 4)
        assert np.array_equal(out[0, :3], [1, 0, 0])


class TestHmMeasure:
    def test_singletons_give_zero(self):
        rng = np.random.default_rng(4)
        expanded = rng.standard_normal((6, 3))
        hm = hm_measure(np.arange(6), expanded, rng.uniform(0.5, 2.0, 6))
        assert hm == 0.0

    def test_constant_column_contributes_zero(self):
        expanded = np.ones((5, 1))
        assert abs(hm_measure(np.zeros(5, dtype=int), expanded, np.ones(5))) < 1e-15

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        expanded = rng.standard_normal((4, 3))
        weights = rng.uniform(0.5, 3.0, 4)
        partition = np.array([0, 0, 1, 1])
        assert abs(hm_measure(partition, expanded, weights)
                   - hm_double_loop(partition, expanded, weights)) < 1e-12

    def test_min_hm_select_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        n = 11
        expanded = rng.standard_normal((n, 3))
        weights = rng.uniform(0.5, 3.0, n)
        parts = rng.choice([-3, 2, 9, 40], size=(70, n))
        slow = [hm_double_loop(p, expanded, weights) for p in parts]
        for p, ref in zip(parts, slow):
            assert abs(hm_measure(p, expanded, weights) - ref) < 1e-12
        chosen, best = min_hm_select(parts, expanded, weights)
        assert np.array_equal(chosen, parts[int(np.argmin(slow))])
        assert abs(best - min(slow)) < 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_invariance_to_relabeling_and_row_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        expanded = rng.standard_normal((n, 2))
        weights = rng.uniform(0.2, 2.0, n)
        partition = rng.integers(0, 3, n)
        base = hm_measure(partition, expanded, weights)
        # relabel clusters
        perm_labels = (partition + 1) % 3
        assert np.isclose(hm_measure(perm_labels, expanded, weights), base)
        # permute rows together with weights
        order = rng.permutation(n)
        assert np.isclose(
            hm_measure(partition[order], expanded[order], weights[order]), base)

    def test_min_hm_never_exceeds_dahl_hm(self):
        rng = np.random.default_rng(6)
        parts = rng.integers(0, 3, size=(8, 10))
        expanded = rng.standard_normal((10, 2))
        weights = rng.uniform(0.5, 2.0, 10)
        dahl_part, _ = dahl_select(parts, similarity(parts))
        _, best_hm = min_hm_select(parts, expanded, weights)
        assert best_hm <= hm_measure(dahl_part, expanded, weights) + 1e-12


class TestClusterSummary:
    def make_inputs(self):
        specs = [continuous_spec("inc"), ordinal_spec("b", 2), nominal_spec("m", 3)]
        schema = build_schema(specs)
        values = np.array([
            [10.0, 0, 0],
            [20.0, 1, 2],
            [30.0, 1, 1],
            [40.0, 0, 2],
        ])
        ds = Dataset(values=values, weights=[1.0, 1.0, 2.0, 4.0])
        return ds, schema

    def test_single_cluster_row_equals_population(self):
        ds, schema = self.make_inputs()
        summ = cluster_summary(np.zeros(4, dtype=int), ds, schema)
        assert np.allclose(summ.rows[0][:-1], summ.rows[-1][:-1])

    def test_size_shares_sum_to_100(self):
        ds, schema = self.make_inputs()
        summ = cluster_summary(np.array([0, 1, 0, 2]), ds, schema)
        assert abs(sum(row[-1] for row in summ.rows[:-1]) - 100.0) < 1e-9

    def test_known_weighted_means_recovered(self):
        ds, schema = self.make_inputs()
        summ = cluster_summary(np.array([0, 0, 1, 1]), ds, schema)
        # sorted by weighted share: cluster {2,3} (w=6) first, then {0,1} (w=2)
        first, second = summ.rows[0], summ.rows[1]
        assert np.isclose(first[0], (2 * 30 + 4 * 40) / 6)   # income mean
        assert np.isclose(second[0], 15.0)
        assert np.isclose(first[1], 2 / 6)                   # binary share
        # nominal shares for categories 0..2
        assert np.allclose(first[2:5], [0.0, 2 / 6, 4 / 6])
        assert np.isclose(first[-1], 100.0 * 6 / 8)
        # population row carries the total weight
        assert summ.rows[-1][-1] == 8.0
        assert np.isclose(summ.rows[-1][0], (10 + 20 + 2 * 30 + 4 * 40) / 8)

    def test_header_matches_input_order(self):
        ds, schema = self.make_inputs()
        summ = cluster_summary(np.zeros(4, dtype=int), ds, schema)
        assert summ.header == ["inc", "b", "m:0", "m:1", "m:2", "size_pct"]
