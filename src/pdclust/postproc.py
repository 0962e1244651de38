"""Partition post-processing: similarity, selection, heterogeneity, summaries."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .schema import CONTINUOUS, Dataset, Schema

logger = logging.getLogger(__name__)


#: Stored partitions scored per indicator matrix, and rows per product stripe
#: added into the similarity accumulator.
_BLOCK = 64
_STRIPE = 128

#: Number format of the summary table's entries.
SUMMARY_FORMAT = "%.6g"


def _indicator_blocks(partitions):
    """Cluster-indicator matrices of the stored partitions, about 64 at a time.

    Yields ``(rows, Z, owner)`` where ``rows`` is the slice of partitions in
    the block, ``Z`` an (n, c) float64 0/1 matrix with one column per cluster
    of each of them (ordered by partition, then label) and ``owner[c]`` the
    block-local row of column ``c``. Labels are any integers; each row is
    coded on its own.
    """
    n = partitions.shape[1]
    for start in range(0, partitions.shape[0], _BLOCK):
        block = partitions[start:start + _BLOCK].astype(np.int64)
        labels = block - block.min(axis=1, keepdims=True)
        if labels.max() >= n:  # sparse labels: rank them within the block first
            labels = np.unique(block, return_inverse=True)[1].reshape(block.shape)
        span = int(labels.max()) + 1
        keys = labels + span * np.arange(len(block))[:, None]
        present = np.zeros(len(block) * span, dtype=bool)
        present[keys] = True
        column = np.cumsum(present) - 1
        Z = np.zeros((n, int(present.sum())))
        Z[np.arange(n), column[keys]] = 1.0
        yield slice(start, start + len(block)), Z, np.flatnonzero(present) // span


def similarity(partitions) -> np.ndarray:
    """Average co-clustering frequency over stored partitions.

    Adds the exact integer co-clustering counts ``Z Z^T`` of each block into
    one n x n accumulator, a stripe of rows at a time and only on and above
    the diagonal, then mirrors the lower triangle and divides by the number
    of partitions.
    """
    partitions = np.asarray(partitions)
    if partitions.ndim != 2 or partitions.shape[0] < 1:
        raise ValueError("need at least one partition of equal length")
    n = partitions.shape[1]
    acc = np.zeros((n, n))
    for _, Z, _ in _indicator_blocks(partitions):
        for i in range(0, n, _STRIPE):
            acc[i:i + _STRIPE, i:] += Z[i:i + _STRIPE] @ Z[i:].T
    for i in range(_STRIPE, n, _STRIPE):
        acc[i:i + _STRIPE, :i] = acc[:i, i:i + _STRIPE].T
    acc /= partitions.shape[0]
    return acc


def dahl_select(partitions, sim: np.ndarray) -> tuple[np.ndarray, float]:
    """Stored partition whose adjacency is closest to the average similarity.

    ``sim`` must be ``similarity(partitions)``. Returns
    ``(labels, squared distance)``; ties break to the earliest iteration.
    The result is always one of the stored partitions.

    With ``C = T * sim`` the integer co-clustering counts over the T stored
    partitions, the squared distance of partition t is ``D_t / T + sum(sim**2)``
    where ``D_t = T sum_k n_k**2 - 2 sum_k 1_k' C 1_k`` is an exact integer:
    the row sums of ``C`` over each cluster are rounded from ``T * sim @ Z``,
    whose rounding error is far below 1/2 while ``n**2 T`` stays below 1e15.
    Comparing the exact ``D_t`` makes ties exact.
    """
    partitions = np.asarray(partitions)
    if partitions.shape[1] != sim.shape[0]:
        raise ValueError("partition length does not match similarity matrix")
    T, n = partitions.shape
    dist = np.empty(T)
    for rows, Z, owner in _indicator_blocks(partitions):
        within = np.zeros(Z.shape[1])
        for i in range(0, n, _STRIPE):
            j = i + _STRIPE
            # record pairs inside the diagonal block count once; those right
            # of it also stand for their mirror images below the diagonal
            for cols, factor in ((slice(i, j), 1.0), (slice(j, n), 2.0)):
                counts = sim[i:j, cols] @ Z[cols]
                counts *= T
                np.rint(counts, out=counts)
                within += factor * np.einsum("ic,ic->c", counts, Z[i:j])
        sizes = Z.sum(axis=0)
        dist[rows] = np.bincount(owner, T * sizes * sizes - 2.0 * within)
    best = int(np.argmin(dist))
    return partitions[best].copy(), float(dist[best] / T + np.vdot(sim, sim))


def _hm_scores(partitions, expanded, weights) -> np.ndarray:
    """Heterogeneity measure of every stored partition (see :func:`hm_measure`).

    Per block, the weight-normalised indicator ``Zw`` (entry ``w_i / W_k``
    for member i of cluster k) gives the within-cluster weighted moments
    ``Zw^T X`` and ``Zw^T X**2`` of all clusters at once.
    """
    expanded = np.asarray(expanded, dtype=float)
    weights = np.asarray(weights, dtype=float)
    squared = expanded * expanded
    scores = np.empty(partitions.shape[0])
    for rows, Z, owner in _indicator_blocks(partitions):
        sizes = Z.sum(axis=0)
        Z *= weights[:, None]  # Z becomes Zw in place
        Z /= Z.sum(axis=0)
        m1 = Z.T @ expanded
        m2 = Z.T @ squared
        per_cluster = sizes * (m2 - m1 * m1).sum(axis=1)
        scores[rows] = np.bincount(owner, per_cluster)
    return scores


def min_hm_select(partitions, expanded, weights) -> tuple[np.ndarray, float]:
    """Stored partition with the smallest heterogeneity measure.

    Ties break to the earliest iteration.
    """
    partitions = np.asarray(partitions)
    scores = _hm_scores(partitions, expanded, weights)
    best = int(np.argmin(scores))
    return partitions[best].copy(), float(scores[best])


def expand_variables(dataset: Dataset, schema: Schema) -> np.ndarray:
    """Scale-free design matrix used by the heterogeneity measure.

    Numeric columns are standardized (unweighted, population variance),
    two-level categorical columns pass through, and categorical variables
    with more than two levels expand to one indicator column per level.
    Columns follow the input variable order.
    """
    cols = []
    for k in schema.input_order():
        v = schema.variables[k]
        y = dataset.values[:, schema.input_index[k]]
        if v.kind == CONTINUOUS:
            sd = y.std()
            if sd == 0.0:
                logger.warning("constant column %s contributes zeros", v.name)
                cols.append(np.zeros_like(y))
            else:
                cols.append((y - y.mean()) / sd)
        elif v.n_levels == 2:
            cols.append(y.astype(float))
        else:
            codes = y.astype(int)
            block = np.zeros((dataset.n, v.n_levels))
            block[np.arange(dataset.n), codes] = 1.0
            cols.extend(block.T)
    return np.column_stack(cols)


def hm_measure(partition, expanded, weights) -> float:
    """Total weighted within-cluster variance over the expanded columns.

    ``HM = sum_k n_k sum_j S2_kj`` where ``S2_kj`` is the weighted variance
    of column ``j`` inside cluster ``k`` (weights renormalized within the
    cluster). All-singleton partitions give exactly zero.
    """
    return float(_hm_scores(np.asarray(partition)[None, :], expanded, weights)[0])


@dataclass
class ClusterSummary:
    """Per-cluster weighted summary table in the input variable order.

    One row per cluster (largest weighted share first) followed by a
    population row. Non-nominal variables report weighted means; nominal
    variables report weighted category shares; the final column is the
    weighted group share in percent (population row: total weight).
    """

    header: list[str]
    rows: np.ndarray
    cluster_ids: list[str]

    def to_lines(self) -> list[str]:
        out = [",".join(["group"] + self.header)]
        for cid, row in zip(self.cluster_ids, self.rows.tolist()):
            out.append(",".join([cid] + [SUMMARY_FORMAT % x for x in row]))
        return out


def cluster_summary(partition, dataset: Dataset, schema: Schema) -> ClusterSummary:
    """Weighted per-cluster means, nominal shares, and size shares."""
    partition = np.asarray(partition)
    w = dataset.weights
    header: list[str] = []
    for k in schema.input_order():
        v = schema.variables[k]
        if v.kind != "nominal":
            header.append(v.name)
        else:
            header.extend(f"{v.name}:{lab}" for lab in v.levels)
    header.append("size_pct")

    labels = np.unique(partition)
    shares = np.array([w[partition == lbl].sum() for lbl in labels])
    order = np.argsort(-shares, kind="stable")

    def stats_for(mask, size_value):
        ww = w[mask] / w[mask].sum()
        row = []
        for k in schema.input_order():
            v = schema.variables[k]
            y = dataset.values[mask, schema.input_index[k]]
            if v.kind != "nominal":
                row.append(float(ww @ y))
            else:
                codes = y.astype(int)
                for lvl in range(v.n_levels):
                    row.append(float(ww[codes == lvl].sum()))
        row.append(size_value)
        return row

    total_w = w.sum()
    rows = [
        stats_for(partition == labels[j], 100.0 * shares[j] / total_w)
        for j in order
    ]
    rows.append(stats_for(np.ones(dataset.n, dtype=bool), float(total_w)))
    ids = [str(rank + 1) for rank in range(len(order))] + ["pop"]
    return ClusterSummary(header=header, rows=np.array(rows), cluster_ids=ids)
