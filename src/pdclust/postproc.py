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

#: float32 holds every integer up to 2**24 exactly, so a float32 product of
#: nonnegative integers is exact while its full sum stays within this.
_F32_EXACT = 2**24

#: Number format of the summary table's entries.
SUMMARY_FORMAT = "%.6g"


def _indicator_blocks(partitions):
    """Cluster-indicator matrices of the stored partitions, about 64 at a time.

    Yields ``(rows, Zt, owner, member)`` where ``rows`` is the slice of
    partitions in the block, ``Zt`` a (c, n) float32 0/1 matrix with one row
    per cluster of each of them (ordered by partition, then label),
    ``owner[c]`` the block-local row of cluster ``c`` and ``member[t, i]``
    the row of ``Zt`` that holds record i's cluster in the block's
    partition t. Labels are any integers; each row is coded on its own.
    Sums of products of ``Zt`` with integers stay exact in float32 while
    they stay within ``_F32_EXACT`` (2**24): a column of ``Zt`` has one 1
    per partition of the block, so ``Zt.T @ Zt`` counts at most 64.
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
        member = (np.cumsum(present) - 1)[keys]
        Zt = np.zeros((int(present.sum()), n), dtype=np.float32)
        Zt[member, np.arange(n)] = 1.0
        yield slice(start, start + len(block)), Zt, np.flatnonzero(present) // span, member


def similarity(partitions) -> np.ndarray:
    """Average co-clustering frequency over stored partitions.

    Adds the integer co-clustering counts ``Z Z^T`` of each block into one
    n x n float64 accumulator, a stripe of rows at a time and only on and
    above the diagonal, then mirrors the lower triangle and divides by the
    number of partitions. A block's counts are at most 64, so its float32
    products are exact and the result is the mean of the adjacency matrices.
    """
    partitions = np.asarray(partitions)
    if partitions.ndim != 2 or partitions.shape[0] < 1:
        raise ValueError("need at least one partition of equal length")
    n = partitions.shape[1]
    acc = np.zeros((n, n))
    for _, Zt, _, _ in _indicator_blocks(partitions):
        for i in range(0, n, _STRIPE):
            acc[i:i + _STRIPE, i:] += Zt[:, i:i + _STRIPE].T @ Zt[:, i:]
    for i in range(_STRIPE, n, _STRIPE):
        acc[i:i + _STRIPE, :i] = acc[:i, i:i + _STRIPE].T
    acc /= partitions.shape[0]
    return acc


def dahl_select(partitions, sim: np.ndarray) -> tuple[np.ndarray, float]:
    """Stored partition whose adjacency is closest to the average similarity.

    ``sim`` must be ``similarity(partitions)``. Returns
    ``(labels, squared distance)``; ties break to the earliest iteration.
    The result is always one of the stored partitions.

    With ``C = rint(T * sim)`` the integer co-clustering counts over the T
    stored partitions, the squared distance of partition t is
    ``D_t / T + sum(sim**2)`` where ``D_t = T sum_k n_k**2 - 2 sum_k 1_k' C 1_k``
    is an exact integer. ``C`` is held in float32 and multiplied by the
    indicators over at most ``2**24 // T`` records at a time, so each count
    is at most T and every partial sum of a product at most 2**24, which
    float32 holds exactly. Of a product's row for cluster k, only the
    entries of k's own records enter ``1_k' C 1_k``, so each record's own
    entry is gathered and summed in float64, exact while ``n**2 T`` stays
    below 2**53. Comparing the exact ``D_t`` makes ties exact. Raises
    ``ValueError`` for T above 2**24.
    """
    partitions = np.asarray(partitions)
    if partitions.shape[1] != sim.shape[0]:
        raise ValueError("partition length does not match similarity matrix")
    T, n = partitions.shape
    if T > _F32_EXACT:
        raise ValueError(f"dahl_select counts at most {_F32_EXACT} stored "
                         f"partitions exactly, got {T}")
    chunk = _F32_EXACT // T
    # C, computed in float64 a buffer at a time and stored as float32
    counts = np.multiply(sim, T, out=np.empty(sim.shape, dtype=np.float32))
    np.rint(counts, out=counts)
    dist = np.empty(T)
    for rows, Zt, owner, member in _indicator_blocks(partitions):
        within = np.zeros(len(member))
        for i in range(0, n, _STRIPE):
            j = min(i + _STRIPE, n)
            # flat index of each record's own cluster row in a (c, j - i) product
            own = member[:, i:j] * (j - i) + np.arange(j - i)
            # record pairs inside the diagonal block count once; those below
            # it also stand for their mirror images above the diagonal
            for lo, hi, factor in ((i, j, 1.0), (j, n, 2.0)):
                for a in range(lo, hi, chunk):
                    b = min(a + chunk, hi)
                    part = Zt[:, a:b] @ counts[a:b, i:j]
                    within += factor * part.take(own).sum(axis=1, dtype=np.float64)
        sizes = Zt.sum(axis=1, dtype=np.float64)
        dist[rows] = np.bincount(owner, T * sizes * sizes) - 2.0 * within
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
    for rows, Zt, owner, _ in _indicator_blocks(partitions):
        Z = np.ascontiguousarray(Zt.T, dtype=np.float64)
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
