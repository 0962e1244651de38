"""Full Gibbs sweep and chain management.

One sweep updates, in order: per-record cluster membership through the
collapsed urn (a), the unique cluster locations (b), the base-measure
variances (c), each free kernel variance (d), each correlation entry (e),
the discount (f), the strength (g), and finally the categorical latent
coordinates (h). Any fixed order is a valid composition; this one refreshes
locations right after the memberships change.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .covariance import CovarianceState, scatter_matrix, update_correlation, update_variance
from .latent import LatentState, initial_latents, resample_latents
from .pdprocess import BaseMeasure, PDHyper, update_base_scales, update_discount, \
    update_strength
from .schema import ChainInvariantError, Dataset, PriorConstants, Schema, _check_positive

WEIGHT_MODE_IGNORE = "ignore"
WEIGHT_MODE_DESIGN = "design"

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class MixtureState:
    """Cluster labels, unique locations and their counts.

    Labels are always a contiguous relabelling 0..r-1 and counts sum to the
    number of records; empty clusters are removed the moment they appear.
    """

    labels: np.ndarray
    mus: np.ndarray
    counts: np.ndarray

    @property
    def r(self) -> int:
        return len(self.counts)

    def remove_cluster(self, j: int):
        self.mus = np.delete(self.mus, j, axis=0)
        self.counts = np.delete(self.counts, j)
        self.labels[self.labels > j] -= 1

    def add_cluster(self, mu: np.ndarray) -> int:
        self.mus = np.vstack([self.mus, mu])
        self.counts = np.append(self.counts, np.int64(1))
        return len(self.counts) - 1

    def check(self, n: int):
        if self.counts.sum() != n:
            raise ChainInvariantError("cluster counts do not sum to n")
        if not np.all(self.counts >= 1):
            raise ChainInvariantError("empty cluster left behind")
        if not np.array_equal(np.bincount(self.labels, minlength=self.r), self.counts):
            raise ChainInvariantError("labels and counts disagree")


def _check_count(name, value, least):
    """Raise ValueError naming ``name`` unless ``value`` is an integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class SamplerConfig:
    """Every setting of one chain; each is range-checked when the config is built."""

    iterations: int
    burnin: int
    thinning: int = 1
    var_scale: float = 1.0
    seed: int = 0
    weight_mode: str = WEIGHT_MODE_DESIGN
    priors: PriorConstants = field(default_factory=PriorConstants)

    def __post_init__(self):
        _check_count("iterations", self.iterations, 1)
        _check_count("burnin", self.burnin, 0)
        _check_count("thinning", self.thinning, 1)
        _check_count("seed", self.seed, 0)
        if self.burnin >= self.iterations:
            raise ValueError("burnin must be smaller than iterations")
        if self.kept == 0:
            raise ValueError(f"iterations - burnin ({self.iterations} - {self.burnin}) keeps no "
                             f"draw at thinning {self.thinning}")
        _check_positive(self, ["var_scale"])
        if self.weight_mode not in (WEIGHT_MODE_IGNORE, WEIGHT_MODE_DESIGN):
            raise ValueError(f"unknown weight_mode {self.weight_mode!r}")

    @property
    def kept(self) -> int:
        return (self.iterations - self.burnin) // self.thinning


@dataclass
class ChainOutput:
    """Kept partitions plus hyperparameter traces for one chain."""

    partitions: np.ndarray       # (kept, n) int32
    trace_discount: np.ndarray
    trace_strength: np.ndarray
    trace_r: np.ndarray
    trace_var: np.ndarray        # (kept, n_free)
    trace_base_var: np.ndarray   # (kept, q)
    kept: int
    runtime_seconds: float


def effective_pis(dataset: Dataset, weight_mode: str) -> np.ndarray:
    """Sampling probabilities the kernel actually uses."""
    if weight_mode == WEIGHT_MODE_IGNORE:
        return np.ones(dataset.n)
    if weight_mode == WEIGHT_MODE_DESIGN:
        return dataset.pis.copy()
    raise ValueError(f"unknown weight mode {weight_mode!r}")


def _location_posterior(sigma_inv, base_var, prec_scale, zsum):
    """Posterior (nu, V) of cluster locations given scaled sufficient stats.

    Either one cluster, with a number ``prec_scale`` and a q-vector
    ``zsum``, or r clusters at once, with an (r,) and an (r, q) array; the
    stacked ``inv`` and matrix-vector products give each cluster the same
    (nu, V) bit for bit as a call for that cluster alone.
    """
    prec = np.asarray(prec_scale)[..., None, None] * sigma_inv + np.diag(1.0 / base_var)
    V = np.linalg.inv(prec)
    nu = (V @ (sigma_inv @ zsum[..., None]))[..., 0]
    return nu, V


def _location_sums(z, w, members):
    """``(zsum, wsum)``: the sums of w_i z_i and of w_i over each index of ``members``.

    Each entry of ``members`` is an index array or a slice of the records.
    """
    zsum = np.empty((len(members), z.shape[1]))
    wsum = np.empty(len(members))
    for j, m in enumerate(members):
        w_m = w[m]
        zsum[j] = (z[m] * w_m[:, None]).sum(axis=0)
        wsum[j] = w_m.sum()
    return zsum, wsum


def _draw_locations(z, w, members, sigma_inv, base_var, var_scale, rng):
    """One location per index of ``members``, each drawn from its cluster's posterior.

    Cluster j holds the records ``members[j]``, with latents ``z`` and
    weights ``w`` = 1 / pi. The r clusters share one stacked ``inv``, one
    ``cholesky`` and ``rng.standard_normal((r, q, 1))``, which gives the
    same values as r calls of ``rng.standard_normal(q)``.
    """
    zsum, wsum = _location_sums(z, w, members)
    nu, V = _location_posterior(sigma_inv, base_var, wsum / var_scale, zsum / var_scale)
    eps = rng.standard_normal((*zsum.shape, 1))
    return nu + (np.linalg.cholesky(V) @ eps)[..., 0]


def urn_sweep_terms(z, pis, var_scale, cov, base_var):
    """Per-record terms of the urn weights, for all records at once.

    Returns ``(log_new, log_const)``, each of length n. With
    ``c_i = var_scale * pi_i``, ``log_new[i]`` is the new-cluster marginal
    log N(z_i; 0, c_i sigma + diag(base_var)), and ``log_const[i]`` is
    -(q (log 2 pi + log c_i) + log det sigma) / 2, the normalising constant
    of the kernel N(z_i; mu_j, c_i sigma) that every existing cluster
    shares. Each record has its own c_i under design weights, so the
    new-cluster covariance is factorised once per record, in one batched
    Cholesky. :class:`UrnTables` holds these two terms for step (a).
    """
    q = z.shape[1]
    c = var_scale * np.asarray(pis, dtype=float)
    chol = np.linalg.cholesky(c[:, None, None] * cov.sigma + np.diag(base_var))
    w = np.linalg.solve(chol, z[:, :, None])[:, :, 0]
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    log_new = -0.5 * (q * _LOG_2PI + logdet) - 0.5 * (w * w).sum(axis=1)
    log_const = -0.5 * (q * (_LOG_2PI + np.log(c)) + cov.logdet_sigma)
    return log_new, log_const


#: Records in the first block :meth:`UrnTables.choose` weighs and decides
#: together, and in each block after a move. A record that stays costs almost
#: nothing, so while records stay each block is twice as long as the one
#: before, and a move, which drops the rest of its block, starts again at
#: this length. On sweeps with few moves this saves weighing; on sweeps with
#: many, blocks stay short and waste few rows. Blocks weighed per sweep,
#: fixed 32-row blocks against this rule: 4.5 / 3.9 on ``mixed-ordinal`` at
#: seed 23, 7.3 / 3.7 on ``grid-design`` at low-move seed 11 and 31.3 / 29.6
#: at high-move seed 5.
URN_BLOCK = 32


class UrnTables:
    """Everything step (a) reads and changes, for one sweep.

    - ``log_const``: the :func:`urn_sweep_terms` constant of every record.
    - ``log_join[k] = log(k - discount)`` and
      ``log_open[k] = log(strength + discount * k)`` for k = 1..n, the urn's
      log weights of joining a cluster of k records and of opening a new
      cluster beside k others. ``log_join[0]`` is -inf, the zero weight a
      record alone in its cluster gives that cluster, which dies if the
      record leaves it. ``log_open[0]`` is NaN and never read: only the
      record of a one-record data set would open a cluster beside no other,
      and it is not weighed.
    - ``log_kernel[i]``: record i's own term of each entry of its block row.
      Column 0 holds the new-cluster marginal of :func:`urn_sweep_terms`,
      and column j + 1 holds ``log_const[i]`` minus half the quadratic form
      of z_i about location j under the kernel c_i sigma,
      ``((z_i - mu_j) sigma^-1 (z_i - mu_j)') / (2 c_i)``, one column per
      cluster in the order of ``mixture.mus``.
    - ``stay[i]``: True when record i's choice is already known to leave it
      in its own cluster.

    The records must be updated in order, 0 to n - 1, each once. A block of
    consecutive records is weighed and decided at once (:meth:`choose`):
    :data:`URN_BLOCK` records at first and after a move, and twice as many
    as in the block before when that one was used to its end, cut short at
    the last record. Each row holds the unnormalised cumulative urn
    weights of one record, computed from the current counts with that
    record counted out of its own cluster. A record alone in its cluster
    gives its own cluster zero weight and weighs a new cluster beside the
    r - 1 others. The block draws one uniform per record with
    ``rng.random(k)``, which gives the same values as k calls of
    ``rng.random()``. A record's choice is the first entry of its row at or
    above its uniform times the row's total; as the uniform is below 1, the
    last entry always is, and an entry of zero weight never is the first. A
    record whose choice is its own cluster is flagged in ``stay``. The row
    of a record whose weights are not finite is NaN and never flags a stay.

    Step (a) changes none of the latents, sigma, the base variances,
    ``var_scale``, the pis, the discount or the strength, and it moves no
    existing location, so the tables stay valid for the whole step as long
    as the partition changes only through :meth:`detach`, :meth:`birth`
    and a join of a detached record. A block depends on the partition as
    well, and a record that stays leaves the partition as it was, so the
    block and its stay flags are dropped (:meth:`forget_rows`) only when a
    record moves, a cluster is born or a cluster dies.

    Generator order: record i's uniform is the next one after those of the
    records before it, exactly as if each record drew its own. The first
    record that draws after the tables are built, or after a
    :meth:`hand_back`, draws the uniforms of itself and of every later record
    at once, and a block reads its own as a slice. Only a birth's location
    draw and the raise of a non-finite record come between two records'
    uniforms, and each first rewinds the generator with :meth:`hand_back`.

    The quadratic forms use the same stacked matmul, product, sum and
    division as a per-record computation would. With OpenBLAS they equal it
    bit for bit at q <= 3. At q >= 4 a row's rounding can depend on how many
    locations share the product (one new location goes through a
    matrix-vector product), so a column appended at a birth may differ from
    the per-record value in its last bit. The block's row maxima and its
    last-axis ``exp`` and ``cumsum`` of a C-contiguous array give each row
    the same values as the same calls on that row alone, so the length of a
    block changes no decision.
    """

    def __init__(self, z, pis, var_scale, cov, base_var, hyper, mus):
        n = z.shape[0]
        self.z = z
        self.inv_pis = 1.0 / np.asarray(pis, dtype=float)
        self.var_scale = var_scale
        self.base_var = base_var
        self.c = var_scale * np.asarray(pis, dtype=float)
        self.sigma_inv = cov.sigma_inv
        log_new, self.log_const = urn_sweep_terms(z, pis, var_scale, cov, base_var)
        k = np.arange(1, n + 1)
        self.log_join = np.full(n + 1, -np.inf)
        self.log_join[1:] = np.log(k - hyper.discount)
        self.log_open = np.full(n + 1, np.nan)
        self.log_open[1:] = np.log(hyper.strength + hyper.discount * k)
        self.log_kernel = np.hstack([log_new[:, None], self._log_kernel(mus)])
        self.stay = [False] * n
        self._eye = np.eye(0)  # (r, r) identity, and _join, sized by _weigh
        self._rows = range(0)
        self._state = None  # generator state before the uniform of record _first
        self._first = 0
        self._u = None      # the uniforms of records _first to n - 1

    def _log_kernel(self, mus):
        """(n, len(mus)) kernel terms about ``mus``, one stacked matmul per record."""
        diff = mus[None, :, :] - self.z[:, None, :]
        half_quad = 0.5 * (((diff @ self.sigma_inv) * diff).sum(axis=-1) / self.c[:, None])
        return self.log_const[:, None] - half_quad

    def detach(self, i: int, mixture: MixtureState) -> bool:
        """Take record ``i`` out of its cluster; returns whether the cluster died.

        The cluster dies when the record was alone in it. The record's label
        becomes -1 until a join or :meth:`birth` gives it a cluster.
        """
        old = mixture.labels[i]
        mixture.labels[i] = -1
        mixture.counts[old] -= 1
        died = mixture.counts[old] == 0
        if died:
            mixture.remove_cluster(old)
            self.log_kernel = np.delete(self.log_kernel, old + 1, axis=1)
        self.forget_rows()
        return died

    def birth(self, i: int, mixture: MixtureState, rng):
        """Open a new cluster for detached record ``i`` at a location drawn from its posterior."""
        self.hand_back(i + 1, rng)
        mu_new = _draw_locations(self.z, self.inv_pis, [slice(i, i + 1)], self.sigma_inv,
                                 self.base_var, self.var_scale, rng)
        mixture.labels[i] = mixture.add_cluster(mu_new)
        self.log_kernel = np.hstack([self.log_kernel, self._log_kernel(mu_new)])

    def forget_rows(self):
        """Drop the block and its stay flags."""
        rows = self._rows
        self.stay[rows.start:rows.stop] = [False] * len(rows)
        self._rows = range(0)

    def hand_back(self, i: int, rng):
        """Give the uniforms drawn for record ``i`` and the records after it back to ``rng``.

        Afterwards ``rng`` stands exactly where it would stand had every
        record before ``i`` drawn its own uniform and none after, and the
        next record that draws gets the generator's next uniform.
        """
        self.forget_rows()
        if self._state is not None:
            rng.bit_generator.state = self._state
            rng.random(i - self._first)
            self._state = None

    def _uniforms(self, start: int, k: int, rng):
        """The uniforms of records ``start`` to ``start + k - 1``."""
        if self._state is None:
            self._state = rng.bit_generator.state
            self._first = start
            self._u = rng.random(self.z.shape[0] - start)
        return self._u[start - self._first:start - self._first + k]

    def _weigh(self, start: int, mixture: MixtureState, rng):
        """Weigh and decide the block of records that begins at ``start``.

        The block is as long as the class docstring sets out, and each of
        its records is counted out of its own cluster. Entry 0 of a row
        opens a new cluster and entry j + 1 joins cluster j.
        """
        labels, counts = mixture.labels, mixture.counts
        r = counts.size
        # a block that is still held was used to its end: records come in order
        stop = min(start + max(URN_BLOCK, 2 * len(self._rows)), labels.size)
        rows = slice(start, stop)
        own = labels[rows]
        if self._eye.shape[0] != r:
            self._eye = np.eye(r, dtype=np.int64)
            self._join = np.empty((r, r + 1))
        # row j of join: the log urn weights of a record of cluster j, counted
        # out of it; a record alone opens a new cluster beside r - 1 others
        join = self._join
        join[:, 0] = self.log_open.take(r - (counts == 1))
        join[:, 1:] = self.log_join.take(counts - self._eye)
        cum = join.take(own, axis=0)
        cum += self.log_kernel[rows]

        # the row maxima, reduced over a transposed copy, which is faster
        cum -= np.maximum.reduce(cum.T.copy(), axis=0)[:, None]
        np.exp(cum, out=cum)
        cum = np.add.accumulate(cum, axis=1)
        self._total = cum[:, r]
        u = self._uniforms(start, stop - start, rng)
        choice = (cum >= (u * self._total)[:, None]).argmax(axis=1)
        self._rows = range(start, stop)
        self._choice = choice.tolist()
        self.stay[rows] = (choice == own + 1).tolist()

    def choose(self, i: int, mixture: MixtureState, rng) -> int:
        """Record ``i``'s urn choice: 0 opens a new cluster, j + 1 joins cluster j.

        Reads the choice decided for the record's block, weighing and
        deciding a new block first when the record is not in the current
        one. Raises ``FloatingPointError`` naming the record when its
        weights are not finite, after handing its uniform and every later
        one back to the generator.
        """
        if i not in self._rows:
            self._weigh(i, mixture, rng)
        m = i - self._rows.start
        if not math.isfinite(self._total[m]):
            self.hand_back(i, rng)
            raise FloatingPointError(f"membership weights of record {i} are not finite")
        return self._choice[m]


def update_mu_i(i, mixture, rng, tables):
    """Collapsed urn reassignment of record ``i`` (conditional (a)).

    Weighs opening a fresh cluster against each existing one, with the
    record counted out of its own cluster, and either leaves the record
    where it is, joins another cluster or opens a new one. A record alone
    in its cluster gives that cluster zero weight, as it dies when the
    record leaves. ``tables`` is the sweep's :class:`UrnTables`, which
    decides the choice and makes the change. Raises ``FloatingPointError``
    naming the record when its membership weights are not finite.
    """
    if tables.stay[i]:
        return mixture
    old = mixture.labels[i]
    # a lone record (n = 1) has no other cluster to weigh: it opens one and draws no uniform
    idx = tables.choose(i, mixture, rng) if mixture.labels.size > 1 else 0
    if idx == old + 1:
        return mixture
    died = tables.detach(i, mixture)
    if idx == 0:
        tables.birth(i, mixture, rng)
    else:
        # a cluster that died before the chosen one shifted it down by one
        j = idx - 2 if died and idx > old + 1 else idx - 1
        mixture.labels[i] = j
        mixture.counts[j] += 1
    return mixture


def update_unique_mus(latents, mixture, cov, base, var_scale, pis, rng):
    """Refresh every cluster location from its Gaussian posterior (conditional (b))."""
    inv_pis = 1.0 / np.asarray(pis, dtype=float)
    members = [np.flatnonzero(mixture.labels == j) for j in range(mixture.r)]
    mixture.mus = _draw_locations(latents.z, inv_pis, members, cov.sigma_inv, base.base_var,
                                  var_scale, rng)
    return mixture


def gibbs_sweep(latents, mixture, cov, base, hyper, var_scale, pis, rng):
    """One full pass over conditionals (a) through (h).

    Step (a) calls :func:`update_mu_i` once per record, in order, with one
    :class:`UrnTables` built before the loop; the tables decide a block of
    records at once, so a record that stays costs one list lookup, and they
    leave ``rng`` where per-record draws would have left it.
    """
    n, q = latents.z.shape
    tables = UrnTables(latents.z, pis, var_scale, cov, base.base_var, hyper, mixture.mus)
    # a block row that is not finite warns nothing: its record raises at its turn
    with np.errstate(invalid="ignore"):
        for i in range(n):
            update_mu_i(i, mixture, rng, tables)
    update_unique_mus(latents, mixture, cov, base, var_scale, pis, rng)

    base.base_var = update_base_scales(base, mixture.mus, rng)

    scatter = scatter_matrix(latents.z, mixture.mus[mixture.labels], pis, var_scale)
    for j in np.flatnonzero(cov.free):
        update_variance(cov, int(j), scatter, n, rng)
    for j in range(q):
        for k in range(j + 1, q):
            update_correlation(cov, j, k, scatter, n, rng)

    hyper.discount = update_discount(hyper, mixture.counts, rng)
    hyper.strength = update_strength(hyper, mixture.counts, rng)

    resample_latents(latents, mixture, cov, var_scale, pis, rng)


def _build_states(schema: Schema, config: SamplerConfig, labels, mus, sdevs, corr,
                  base_var, discount: float, strength: float):
    """Chain states from start values and the config's prior constants.

    Returns ``(mixture, cov, base, hyper)``. ``labels`` must be contiguous,
    so the cluster counts are their bincount.
    """
    priors = config.priors
    mixture = MixtureState(labels=labels, mus=mus, counts=np.bincount(labels))
    cov = CovarianceState(sdevs=sdevs, corr=corr, free=schema.free_mask(), priors=priors)
    base = BaseMeasure(base_var, priors=priors)
    hyper = PDHyper(discount=discount, strength=strength, priors=priors)
    return mixture, cov, base, hyper


def init_states(latents: LatentState, schema: Schema, config: SamplerConfig):
    """Deterministic moment-matched starting states for one chain.

    The chain starts from a single cluster at the latent mean with free
    variances matched to the weighted residual moments of that one-cluster
    fit. The single-site sweep does not move between modes that differ in
    both the partition and the kernel variance, so a chain tends to stay in
    the mode it starts in. On the scenario I benchmark (prior C,
    4700 sweeps) this start keeps r = 1 in 81 % of kept draws, while the
    same chain started from the true labels never visits r = 1. The reported
    cluster count therefore depends on the start.
    """
    pr = config.priors
    z = latents.z
    n, q = z.shape
    pis = effective_pis(latents.dataset, config.weight_mode)

    center = z.mean(axis=0)
    free = schema.free_mask()
    sdevs = np.ones(q)
    resid = (z - center) ** 2 / (config.var_scale * pis)[:, None]
    moments = resid.mean(axis=0)[free]
    sdevs[free] = np.sqrt(np.where(moments > 0, moments, 1.0))
    # inverse-gamma mode of the one-location conditional, defined for any shape
    base0 = (pr.base_prior_scale + 0.5 * center ** 2) / (pr.base_prior_shape + 1.5)
    return _build_states(schema, config, np.zeros(n, dtype=np.int64), center[None, :].copy(),
                         sdevs, np.eye(q), base0, 0.0, 1.0)


def run_chain(dataset: Dataset, schema: Schema, config: SamplerConfig) -> ChainOutput:
    """Run one chain and return the kept partitions and traces."""
    t0 = time.perf_counter()
    pis = effective_pis(dataset, config.weight_mode)
    rng = np.random.default_rng(config.seed)

    latents = initial_latents(dataset, schema)
    mixture, cov, base, hyper = init_states(latents, schema, config)

    n = dataset.n
    kept = config.kept
    free_idx = np.flatnonzero(cov.free)
    partitions = np.empty((kept, n), dtype=np.int32)
    trace_discount = np.empty(kept)
    trace_strength = np.empty(kept)
    trace_r = np.empty(kept, dtype=np.int64)
    trace_var = np.empty((kept, free_idx.size))
    trace_base_var = np.empty((kept, schema.q))

    stored = 0
    for it in range(1, config.iterations + 1):
        gibbs_sweep(latents, mixture, cov, base, hyper, config.var_scale, pis, rng)
        if it > config.burnin and (it - config.burnin) % config.thinning == 0:
            partitions[stored] = mixture.labels
            trace_discount[stored] = hyper.discount
            trace_strength[stored] = hyper.strength
            trace_r[stored] = mixture.r
            trace_var[stored] = cov.sdevs[free_idx] ** 2
            trace_base_var[stored] = base.base_var
            stored += 1
            mixture.check(n)
            cov.check()
            latents.check_consistent()

    if stored != kept:
        raise RuntimeError(f"chain stored {stored} partitions but the config keeps {kept}")
    return ChainOutput(
        partitions=partitions,
        trace_discount=trace_discount,
        trace_strength=trace_strength,
        trace_r=trace_r,
        trace_var=trace_var,
        trace_base_var=trace_base_var,
        kept=kept,
        runtime_seconds=time.perf_counter() - t0,
    )
