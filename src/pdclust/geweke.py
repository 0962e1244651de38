"""Joint-distribution correctness test of the Gibbs sweep.

Geweke (2004, JASA, "Getting it right: joint distribution tests of
posterior simulators") compares two simulators of the same joint law of
(hyperparameters, states, data): exact ancestral draws from the prior and
data model, and a successive-conditional chain that alternates one full
sweep with a fresh draw of the data given the states. A moment that
differs beyond Monte Carlo error exposes a wrong full conditional. No chain
runs this module; it exists to check the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .latent import LatentState, decode_levels
from .pdprocess import urn_weights
from .sampler import SamplerConfig, _build_states, gibbs_sweep
from .schema import CONTINUOUS, IDENTITY, Dataset, Schema


def _batch_means_se(x: np.ndarray, n_batches: int = 50) -> float:
    """Standard error of the mean of an autocorrelated series."""
    m = len(x) // n_batches
    if m < 2:
        return float(np.std(x, ddof=1) / np.sqrt(len(x)))
    means = x[: m * n_batches].reshape(n_batches, m).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(n_batches))


@dataclass
class GewekeReport:
    names: list[str]
    z_scores: np.ndarray
    mean_forward: np.ndarray
    mean_successive: np.ndarray
    draws: int

    @property
    def max_abs_z(self) -> float:
        return float(np.abs(self.z_scores).max())

    def passed(self, threshold: float = 3.0) -> bool:
        return bool(np.all(np.abs(self.z_scores) < threshold))

    def __str__(self) -> str:
        rows = [
            f"  {name:<22s} fwd {mf: .4f}  mcmc {ms: .4f}  z {z: .2f}"
            for name, mf, ms, z in zip(
                self.names, self.mean_forward, self.mean_successive, self.z_scores
            )
        ]
        return "joint-distribution check ({} draws):\n{}".format(self.draws, "\n".join(rows))


def _encode_observed(z: np.ndarray, schema: Schema) -> np.ndarray:
    """Observed values implied by a latent matrix (identity transforms only)."""
    values = np.empty((z.shape[0], schema.p))
    for k, v in enumerate(schema.variables):
        col = schema.input_index[k]
        if v.kind != CONTINUOUS:
            values[:, col] = decode_levels(z, schema, k)
        elif v.transform.kind != IDENTITY:
            raise ValueError("harness supports identity transforms only")
        else:
            values[:, col] = z[:, schema.latent_slice(k).start]
    return values


def _ancestral_draw(schema: Schema, config: SamplerConfig, pis, rng):
    """Exact joint draw of (hyperparameters, partition, latents, data)."""
    pr = config.priors
    q, n = schema.q, len(pis)

    discount = 0.0 if rng.random() < pr.discount_zero_prob else rng.beta(
        pr.discount_beta1, pr.discount_beta2)
    strength = rng.gamma(pr.strength_shape, 1.0 / pr.strength_rate) - discount
    base_var = pr.base_prior_scale / rng.standard_gamma(pr.base_prior_shape, size=q)

    free = schema.free_mask()
    sdevs = np.ones(q)
    sdevs[free] = np.sqrt(
        pr.var_prior_scale / rng.standard_gamma(pr.var_prior_shape, size=int(free.sum()))
    )
    corr = np.eye(q)
    if q == 2:
        rho = rng.uniform(-1.0, 1.0)
        corr[0, 1] = corr[1, 0] = rho

    labels = np.empty(n, dtype=np.int64)
    counts: list[int] = []
    mus_list: list[np.ndarray] = []
    for i in range(n):
        w = urn_weights(discount, strength, np.asarray(counts), i + 1)
        idx = int(np.searchsorted(np.cumsum(w), rng.random()))
        idx = min(idx, len(counts))
        if idx == 0:
            mus_list.append(np.sqrt(base_var) * rng.standard_normal(q))
            counts.append(1)
            labels[i] = len(counts) - 1
        else:
            counts[idx - 1] += 1
            labels[i] = idx - 1
    mixture, cov, base, hyper = _build_states(schema, config, labels, np.array(mus_list),
                                              sdevs, corr, base_var, discount, strength)
    z = _draw_latents(mixture, cov, config.var_scale, pis, rng)
    return mixture, cov, base, hyper, z


def _draw_latents(mixture, cov, var_scale, pis, rng):
    n = len(pis)
    q = cov.q
    noise = rng.standard_normal((n, q)) @ cov.chol.T
    scale = np.sqrt(var_scale * np.asarray(pis))
    return mixture.mus[mixture.labels] + noise * scale[:, None]


def _harness_stats(schema: Schema, free_idx, cat_var: int | None):
    """Names of the tracked statistics and a function of the state returning their values."""
    free = free_idx.size > 0
    # each getter takes (mixture, cov, base, hyper, values)
    table = [
        ("discount", True, lambda m, c, b, h, x: h.discount),
        ("discount_is_zero", True, lambda m, c, b, h, x: float(h.discount == 0.0)),
        ("strength_plus_discount", True, lambda m, c, b, h, x: h.strength + h.discount),
        ("log_var_0", free, lambda m, c, b, h, x: np.log(c.sdevs[free_idx[0]] ** 2)),
        ("inv_var_0", free, lambda m, c, b, h, x: 1.0 / c.sdevs[free_idx[0]] ** 2),
        ("log_base_var_0", True, lambda m, c, b, h, x: np.log(b.base_var[0])),
        ("inv_base_var_0", True, lambda m, c, b, h, x: 1.0 / b.base_var[0]),
        ("log_base_var_1", schema.q >= 2, lambda m, c, b, h, x: np.log(b.base_var[1])),
        ("corr_01", schema.q == 2, lambda m, c, b, h, x: c.corr[0, 1]),
        # the square detects boundary-symmetric biases the mean cannot see
        ("corr_01_sq", schema.q == 2, lambda m, c, b, h, x: c.corr[0, 1] ** 2),
        ("n_clusters", True, lambda m, c, b, h, x: float(m.r)),
        ("mean_code", cat_var is not None,
         lambda m, c, b, h, x: float(x[:, schema.input_index[cat_var]].mean())),
    ]
    kept = [(name, get) for name, used, get in table if used]

    def extract(mixture, cov, base, hyper, values):
        return [get(mixture, cov, base, hyper, values) for _, get in kept]

    return [name for name, _ in kept], extract


def geweke_joint_test(schema: Schema, config: SamplerConfig, draws: int,
                      pis=(1.0, 0.8, 0.65, 0.9, 0.75), seed: int = 0) -> GewekeReport:
    """Compare ancestral simulation with the successive-conditional sampler.

    Both simulators target the same joint law of (hyperparameters, states,
    data); moment mismatches beyond MC error expose bugs in the full
    conditionals. Restricted to tiny models, n <= 8 and q <= 2: the
    ancestral draw samples the correlation only at q = 2, where the
    marginally-uniform prior is uniform on (-1, 1). That limit is this
    harness's own; at any q the prior can be drawn exactly by normalising an
    inverse-Wishart(q + 1, I) draw to a correlation matrix (Barnard,
    McCulloch and Meng 2000, Statistica Sinica).
    """
    pis = np.asarray(pis, dtype=float)
    n = len(pis)
    if n > 8 or schema.q > 2:
        raise ValueError("harness is restricted to n <= 8 and q <= 2")

    rng = np.random.default_rng(seed)
    free_idx = np.flatnonzero(schema.free_mask())
    cat_var = next(
        (k for k, v in enumerate(schema.variables) if v.kind != CONTINUOUS), None)
    names, extract = _harness_stats(schema, free_idx, cat_var)

    fwd = np.empty((draws, len(names)))
    for m in range(draws):
        mixture, cov, base, hyper, z = _ancestral_draw(schema, config, pis, rng)
        fwd[m] = extract(mixture, cov, base, hyper, _encode_observed(z, schema))

    mixture, cov, base, hyper, z = _ancestral_draw(schema, config, pis, rng)
    values = _encode_observed(z, schema)
    dataset = Dataset(values=values, weights=1.0 / pis)
    latents = LatentState(z=z.copy(), dataset=dataset, schema=schema)

    suc = np.empty((draws, len(names)))
    for m in range(draws):
        gibbs_sweep(latents, mixture, cov, base, hyper, config.var_scale, pis, rng)
        z = _draw_latents(mixture, cov, config.var_scale, pis, rng)
        values = _encode_observed(z, schema)
        dataset = Dataset(values=values, weights=1.0 / pis)
        latents = LatentState(z=z, dataset=dataset, schema=schema)
        suc[m] = extract(mixture, cov, base, hyper, values)

    z_scores = np.empty(len(names))
    for s in range(len(names)):
        se_f = np.std(fwd[:, s], ddof=1) / np.sqrt(draws)
        se_s = _batch_means_se(suc[:, s])
        denom = np.sqrt(se_f ** 2 + se_s ** 2)
        gap = fwd[:, s].mean() - suc[:, s].mean()
        z_scores[s] = 0.0 if (denom == 0 and gap == 0) else gap / max(denom, 1e-300)

    return GewekeReport(
        names=names, z_scores=z_scores,
        mean_forward=fwd.mean(axis=0), mean_successive=suc.mean(axis=0),
        draws=draws,
    )
