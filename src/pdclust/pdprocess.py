"""Two-parameter Poisson-Dirichlet (Pitman-Yor) partition machinery.

The pair (discount, strength) controls how many clusters the urn scheme
produces. The partition likelihood for both parameters is the exchangeable
partition probability function (EPPF); each Metropolis update evaluates the
single full EPPF routine so no kernel term can go missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaln, gammaln

from .schema import PriorConstants

#: Half-width of the strength's uniform random-walk proposal.
STRENGTH_STEP = 2.0


@dataclass
class PDHyper:
    """Current (discount, strength) pair plus the constants of its hyperprior.

    The discount prior is a point mass at 0 with weight
    ``priors.discount_zero_prob`` mixed with Beta(``priors.discount_beta1``,
    ``priors.discount_beta2``); the strength prior is
    Gamma(``priors.strength_shape``, ``priors.strength_rate``) on
    ``strength + discount``. The strength update uses a uniform random walk
    of half-width ``STRENGTH_STEP``.
    """

    discount: float = 0.0
    strength: float = 1.0
    priors: PriorConstants = field(default_factory=PriorConstants)

    def __post_init__(self):
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        if not self.strength > -self.discount:
            raise ValueError("strength must exceed -discount")


@dataclass
class BaseMeasure:
    """Diagonal base-measure variances; their inverse-gamma prior is
    InvGamma(``priors.base_prior_shape``, ``priors.base_prior_scale``)."""

    base_var: np.ndarray
    priors: PriorConstants = field(default_factory=PriorConstants)

    def __post_init__(self):
        self.base_var = np.array(self.base_var, dtype=float)
        if np.any(self.base_var <= 0):
            raise ValueError("base-measure variances must be positive")


def urn_weights(discount: float, strength: float, cluster_sizes, n: int) -> np.ndarray:
    """Predictive urn weights for one record given the others' partition.

    ``cluster_sizes`` are the occupied-cluster sizes excluding the record
    (they must sum to ``n - 1``). Entry 0 is the new-cluster weight
    ``(strength + discount * r) / (strength + n - 1)``; entry ``j`` is
    ``(size_j - discount) / (strength + n - 1)``.
    """
    sizes = np.asarray(cluster_sizes, dtype=float)
    if sizes.size and sizes.min() < 1:
        raise ValueError("cluster sizes must be >= 1")
    if int(round(sizes.sum())) != n - 1:
        raise ValueError(f"cluster sizes sum to {sizes.sum()}, expected n - 1 = {n - 1}")
    denom = strength + n - 1
    out = np.empty(sizes.size + 1)
    out[0] = (strength + discount * sizes.size) / denom
    out[1:] = (sizes - discount) / denom
    return out


def eppf_log(discount: float, strength: float, cluster_sizes) -> float:
    """Log EPPF of a partition with the given cluster sizes.

    ``log Gamma(b+1) - log Gamma(b+n) + sum_{j=1}^{r-1} log(b + j a)
    + sum_j [log Gamma(n_j - a) - log Gamma(1 - a)]`` for
    (a, b) = (discount, strength).
    """
    sizes = np.asarray(cluster_sizes, dtype=float)
    if sizes.size == 0:
        raise ValueError("need at least one cluster")
    if sizes.min() < 1:
        raise ValueError("cluster sizes must be >= 1")
    if not 0.0 <= discount < 1.0 or not strength > -discount:
        raise ValueError("invalid (discount, strength) pair")
    n = sizes.sum()
    r = sizes.size
    out = gammaln(strength + 1.0) - gammaln(strength + n)
    if r > 1:
        out += np.log(strength + discount * np.arange(1, r)).sum()
    out += gammaln(sizes - discount).sum() - r * gammaln(1.0 - discount)
    return float(out)


def _discount_logprior(priors: PriorConstants, value: float) -> float:
    """Density wrt (point mass at 0) + Lebesgue on (0, 1)."""
    if value == 0.0:
        if priors.discount_zero_prob == 0.0:
            return -np.inf
        return float(np.log(priors.discount_zero_prob))
    if priors.discount_zero_prob == 1.0:
        return -np.inf
    a1, a2 = priors.discount_beta1, priors.discount_beta2
    return float(
        np.log1p(-priors.discount_zero_prob)
        + (a1 - 1.0) * np.log(value)
        + (a2 - 1.0) * np.log1p(-value)
        - betaln(a1, a2)
    )


def _strength_logprior(priors: PriorConstants, strength: float, discount: float) -> float:
    x = strength + discount
    if x <= 0:
        return -np.inf
    return float(
        priors.strength_shape * np.log(priors.strength_rate)
        - gammaln(priors.strength_shape)
        + (priors.strength_shape - 1.0) * np.log(x)
        - priors.strength_rate * x
    )


def update_discount(hyper: PDHyper, cluster_sizes, rng) -> float:
    """Independence-proposal MH update of the discount.

    The proposal is the half point-mass/half uniform mixture; acceptance
    uses densities with respect to the shared dominating measure (point
    mass at zero plus Lebesgue), so cross moves between 0 and (0, 1) are
    weighted by the corresponding component densities. The target carries
    the strength's conditional prior too: its support shift makes it a
    function of the discount, and dropping it leaves the pair sampler
    without the stated joint prior as its invariant law.
    """
    cand = 0.0 if rng.random() < 0.5 else rng.random()
    cur = hyper.discount
    if hyper.strength <= -cand:
        return cur

    def logpost(a):
        out = _discount_logprior(hyper.priors, a)
        out += _strength_logprior(hyper.priors, hyper.strength, a)
        if np.isfinite(out):
            out += eppf_log(a, hyper.strength, cluster_sizes)
        return out

    # proposal density is log(1/2) at zero and log(1/2) on (0, 1): constant
    log_ratio = logpost(cand) - logpost(cur)
    if np.log(rng.random()) < log_ratio:
        return float(cand)
    return cur


def update_strength(hyper: PDHyper, cluster_sizes, rng) -> float:
    """Uniform random-walk MH update of the strength.

    Proposals at or below ``-discount`` are rejected outright.
    """
    cur = hyper.strength
    cand = rng.uniform(cur - STRENGTH_STEP, cur + STRENGTH_STEP)
    if cand <= -hyper.discount:
        return cur

    def logpost(b):
        return (_strength_logprior(hyper.priors, b, hyper.discount)
                + eppf_log(hyper.discount, b, cluster_sizes))

    if np.log(rng.random()) < logpost(cand) - logpost(cur):
        return float(cand)
    return cur


def update_base_scales(base: BaseMeasure, unique_locations, rng) -> np.ndarray:
    """Conjugate draw of the base-measure variances given cluster locations.

    Returns the drawn variances; coordinate ``l`` gets
    InvGamma(shape + r/2, scale + sum_j mu*_{jl}^2 / 2) for an (r, q) array
    of locations, which is the prior at r = 0.
    """
    mus = np.atleast_2d(np.asarray(unique_locations, dtype=float))
    q = base.base_var.shape[0]
    if mus.shape[1] != q:
        raise ValueError("location dimension mismatch")
    shape = base.priors.base_prior_shape + 0.5 * mus.shape[0]
    scale = base.priors.base_prior_scale + 0.5 * (mus ** 2).sum(axis=0)
    return scale / rng.standard_gamma(shape, size=q)
