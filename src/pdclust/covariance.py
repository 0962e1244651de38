"""Separation-strategy covariance: sigma = diag(s) * corr * diag(s).

Categorical latent coordinates keep their standard deviation pinned at 1;
free (continuous) variances get an inverse-gamma prior and a gamma-proposal
MH update. The correlation matrix gets the marginally-uniform prior of
Barnard, McCulloch and Meng and entrywise uniform random-walk MH updates
confined to the positive-definite support.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .schema import ChainInvariantError, PriorConstants

#: Shape of the gamma proposal for a free variance (its mean is the current value).
VAR_PROPOSAL_SHAPE = 5.0
#: A correlation entry's proposal window reaches a ``1/CORR_WINDOW_FRAC``
#: share of its positive-definite support on each side of the current value.
CORR_WINDOW_FRAC = 4.0


def chol_logdet(chol: np.ndarray) -> float:
    return 2.0 * float(np.log(np.diag(chol)).sum())


def _correlation_factor(corr):
    """``(L^-1, log det corr)`` for corr = L L'; raises LinAlgError if not PD."""
    chol = np.linalg.cholesky(corr)
    return np.linalg.inv(chol), chol_logdet(chol)


def compose_sigma(sdevs, corr):
    """Build sigma = diag(sdevs) corr diag(sdevs) and its Cholesky factor."""
    sdevs = np.asarray(sdevs, dtype=float)
    corr = np.asarray(corr, dtype=float)
    sigma = sdevs[:, None] * corr * sdevs[None, :]
    return sigma, np.linalg.cholesky(sigma)


def scatter_matrix(z, mu, pis, var_scale: float) -> np.ndarray:
    """Weighted residual scatter sum_i (z_i - mu_i)(z_i - mu_i)' / (var_scale * pi_i)."""
    d = np.asarray(z, dtype=float) - np.asarray(mu, dtype=float)
    w = 1.0 / (var_scale * np.asarray(pis, dtype=float))
    s = d.T @ (d * w[:, None])
    return 0.5 * (s + s.T)


def _gamma_logpdf_shape_scale(x, shape, scale):
    """Gamma(shape, scale) log density at ``x``; the variance move's Hastings term."""
    return -shape * np.log(scale) - gammaln(shape) + (shape - 1.0) * np.log(x) - x / scale


@dataclass
class CovarianceState:
    """Chain-owned covariance state with cached factorizations.

    ``sdevs`` holds the per-coordinate standard deviations (exactly 1.0 on
    fixed coordinates), ``corr`` the correlation matrix. The caches
    (``sigma``, ``chol``, ``sigma_inv``, ``logdet_sigma``, and
    ``corr_inv_chol``, ``corr_logdet``, ``corr_inv`` of ``corr``) are
    refreshed after every accepted move. ``corr_score`` holds ``((bytes of
    scatter, n), log target)`` of the current correlation matrix once a
    correlation move has scored it, and every refresh clears it. The free
    variances' inverse-gamma prior is read from ``priors``.
    """

    sdevs: np.ndarray
    corr: np.ndarray
    free: np.ndarray
    priors: PriorConstants = field(default_factory=PriorConstants)
    sigma: np.ndarray = field(init=False)
    chol: np.ndarray = field(init=False)
    sigma_inv: np.ndarray = field(init=False)
    corr_inv_chol: np.ndarray = field(init=False)
    corr_logdet: float = field(init=False)
    corr_inv: np.ndarray = field(init=False)
    logdet_sigma: float = field(init=False)
    corr_score: tuple | None = field(init=False, default=None)

    def __post_init__(self):
        self.sdevs = np.array(self.sdevs, dtype=float)
        self.corr = np.array(self.corr, dtype=float)
        self.free = np.asarray(self.free, dtype=bool)
        q = self.sdevs.shape[0]
        if self.corr.shape != (q, q) or self.free.shape != (q,):
            raise ValueError("inconsistent covariance dimensions")
        if np.any(self.sdevs[~self.free] != 1.0):
            raise ValueError("fixed coordinates must have unit standard deviation")
        self.refresh()

    @property
    def q(self) -> int:
        return self.sdevs.shape[0]

    def refresh(self, sigma=None, corr_factor=None):
        """Recompute the caches from ``sdevs`` and ``corr``.

        A move hands in what it has already computed for the new state:
        after a variance move ``sigma`` is ``compose_sigma(sdevs, corr)``,
        and the correlation caches are kept because ``corr`` did not move;
        after a correlation move ``corr_factor`` is
        ``_correlation_factor(corr)``. Either way the caches equal those of a
        full refresh bit for bit.
        """
        self.corr_score = None
        self.sigma, self.chol = compose_sigma(self.sdevs, self.corr) if sigma is None else sigma
        inv_chol = np.linalg.inv(self.chol)
        self.sigma_inv = inv_chol.T @ inv_chol
        self.logdet_sigma = chol_logdet(self.chol)
        if sigma is not None:
            return
        if corr_factor is None:
            corr_factor = _correlation_factor(self.corr)
        self.corr_inv_chol, self.corr_logdet = corr_factor
        self.corr_inv = self.corr_inv_chol.T @ self.corr_inv_chol

    def check(self):
        if not np.array_equal(self.sdevs[~self.free], np.ones((~self.free).sum())):
            raise ChainInvariantError("fixed standard deviations drifted from 1")
        if not np.allclose(self.corr, self.corr.T, atol=1e-12):
            raise ChainInvariantError("corr not symmetric")
        if not np.allclose(np.diag(self.corr), 1.0):
            raise ChainInvariantError("corr diagonal not 1")
        if not np.all(np.isfinite(self.chol)):
            raise ChainInvariantError("stale covariance factorization")


def _variance_logpost(sdevs, corr_inv, j, value, scatter, n, shape, scale):
    """Log target for one free variance, up to constants in the others."""
    s = sdevs.copy()
    s[j] = np.sqrt(value)
    trace = float((corr_inv * (scatter / np.outer(s, s))).sum())
    return -(shape + 0.5 * n + 1.0) * np.log(value) - scale / value - 0.5 * trace


def update_variance(state: CovarianceState, j: int, scatter, n: int, rng) -> bool:
    """Gamma-proposal MH step on the free variance of coordinate ``j``.

    Returns True when the move is accepted (state updated in place); the
    candidate's sigma and Cholesky factor then become the caches.
    """
    if not state.free[j]:
        raise ValueError(f"coordinate {j} has a fixed variance")
    cur = state.sdevs[j] ** 2
    shape = VAR_PROPOSAL_SHAPE
    cand = rng.gamma(shape, cur / shape)
    if cand <= 0.0 or not np.isfinite(cand):
        return False

    cand_sdevs = state.sdevs.copy()
    cand_sdevs[j] = np.sqrt(cand)
    try:
        sigma_cand, chol_cand = compose_sigma(cand_sdevs, state.corr)
    except np.linalg.LinAlgError:
        return False

    log_ratio = (
        _variance_logpost(state.sdevs, state.corr_inv, j, cand, scatter, n,
                          state.priors.var_prior_shape, state.priors.var_prior_scale)
        - _variance_logpost(state.sdevs, state.corr_inv, j, cur, scatter, n,
                            state.priors.var_prior_shape, state.priors.var_prior_scale)
    )
    log_ratio += _gamma_logpdf_shape_scale(cur, shape, cand / shape)
    log_ratio -= _gamma_logpdf_shape_scale(cand, shape, cur / shape)

    if np.log(rng.random()) < log_ratio:
        state.sdevs[j] = cand_sdevs[j]
        state.refresh(sigma=(sigma_cand, chol_cand))
        return True
    return False


def correlation_support(corr: np.ndarray, j: int, k: int) -> tuple[float, float]:
    """Interval of values for entry (j, k) keeping the matrix PD.

    The determinant is quadratic in the entry; its two roots bracket the
    admissible interval (intersected with [-1, 1]). Its values at 1, -1 and
    0 come from one ``det`` of a stack of three copies, which gives each
    the same value as a ``det`` of that copy alone.
    """
    m = np.empty((3, *corr.shape))
    m[:] = corr
    m[:, j, k] = m[:, k, j] = (1.0, -1.0, 0.0)
    h1, hm1, h0 = np.linalg.det(m).tolist()
    t1 = 0.5 * (h1 + hm1 - 2.0 * h0)
    t2 = 0.5 * (h1 - hm1)
    t3 = h0

    cur = float(corr[j, k])
    scale = max(abs(t1), abs(t2), abs(t3), 1.0)
    if abs(t1) <= 1e-13 * scale:
        if abs(t2) <= 1e-13 * scale:
            lo, hi = -1.0, 1.0
        elif t2 > 0:
            lo, hi = -t3 / t2, 1.0
        else:
            lo, hi = -1.0, -t3 / t2
    else:
        disc = t2 * t2 - 4.0 * t1 * t3
        if disc < 0:
            disc = 0.0
        # numerically stable quadratic roots
        qf = -0.5 * (t2 + np.copysign(np.sqrt(disc), t2 if t2 != 0 else 1.0))
        if qf == 0.0:
            r1 = r2 = 0.0
        else:
            r1, r2 = qf / t1, t3 / qf
        lo, hi = min(r1, r2), max(r1, r2)

    lo, hi = max(lo, -1.0), min(hi, 1.0)
    lo, hi = min(lo, cur), max(hi, cur)
    return float(lo), float(hi)


def _correlation_logpost(factor, sdevs, scatter, n, q):
    """Log target for the correlation matrix R, given ``_correlation_factor(R)``.

    Each principal minor is det R_{-l} = det R * (R^-1)_ll, and
    (R^-1)_ll is the column sum of (L^-1)^2; tr(R^-1 a) is the entrywise
    sum of (L^-1 a) * L^-1.
    """
    inv_chol, logdet = factor
    minors = q * logdet + float(np.log((inv_chol * inv_chol).sum(axis=0)).sum())
    post = -0.5 * (q + 1.0) * minors - 0.5 * (n + 2.0 - q * (q - 1.0)) * logdet
    a = scatter / (sdevs[:, None] * sdevs)
    return post - 0.5 * float(((inv_chol @ a) * inv_chol).sum())


def _window_log_ratio(w_lo, w_hi, c_lo, c_hi):
    """Hastings term of the windowed-uniform proposal.

    The move from the current value draws uniformly on ``[w_lo, w_hi]`` and
    the reverse move on ``[c_lo, c_hi]``, so log q(cur | cand) - log
    q(cand | cur) is the log ratio of the two window lengths.
    """
    return np.log(w_hi - w_lo) - np.log(c_hi - c_lo)


def update_correlation(state: CovarianceState, j: int, k: int, scatter, n: int, rng) -> bool:
    """Windowed-uniform MH step on correlation entry (j, k), j < k.

    The proposal window is the PD support shrunk to ``length/CORR_WINDOW_FRAC``
    on each side of the current value; the Hastings term corrects for the
    position-dependent window. The current matrix is scored from the
    factor cached on ``state``, once per accepted move and scatter contents
    (kept in ``state.corr_score``); only the candidate is factorised, and an
    accepted candidate's factor becomes the cache.
    """
    if j >= k:
        raise ValueError("update upper-triangle entries only (j < k)")
    q = state.q
    lo, hi = correlation_support(state.corr, j, k)
    length = hi - lo
    if length <= 0.0:
        return False
    half = length / CORR_WINDOW_FRAC
    cur = float(state.corr[j, k])
    w_lo, w_hi = max(lo, cur - half), min(hi, cur + half)
    cand = rng.uniform(w_lo, w_hi)
    c_lo, c_hi = max(lo, cand - half), min(hi, cand + half)

    cand_corr = state.corr.copy()
    cand_corr[j, k] = cand_corr[k, j] = cand
    try:
        cand_factor = _correlation_factor(cand_corr)
        log_ratio = _correlation_logpost(cand_factor, state.sdevs, scatter, n, q)
    except np.linalg.LinAlgError:
        return False
    # keyed on the scatter's bytes, so a buffer changed in place is scored again
    key = (np.asarray(scatter, dtype=float).tobytes(), n)
    held = state.corr_score
    if held is None or held[0] != key:
        held = state.corr_score = (key, _correlation_logpost(
            (state.corr_inv_chol, state.corr_logdet), state.sdevs, scatter, n, q))
    log_ratio -= held[1]
    log_ratio += _window_log_ratio(w_lo, w_hi, c_lo, c_hi)

    if np.log(rng.random()) < log_ratio:
        state.corr[j, k] = state.corr[k, j] = cand
        try:
            state.refresh(corr_factor=cand_factor)
        except np.linalg.LinAlgError:
            # numerically non-PD despite being inside the support: back out
            state.corr[j, k] = state.corr[k, j] = cur
            state.refresh()
            return False
        return True
    return False
