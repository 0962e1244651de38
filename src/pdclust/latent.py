"""Latent-vector maintenance: start values, decode rules, truncated resampling.

The latent matrix ``z`` must stay consistent with the observed data at all
times: continuous coordinates are deterministic transforms of the data,
ordinal coordinates live in the threshold interval of their observed level,
and each nominal block reproduces its observed category under the
sign/argmax decode rule.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .schema import CONTINUOUS, NOMINAL, ORDINAL, ChainInvariantError, Dataset, Schema

logger = logging.getLogger(__name__)

#: Standardised distance beyond which a one-sided region counts as "tail".
_TAIL_Z = 3.0


def decode_ordinal(z, cutoffs) -> np.ndarray:
    """Level index ``k`` of each entry, with ``cutoffs[k] < z <= cutoffs[k+1]`` (0-based)."""
    cutoffs = np.asarray(cutoffs, dtype=float)
    idx = np.searchsorted(cutoffs, z, side="left") - 1
    return np.clip(idx, 0, len(cutoffs) - 2)


def decode_levels(z: np.ndarray, schema: Schema, k: int) -> np.ndarray:
    """Level codes of ordinal or nominal variable ``k`` decoded from latent matrix ``z``.

    A record of a nominal variable takes the last category when every
    coordinate of its block is negative, otherwise the position of the
    block's maximum (ties resolved to the lowest index).
    """
    sl = schema.latent_slice(k)
    if schema.variables[k].kind == ORDINAL:
        return decode_ordinal(z[:, sl.start], schema.cutoff_array(k))
    block = z[:, sl]
    cat = np.argmax(block, axis=1)
    cat[block.max(axis=1) < 0] = block.shape[1]
    return cat


def conditional_moments(prec, mu, z, coord: int, scale):
    """Mean and variance of one coordinate given the rest of a Gaussian.

    For ``z ~ N(mu, scale * inv(prec))`` returns ``(nu, var)`` with
    ``nu = mu[coord] - sum_{l != coord} prec[coord, l] (z[l] - mu[l]) /
    prec[coord, coord]`` and ``var = scale / prec[coord, coord]``. ``mu``
    and ``z`` are arrays that may carry leading record axes, with ``scale``
    a scalar or one value per record.
    """
    gap = z - mu
    slope = gap @ prec[:, coord] - prec[coord, coord] * gap[..., coord]
    nu = mu[..., coord] - slope / prec[coord, coord]
    var = scale / prec[coord, coord]
    return nu, var


def _robert_tail(rng, a):
    """Standard-normal draws conditioned on exceeding ``a`` (all a >= 0)."""
    out = np.empty_like(a)
    pending = np.arange(a.size)
    lam = 0.5 * (a + np.sqrt(a * a + 4.0))
    for _ in range(100):
        x = a[pending] + rng.exponential(1.0, size=pending.size) / lam[pending]
        accept = np.log(rng.random(pending.size)) <= -0.5 * (x - lam[pending]) ** 2
        out[pending[accept]] = x[accept]
        pending = pending[~accept]
        if pending.size == 0:
            break
    else:  # pragma: no cover - acceptance rate is ~1 for a >= 3
        out[pending] = a[pending]
    return out


def _truncated_normal_std(rng, a, b):
    """One standard-normal draw per element, conditioned on (a[i], b[i])."""
    x = np.empty_like(a)
    # mirror left-tail regions so every tail case is a right tail
    flip = b <= -_TAIL_Z
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)

    tail = lo >= _TAIL_Z
    mid = ~tail
    if np.any(mid):
        u0 = ndtr(lo[mid])
        u1 = ndtr(hi[mid])
        u = u0 + (u1 - u0) * rng.random(int(mid.sum()))
        x[mid] = ndtri(u)
    if np.any(tail):
        one_sided = tail & np.isinf(hi)
        two_sided = tail & ~one_sided
        if np.any(one_sided):
            x[one_sided] = _robert_tail(rng, lo[one_sided])
        if np.any(two_sided):
            # invert on the survival scale, exact in the far right tail
            s_lo = ndtr(-lo[two_sided])
            s_hi = ndtr(-hi[two_sided])
            u = s_hi + (s_lo - s_hi) * rng.random(int(two_sided.sum()))
            x[two_sided] = -ndtri(u)

    x = np.where(flip, -x, x)

    degenerate = ~np.isfinite(x) | (x < a) | (x > b)
    if np.any(degenerate):
        logger.warning(
            "%d truncation region(s) with numerically zero mass; clamping to boundary",
            int(degenerate.sum()),
        )
        near_lower = np.abs(a) <= np.abs(b)
        span = np.where(np.isfinite(b - a), b - a, 1.0)
        eps = 1e-8 * np.minimum(1.0, span)
        fallback = np.where(near_lower, a + eps, b - eps)
        x = np.where(degenerate, fallback, x)
    return x


def sample_truncated_normal_many(mean, var, lower, upper, rng) -> np.ndarray:
    """Vectorised truncated-normal sampling, one region per element.

    Draws land strictly inside their region so the decode rules hold even
    for open interval ends.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.sqrt(np.asarray(var, dtype=float))
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    with np.errstate(invalid="ignore"):
        a = (lower - mean) / sd
        b = (upper - mean) / sd
    x = _truncated_normal_std(rng, a, b)
    z = mean + sd * x
    z = np.where(z <= lower, np.nextafter(lower, np.inf), z)
    z = np.where(z >= upper, np.nextafter(upper, -np.inf), z)
    return z


@dataclass
class LatentState:
    """The n x q latent matrix plus the data it must stay consistent with."""

    z: np.ndarray
    dataset: Dataset
    schema: Schema

    def observed_column(self, k: int) -> np.ndarray:
        return self.dataset.values[:, self.schema.input_index[k]]

    def check_consistent(self) -> None:
        """Raise ChainInvariantError unless decode reproduces the observed data."""
        for k, v in enumerate(self.schema.variables):
            if v.kind == CONTINUOUS:
                expect = v.transform.apply(self.observed_column(k))
                if not np.array_equal(self.z[:, self.schema.latent_slice(k).start], expect):
                    raise ChainInvariantError(f"continuous latent drifted for {v.name}")
            elif not np.array_equal(decode_levels(self.z, self.schema, k),
                                    self.observed_column(k).astype(int)):
                raise ChainInvariantError(f"{v.kind} decode mismatch for {v.name}")


def initial_latents(dataset: Dataset, schema: Schema) -> LatentState:
    """Deterministic constraint-satisfying start for the latent matrix.

    Ordinal coordinates start at the midpoint of their level's interval
    (one unit inside for half-infinite intervals); nominal blocks start at
    +1 in the observed slot and -1 elsewhere.
    """
    n = dataset.n
    z = np.zeros((n, schema.q))
    for k, v in enumerate(schema.variables):
        sl = schema.latent_slice(k)
        col = dataset.values[:, schema.input_index[k]]
        if v.kind == CONTINUOUS:
            z[:, sl.start] = v.transform.apply(col)
        elif v.kind == ORDINAL:
            cuts = schema.cutoff_array(k)
            lo = cuts[col.astype(int)]
            hi = cuts[col.astype(int) + 1]
            start = np.where(
                np.isfinite(lo) & np.isfinite(hi),
                0.5 * (lo + hi),
                np.where(np.isfinite(lo), lo + 1.0, hi - 1.0),
            )
            z[:, sl.start] = start
        else:
            codes = col.astype(int)
            z[:, sl] = -1.0
            width = v.latent_width
            has_slot = codes < width
            z[np.flatnonzero(has_slot), sl.start + codes[has_slot]] = 1.0
    return LatentState(z=z, dataset=dataset, schema=schema)


def _nominal_bounds(zblock, codes, slot):
    """Truncation bounds for one slot of a nominal block, per record."""
    n, width = zblock.shape
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    last = codes == width  # observed category is the reference (last) one
    upper[last] = 0.0
    sel = codes == slot
    if np.any(sel):
        others = np.delete(zblock[sel], slot, axis=1)
        floor = others.max(axis=1, initial=0.0)
        lower[sel] = floor
    other = ~last & ~sel
    if np.any(other):
        upper[other] = zblock[other, codes[other]]
    return lower, upper


def resample_latents(state: LatentState, mixture, cov, var_scale: float, pis, rng) -> LatentState:
    """Redraw categorical latent coordinates from their full conditionals.

    Continuous coordinates are untouched. The scan is deterministic:
    ordinal then nominal variables in canonical order, nominal slots in
    index order; each coordinate is updated for all records jointly, which
    conditions on the freshest values because records are independent.
    """
    schema = state.schema
    z = state.z
    mu = mixture.mus[mixture.labels]
    scale = var_scale * np.asarray(pis, dtype=float)

    def redraw(j, lower, upper):
        nu, var = conditional_moments(cov.sigma_inv, mu, z, j, scale)
        z[:, j] = sample_truncated_normal_many(nu, var, lower, upper, rng)

    for k, v in enumerate(schema.variables):
        sl = schema.latent_slice(k)
        codes = state.observed_column(k).astype(int)
        if v.kind == ORDINAL:
            cuts = schema.cutoff_array(k)
            redraw(sl.start, cuts[codes], cuts[codes + 1])
        elif v.kind == NOMINAL:
            for slot in range(v.latent_width):
                lower, upper = _nominal_bounds(z[:, sl], codes, slot)
                redraw(sl.start + slot, lower, upper)
    return state
