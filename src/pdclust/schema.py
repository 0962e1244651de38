"""Variable declarations, dataset container, and the observed-to-latent layout.

Observed records mix continuous, ordinal and nominal variables. Each record
maps to a latent real vector: one coordinate per continuous or ordinal
variable and ``L - 1`` coordinates per nominal variable with ``L`` categories.
Continuous coordinates keep a free variance; every categorical coordinate has
its variance pinned to 1 because the data only identify its mean.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

CONTINUOUS = "continuous"
ORDINAL = "ordinal"
NOMINAL = "nominal"

_KIND_RANK = {CONTINUOUS: 0, ORDINAL: 1, NOMINAL: 2}

IDENTITY = "identity"
LOG_SHIFT = "log-shift"

#: Spacing between consecutive internal cut-offs of an ordinal variable.
CUTOFF_STEP = 4.0


class SchemaError(ValueError):
    """Invalid variable declaration or layout request."""


class ChainInvariantError(AssertionError):
    """A chain state failed one of its runtime consistency checks.

    Raised, not asserted, so that the checks also run under ``python -O``.
    """


def _check_positive(owner, names):
    """Raise ValueError naming the first of ``names`` that is not a finite number > 0."""
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                or not 0 < value < np.inf:
            raise ValueError(f"{name} must be a positive number, got {value!r}")


@dataclass(frozen=True)
class PriorConstants:
    """All fixed prior constants of the model.

    The inverse-gamma priors of the free kernel variances and of the
    base-measure variances; the discount's point mass at 0 and Beta; the
    Gamma prior on strength + discount.
    """

    var_prior_shape: float = 1.0
    var_prior_scale: float = 1.0
    base_prior_shape: float = 1.0
    base_prior_scale: float = 1.0
    discount_zero_prob: float = 0.5
    discount_beta1: float = 1.0
    discount_beta2: float = 1.0
    strength_shape: float = 1.0
    strength_rate: float = 1.0

    def __post_init__(self):
        value = self.discount_zero_prob
        if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                or not 0.0 <= value <= 1.0:
            raise ValueError(f"discount_zero_prob must lie in [0, 1], got {value!r}")
        _check_positive(self, [f.name for f in fields(self) if f.name != "discount_zero_prob"])


@dataclass(frozen=True)
class TransformSpec:
    """Normalising transform of a continuous variable.

    ``identity`` leaves a column as it is; ``log-shift`` maps a column ``y``
    to ``log(y + shift)``, where ``shift`` is the empirical quantile of
    order ``shift_quantile`` of that same column. Every method takes the
    whole column it transforms.
    """

    kind: str = IDENTITY
    shift_quantile: float = 0.01

    def __post_init__(self):
        if self.kind not in (IDENTITY, LOG_SHIFT):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if not 0.0 < self.shift_quantile < 1.0:
            raise ValueError("shift quantile must lie in (0, 1)")

    def shift(self, column) -> float:
        """The log-shift's shift for ``column``: its ``shift_quantile`` quantile."""
        return float(np.quantile(np.asarray(column, dtype=float), self.shift_quantile))

    def unmapped(self, column) -> np.ndarray:
        """Mask of the values the transform cannot map, those with y + shift <= 0.

        :func:`validate_dataset` names their records.
        """
        column = np.asarray(column, dtype=float)
        if self.kind == IDENTITY:
            return np.zeros(column.shape, dtype=bool)
        return column + self.shift(column) <= 0

    def apply(self, column) -> np.ndarray:
        column = np.asarray(column, dtype=float)
        if self.kind == IDENTITY:
            return column
        shifted = column + self.shift(column)
        if np.any(shifted <= 0):
            raise ValueError("log-shift argument must be positive for all records")
        return np.log(shifted)


@dataclass(frozen=True)
class VariableSpec:
    """Declaration of one observed variable.

    Parameters
    ----------
    name : str
        Column name, unique within a schema.
    kind : str
        One of ``"continuous"``, ``"ordinal"``, ``"nominal"``.
    levels : tuple of str
        Ordered level labels (ordinal) or category labels (nominal); at
        least two, all distinct. Empty for continuous variables.
    transform : TransformSpec or None
        Normalising transform of a continuous variable; left out, it is the
        identity ``TransformSpec()``, which the spec then holds. Ordinal and
        nominal variables take none and hold ``None``.
    """

    name: str
    kind: str
    levels: tuple[str, ...] = ()
    transform: TransformSpec | None = None

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise SchemaError(f"unknown variable kind {self.kind!r}")
        if not self.name:
            raise SchemaError("variable name must be non-empty")
        if self.kind == CONTINUOUS:
            if self.levels:
                raise SchemaError(f"{self.name}: continuous variables take no levels")
            if self.transform is None:
                object.__setattr__(self, "transform", TransformSpec())
        else:
            if len(self.levels) < 2:
                raise SchemaError(
                    f"{self.name}: {self.kind} variable needs at least 2 levels"
                )
            if len(set(self.levels)) != len(self.levels):
                raise SchemaError(f"{self.name}: level labels must be distinct")
            if self.transform is not None:
                raise SchemaError(f"{self.name}: transforms apply to continuous only")

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def latent_width(self) -> int:
        """Number of latent coordinates this variable occupies."""
        if self.kind == NOMINAL:
            return len(self.levels) - 1
        return 1


def ordinal_spec(name: str, n_levels: int) -> VariableSpec:
    """Ordinal variable with auto-generated labels '0'..'K-1'."""
    return VariableSpec(name, ORDINAL, tuple(str(i) for i in range(n_levels)))


def nominal_spec(name: str, n_levels: int) -> VariableSpec:
    """Nominal variable with auto-generated labels '0'..'L-1'."""
    return VariableSpec(name, NOMINAL, tuple(str(i) for i in range(n_levels)))


def continuous_spec(name: str, transform: TransformSpec = TransformSpec()) -> VariableSpec:
    return VariableSpec(name, CONTINUOUS, (), transform)


def default_cutoffs(n_levels: int) -> np.ndarray:
    """Fixed thresholds for an ordinal variable with ``n_levels`` levels.

    Returns the length ``n_levels + 1`` vector
    ``(-inf, 0, 4, 8, ..., 4*(n_levels - 2), +inf)``. Together with the unit
    variance constraint this caps the mass a single kernel can put on any
    internal level at about 0.9545.
    """
    if n_levels < 2:
        raise SchemaError("ordinal variables need at least 2 levels")
    internal = CUTOFF_STEP * np.arange(n_levels - 1, dtype=float)
    return np.concatenate(([-np.inf], internal, [np.inf]))


@dataclass(frozen=True, eq=False)
class Schema:
    """Deterministic layout from observed vectors to latent vectors.

    ``variables`` is held in canonical order (continuous, then ordinal, then
    nominal); ``input_index[k]`` gives the dataset column of canonical
    variable ``k`` so results can be reported in the caller's order.
    """

    variables: tuple[VariableSpec, ...]
    input_index: tuple[int, ...]
    q: int
    latent_starts: tuple[int, ...]
    free_variance: tuple[bool, ...]
    cutoffs: tuple[tuple[float, ...] | None, ...]

    @property
    def p(self) -> int:
        return len(self.variables)

    def latent_slice(self, k: int) -> slice:
        """Latent coordinate range of canonical variable ``k``."""
        start = self.latent_starts[k]
        return slice(start, start + self.variables[k].latent_width)

    def free_mask(self) -> np.ndarray:
        return np.asarray(self.free_variance, dtype=bool)

    def cutoff_array(self, k: int) -> np.ndarray:
        cuts = self.cutoffs[k]
        if cuts is None:
            raise SchemaError(f"variable {self.variables[k].name!r} has no cut-offs")
        return np.asarray(cuts, dtype=float)

    def input_order(self) -> np.ndarray:
        """Permutation mapping input column -> canonical variable index."""
        inv = np.empty(self.p, dtype=int)
        inv[np.asarray(self.input_index)] = np.arange(self.p)
        return inv


def build_schema(specs: Sequence[VariableSpec]) -> Schema:
    """Canonicalise variable order and compute the latent layout.

    Input may interleave kinds; the canonical order is continuous, ordinal,
    nominal with the relative order inside each kind preserved.
    """
    specs = list(specs)
    if not specs:
        raise SchemaError("empty variable list")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise SchemaError("variable names must be unique")

    order = sorted(range(len(specs)), key=lambda i: (_KIND_RANK[specs[i].kind], i))
    variables = tuple(specs[i] for i in order)

    starts = []
    cuts: list[tuple[float, ...] | None] = []
    free: list[bool] = []
    pos = 0
    for v in variables:
        starts.append(pos)
        pos += v.latent_width
        if v.kind == CONTINUOUS:
            free.append(True)
            cuts.append(None)
        elif v.kind == ORDINAL:
            free.append(False)
            cuts.append(tuple(default_cutoffs(v.n_levels)))
        else:
            free.extend([False] * v.latent_width)
            cuts.append(None)

    return Schema(
        variables=variables,
        input_index=tuple(order),
        q=pos,
        latent_starts=tuple(starts),
        free_variance=tuple(free),
        cutoffs=tuple(cuts),
    )


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed records with sampling weights.

    ``values`` has one column per schema variable in input order; categorical
    entries are 0-based level codes stored as floats. ``weights`` are the
    expansion factors ``w = 1/pi``; ``pis`` the matching inclusion
    probabilities. Arrays are set read-only at construction.
    """

    values: np.ndarray
    weights: np.ndarray
    pis: np.ndarray = field(init=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1:
            raise SchemaError("values must be a non-empty 2-D array")
        weights = np.array(self.weights, dtype=float)
        if weights.shape != (values.shape[0],):
            raise SchemaError("weights must have one entry per record")
        with np.errstate(divide="ignore", over="ignore"):
            pis = 1.0 / weights
        for arr in (values, weights, pis):
            arr.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "pis", pis)

    @classmethod
    def from_values(cls, values, weights=None) -> "Dataset":
        values = np.asarray(values, dtype=float)
        if weights is None:
            weights = np.ones(values.shape[0])
        return cls(values=values, weights=weights)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @property
    def wbar(self) -> float:
        return float(self.weights.mean())


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_dataset`; ``errors`` holds
    (record index, variable name, reason) triples."""

    errors: list[tuple[int, str, str]]

    @property
    def ok(self) -> bool:
        return not self.errors

    def __str__(self) -> str:
        if self.ok:
            return "dataset ok"
        lines = [f"{len(self.errors)} problem(s) found:"]
        lines += [f"  record {i}, {name}: {why}" for i, name, why in self.errors]
        return "\n".join(lines)


def validate_dataset(ds: Dataset, schema: Schema) -> ValidationReport:
    """Check every record against the schema's range, transform and weight constraints."""
    errors: list[tuple[int, str, str]] = []
    if ds.p != schema.p:
        errors.append((-1, "<dataset>", f"expected {schema.p} columns, got {ds.p}"))
        return ValidationReport(errors)

    positive = np.isfinite(ds.weights) & (ds.weights > 0)
    for i in np.flatnonzero(~positive):
        errors.append((int(i), "<weight>", "nonpositive weight"))
    # a positive weight below about 5.6e-309 overflows 1/w
    for i in np.flatnonzero(positive & ~np.isfinite(ds.pis)):
        errors.append((int(i), "<weight>", "sampling probability 1/w is not finite"))

    for k, v in enumerate(schema.variables):
        col = ds.values[:, schema.input_index[k]]
        if v.kind == CONTINUOUS:
            finite = np.isfinite(col)
            for i in np.flatnonzero(~finite):
                errors.append((int(i), v.name, "non-finite value"))
            unmapped = np.flatnonzero(v.transform.unmapped(col)) if finite.all() else []
            shift = v.transform.shift(col) if len(unmapped) else None
            for i in unmapped:
                errors.append((int(i), v.name, f"log-shift argument {float(col[i])!r} + "
                                               f"{shift!r} is not positive"))
            continue
        not_int = np.abs(col - np.round(col)) > 1e-9
        out_of_range = (col < 0) | (col > v.n_levels - 1)
        for i in np.flatnonzero(not_int | ~np.isfinite(col)):
            errors.append((int(i), v.name, f"non-integer code {float(col[i])!r}"))
        for i in np.flatnonzero(~not_int & np.isfinite(col) & out_of_range):
            errors.append(
                (int(i), v.name, f"code {int(round(col[i]))} outside 0..{v.n_levels - 1}")
            )

    errors.sort(key=lambda e: (e[0], e[1]))
    return ValidationReport(errors)
