"""Timing and counting wrappers installed on pdclust's module attributes.

The sampler and the CLI reach their collaborators through module globals
(``run_chain`` calls ``gibbs_sweep`` by name, ``gibbs_sweep`` calls
``update_mu_i`` by name), so replacing those attributes from outside sees
every call without editing the program. The wrappers only read the state
they are handed and draw no random numbers: a traced chain has to
reproduce the untraced chain bit for bit, and the benchmark checks that it
does.

A name that the program no longer has is reported as absent and skipped;
the metrics that depend on it read 0.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import logging
import time
from collections import Counter

import numpy as np

SWEEP = "sampler.sweep"

#: Conditionals (a)-(h) of one Gibbs sweep, in sweep order, plus the scatter
#: matrix the covariance steps share. Owner module, attribute, metric key.
SAMPLER_TARGETS = [
    ("pdclust.sampler", "gibbs_sweep", SWEEP),
    ("pdclust.sampler", "update_mu_i", "sampler.urn"),
    ("pdclust.sampler", "update_unique_mus", "sampler.locations"),
    ("pdclust.sampler", "update_base_scales", "pdprocess.base_scales"),
    ("pdclust.sampler", "scatter_matrix", "covariance.scatter"),
    ("pdclust.sampler", "update_variance", "covariance.variance"),
    ("pdclust.sampler", "update_correlation", "covariance.correlation"),
    ("pdclust.sampler", "update_discount", "pdprocess.discount"),
    ("pdclust.sampler", "update_strength", "pdprocess.strength"),
    ("pdclust.sampler", "resample_latents", "latent.resample"),
]

#: Invariant checks that run_chain makes after every kept sweep.
CHECK_TARGETS = [
    ("pdclust.sampler", "MixtureState.check", "sampler.checks"),
    ("pdclust.sampler", "CovarianceState.check", "sampler.checks"),
    ("pdclust.sampler", "LatentState.check_consistent", "sampler.checks"),
]

#: Post-processing as the CLI calls it.
CLI_TARGETS = [
    ("pdclust.cli", "similarity", "postproc.similarity"),
    ("pdclust.cli", "dahl_select", "postproc.dahl"),
    ("pdclust.cli", "min_hm_select", "postproc.min_hm"),
    ("pdclust.cli", "hm_measure", "postproc.hm"),
    ("pdclust.cli", "expand_variables", "postproc.expand"),
    ("pdclust.cli", "cluster_summary", "postproc.summary"),
    ("pdclust.cli", "write_similarity_binary", "dataio.write_similarity"),
]

ALL_TARGETS = SAMPLER_TARGETS + CHECK_TARGETS + CLI_TARGETS

#: Keys of the wrapped functions that gibbs_sweep calls.
SWEEP_PARTS = tuple(key for _, _, key in SAMPLER_TARGETS if key != SWEEP)

#: Keys whose time makes up ``postproc_s``: similarity, selection, HM, summary.
POSTPROC_KEYS = ("postproc.similarity", "postproc.dahl", "postproc.min_hm",
                 "postproc.hm", "postproc.expand", "postproc.summary")

#: Sweep conditionals by the letters the paper gives them.
CONDITIONALS = [
    ("a_urn", "sampler.urn"),
    ("b_locations", "sampler.locations"),
    ("c_base_var", "pdprocess.base_scales"),
    ("d_variance", "covariance.variance"),
    ("e_correlation", "covariance.correlation"),
    ("f_discount", "pdprocess.discount"),
    ("g_strength", "pdprocess.strength"),
    ("h_latents", "latent.resample"),
]


class ReachedBoundary(Exception):
    """Raised by a wrapper when the tracer was asked to stop at the first call."""


def _arg_getter(fn, name):
    """Reader of argument ``name`` from a call's (args, kwargs), or None."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if name not in params:
        return None
    pos = params.index(name)

    def get(args, kwargs):
        return args[pos] if pos < len(args) else kwargs.get(name)

    return get


class _ClampCounter(logging.Handler):
    """Counts truncation regions the latent sampler clamped to a boundary."""

    def __init__(self, counts: Counter):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if "clamp" in str(record.msg):
            n = record.args[0] if record.args and isinstance(record.args[0], int) else 1
            self.counts["latent.clamps"] += n


class Tracer:
    """Wraps ``targets`` for the duration of :meth:`installed`.

    Each wrapper adds its call's wall time to ``seconds[key]`` and one to
    ``calls[key]``; time spent in wrapped callees, wrappers included, is
    added to ``child`` of the enclosing wrapped call, or to ``top_level``
    when there is none. With ``counters`` on, hooks also count
    urn births, deaths and marginal-cache misses, Metropolis acceptances
    and cluster counts. ``first_call`` is the clock at the first wrapped
    call, which marks the end of set-up; with ``halt`` set, that call
    raises :class:`ReachedBoundary` instead of running.
    """

    def __init__(self, targets, counters: bool = False, halt: bool = False):
        self.targets = list(targets)
        self.counters = counters
        self.halt = halt
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.child: Counter = Counter()
        self.counts: Counter = Counter()
        self.sweep_s: list[float] = []
        self.top_level = 0.0
        self.first_call: float | None = None
        self.absent: list[str] = []
        self._stack: list[list[float]] = []

    # -- installation -----------------------------------------------------

    def _resolve(self, module, attr):
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name, vars(owner)[name]

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in; they are swapped back however the block exits."""
        saved = []
        logger = logging.getLogger("pdclust.latent")
        handler = _ClampCounter(self.counts)
        self.absent = []
        try:
            for module, attr, key in self.targets:
                try:
                    owner, name, original = self._resolve(module, attr)
                except (ImportError, AttributeError, KeyError):
                    self.absent.append(f"{module}.{attr}")
                    continue
                setattr(owner, name, self._wrap(key, original))
                saved.append((owner, name, original))
            logger.addHandler(handler)
            yield self
        finally:
            logger.removeHandler(handler)
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    # -- wrapping ---------------------------------------------------------

    def _hook(self, key, fn):
        if not self.counters:
            return None
        factory = _HOOKS.get(key)
        return factory(fn, self.counts) if factory else None

    def _wrap(self, key, fn):
        tracer = self
        seconds, calls, child, stack = self.seconds, self.calls, self.child, self._stack
        sweep_s = self.sweep_s if key == SWEEP else None
        hook = self._hook(key, fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            if tracer.first_call is None:
                tracer.first_call = t_in
            if tracer.halt:
                raise ReachedBoundary(key)
            state = hook.before(args, kwargs) if hook else None
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                seconds[key] += dt
                calls[key] += 1
                child[key] += frame[0]
                if sweep_s is not None:
                    sweep_s.append(dt)
            if hook:
                hook.after(state, args, kwargs, result)
            # the caller's child time includes this wrapper's own cost
            outer = clock() - t_in
            if stack:
                stack[-1][0] += outer
            else:
                tracer.top_level += outer
            return result

        return wrapper

    # -- derived numbers --------------------------------------------------

    def postproc_s(self) -> float:
        return sum(self.seconds[k] for k in POSTPROC_KEYS)

    def conditionals_s(self) -> float:
        """Time inside the wrapped functions a sweep calls."""
        return sum(self.seconds[k] for k in SWEEP_PARTS)

    def net_sweep_s(self) -> float:
        """Sweep time less the cost of the wrappers inside the sweep."""
        return self.seconds[SWEEP] - (self.child[SWEEP] - self.conditionals_s())


# -- counting hooks ----------------------------------------------------------

class _UrnHook:
    """Births, deaths and marginal-cache misses of one urn reassignment."""

    def __init__(self, fn, counts):
        self.counts = counts
        self.get_i = _arg_getter(fn, "i")
        self.get_mixture = _arg_getter(fn, "mixture")
        self.get_cache = _arg_getter(fn, "marg_cache")

    def before(self, args, kwargs):
        died = grew_from = None
        if self.get_i and self.get_mixture:
            mixture = self.get_mixture(args, kwargs)
            died = mixture.counts[mixture.labels[self.get_i(args, kwargs)]] == 1
        if self.get_cache:
            cache = self.get_cache(args, kwargs)
            grew_from = None if cache is None else len(cache)
        return died, grew_from

    def after(self, state, args, kwargs, result):
        died, grew_from = state
        if died is not None:
            mixture = self.get_mixture(args, kwargs)
            self.counts["sampler.urn.deaths"] += bool(died)
            self.counts["sampler.urn.births"] += bool(
                mixture.counts[mixture.labels[self.get_i(args, kwargs)]] == 1)
        if grew_from is not None:
            cache = self.get_cache(args, kwargs)
            self.counts["sampler.urn.marginal_misses"] += len(cache) > grew_from


class _AcceptHook:
    """Counts Metropolis steps that report acceptance by returning True."""

    def __init__(self, key, fn, counts):
        self.key, self.counts = key, counts

    def before(self, args, kwargs):
        return None

    def after(self, state, args, kwargs, result):
        self.counts[self.key + ".accepted"] += result is True


class _MovedHook:
    """Counts hyperparameter updates that return a value other than the old one."""

    def __init__(self, key, field, fn, counts):
        self.key, self.field, self.counts = key, field, counts
        self.get_hyper = _arg_getter(fn, "hyper")

    def before(self, args, kwargs):
        if self.get_hyper is None:
            return None
        return getattr(self.get_hyper(args, kwargs), self.field, None)

    def after(self, state, args, kwargs, result):
        if state is not None:
            self.counts[self.key + ".moved"] += result != state


class _SweepHook:
    """Sums the cluster count after each sweep."""

    def __init__(self, fn, counts):
        self.counts = counts
        self.get_mixture = _arg_getter(fn, "mixture")

    def before(self, args, kwargs):
        return None

    def after(self, state, args, kwargs, result):
        if self.get_mixture:
            self.counts["sampler.clusters_sum"] += self.get_mixture(args, kwargs).r


#: Hook factories by metric key, each called as ``factory(fn, counts)``.
_HOOKS = {
    SWEEP: _SweepHook,
    "sampler.urn": _UrnHook,
    "covariance.variance": functools.partial(_AcceptHook, "covariance.variance"),
    "covariance.correlation": functools.partial(_AcceptHook, "covariance.correlation"),
    "pdprocess.discount": functools.partial(_MovedHook, "pdprocess.discount", "discount"),
    "pdprocess.strength": functools.partial(_MovedHook, "pdprocess.strength", "strength"),
}


# -- output checks -------------------------------------------------------------

def fingerprint(*arrays) -> str:
    """SHA-256 over the raw bytes of ``arrays``, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def labels_ok(labels, n: int) -> bool:
    """Labels are contiguous 0..r-1 and cover exactly n records."""
    labels = np.asarray(labels)
    if labels.shape != (n,) or labels.min() < 0:
        return False
    counts = np.bincount(labels)
    return bool(np.all(counts >= 1) and counts.sum() == n)


def similarity_ok(sim, n: int, tol: float = 1e-12) -> bool:
    """Symmetric n x n matrix, unit diagonal, entries in [0, 1]."""
    sim = np.asarray(sim)
    return bool(sim.shape == (n, n)
                and np.all(np.abs(sim - sim.T) <= tol)
                and np.all(np.abs(np.diag(sim) - 1.0) <= tol)
                and np.all((sim >= -tol) & (sim <= 1.0 + tol)))


def selection_ok(selected, partitions) -> bool:
    """The selected partition is one of the stored partitions."""
    return bool(np.any(np.all(np.asarray(partitions) == np.asarray(selected), axis=1)))


def shares_ok(size_pct, tol: float) -> bool:
    """Cluster size shares sum to 100 percent."""
    return bool(abs(float(np.sum(size_pct)) - 100.0) <= tol)
