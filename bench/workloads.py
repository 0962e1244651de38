"""The benchmark's workloads: inputs made from a seed, one timed operation, checks.

A workload prepares its inputs once per run (``prepare``), can time the
program's set-up alone (``setup_once``) and runs one operation
(``run_op``), which the benchmark repeats until its time is up. Every
operation checks its outputs and returns a fingerprint, so a repeat at the
same seed, or a traced repeat, must reproduce it exactly.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pdclust as pc
from pdclust import cli, dataio, sampler, simgen

from harness import (CLI_TARGETS, SWEEP, ReachedBoundary, Tracer, fingerprint,
                     labels_ok, selection_ok, shares_ok, similarity_ok)

#: Variance-prior preset C of the paper: (shape, scale) = (2.1, 30).
PRESET_C = pc.PriorConstants(var_prior_shape=2.1, var_prior_scale=30.0,
                             base_prior_shape=2.1, base_prior_scale=30.0)

#: Printing "%.6g" leaves each size share within 5e-5 relative of its value.
SHARES_TOL = 1e-3

clock = time.perf_counter


@dataclass
class OpResult:
    """Timings, checks and fingerprint of one operation."""

    tracer: Tracer
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    total_s: float | None = None
    chain_s: float = 0.0
    postproc_s: float = 0.0
    setup_samples: list[float] = field(default_factory=list)
    partitions: int = 0
    fingerprint: str = ""

    def record(self, attempted: int, failed: int, what: str):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str):
        self.record(1, int(not ok), what)


def _seeds(seed: int) -> tuple[int, int]:
    """Data seed and chain seed, both drawn from the workload seed."""
    data_seed, chain_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(data_seed), int(chain_seed)


def _summary_shares(lines) -> np.ndarray:
    """Size shares of the cluster rows of a summary table as the CLI prints it."""
    header = lines[0].split(",")
    col = header.index("size_pct")
    rows = [line.split(",") for line in lines[1:]]
    return np.array([float(r[col]) for r in rows if r[0] != "pop"])


# -- chain workloads ----------------------------------------------------------

@dataclass(frozen=True)
class ChainWorkload:
    """One chain of a benchmark scenario, then the run verb's post-processing."""

    scenario: str
    iterations: int = 500
    burnin: int = 200
    thinning: int = 3
    setup_repeats: int = 20
    boundary = [("pdclust.sampler", "gibbs_sweep", SWEEP)]

    def prepare(self, seed: int, workdir: Path):
        data_seed, chain_seed = _seeds(seed)
        spec = pc.ScenarioSpec(self.scenario, seed=data_seed)
        gen = pc.gen_study2 if self.scenario in simgen.STUDY2 else pc.gen_study1
        dataset, _ = gen(spec)
        schema = pc.build_schema(pc.scenario_variable_specs(self.scenario))
        mode, var_scale = pc.scenario_sampler_settings(self.scenario, dataset.wbar)
        config = pc.SamplerConfig(
            iterations=self.iterations, burnin=self.burnin, thinning=self.thinning,
            seed=chain_seed, weight_mode=mode, var_scale=var_scale, priors=PRESET_C)
        return dataset, schema, config

    def setup_once(self, inputs) -> float:
        """Seconds from calling run_chain until it starts the first sweep."""
        tracer = Tracer(self.boundary, halt=True)
        with tracer.installed():
            t0 = clock()
            try:
                sampler.run_chain(*inputs)
            except ReachedBoundary:
                return tracer.first_call - t0
        raise RuntimeError("run_chain returned without starting a sweep")

    def run_op(self, inputs, tracer: Tracer) -> OpResult:
        dataset, schema, config = inputs
        n = dataset.n
        op = OpResult(tracer)
        with tracer.installed():
            t0 = clock()
            try:
                out = sampler.run_chain(dataset, schema, config)
            except (np.linalg.LinAlgError, AssertionError) as err:
                op.record(tracer.calls[SWEEP], 1, f"sweeps (aborted: {err!r})")
                return op
            t1 = clock()
            sim = cli.similarity(out.partitions)
            selected, _ = cli.dahl_select(out.partitions, sim)
            expanded = cli.expand_variables(dataset, schema)
            cli.hm_measure(selected, expanded, dataset.weights)
            summary = cli.cluster_summary(selected, dataset, schema)
            t2 = clock()

        op.total_s, op.chain_s, op.postproc_s = t2 - t0, t1 - t0, t2 - t1
        op.setup_samples.append(tracer.first_call - t0)
        op.partitions = out.kept
        op.record(tracer.calls[SWEEP], 0, "sweeps")
        bad = sum(not (labels_ok(p, n) and np.bincount(p).size == r)
                  for p, r in zip(out.partitions, out.trace_r))
        op.record(out.kept, bad, "kept partitions contiguous 0..r-1 over n records")
        op.check(similarity_ok(sim, n), "similarity matrix")
        op.check(selection_ok(selected, out.partitions), "selection is a stored partition")
        op.check(shares_ok(_summary_shares(summary.to_lines()), SHARES_TOL),
                 "summary size shares sum to 100")
        op.fingerprint = fingerprint(out.partitions, out.trace_discount,
                                     out.trace_strength, out.trace_r,
                                     out.trace_var, out.trace_base_var)
        return op


# -- summarize workload ---------------------------------------------------------

def survey_dataset(rng, n: int):
    """Survey-like records of the README schema, plus the groups behind them.

    Four groups differ in income (log-normal), deprivation (binary),
    education (3-level ordinal) and town size (4-level nominal). Expansion
    weights are log-normal, so every record has its own inclusion
    probability.
    """
    groups = rng.choice(4, size=n, p=[0.4, 0.3, 0.2, 0.1])
    income = np.exp(rng.normal(7.0 + 0.6 * groups, 0.5))
    deprived = rng.random(n) < np.array([0.5, 0.3, 0.15, 0.05])[groups]
    hedu = np.minimum(rng.poisson(0.4 + 0.5 * groups), 2)
    town = np.where(rng.random(n) < 0.6, groups, rng.integers(0, 4, n))
    values = np.column_stack([income, deprived, hedu, town]).astype(float)
    weights = rng.lognormal(np.log(200.0), 0.8, size=n)
    specs = [
        pc.continuous_spec("income", pc.TransformSpec(kind="log-shift")),
        pc.ordinal_spec("deprived", 2),
        pc.ordinal_spec("hedu", 3),
        pc.nominal_spec("town", 4),
    ]
    return pc.Dataset(values=values, weights=weights), specs, groups


def relabel(labels) -> np.ndarray:
    """Contiguous 0..r-1 labels in order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def draw_partitions(rng, groups, kept: int) -> np.ndarray:
    """Posterior-like partitions around ``groups``, with r varying per draw.

    Each draw may merge two groups, moves 2-15 % of the records to random
    labels among the groups and up to four extra clusters, and is then
    relabelled contiguously.
    """
    n, r0 = groups.size, int(groups.max()) + 1
    parts = np.empty((kept, n), dtype=np.int64)
    for t in range(kept):
        labels = groups.copy()
        if rng.random() < 0.3:
            a, b = rng.choice(r0, size=2, replace=False)
            labels[labels == b] = a
        moved = rng.random(n) < rng.uniform(0.02, 0.15)
        labels[moved] = rng.integers(0, r0 + rng.integers(0, 5), moved.sum())
        parts[t] = relabel(labels)
    return parts


@dataclass(frozen=True)
class SummarizeWorkload:
    """The summarize verb, once with Dahl and once with min-HM selection."""

    n: int = 1000
    kept: int = 1500
    setup_repeats: int = 1
    selections = ("dahl", "min-hm")
    boundary = CLI_TARGETS

    def prepare(self, seed: int, workdir: Path):
        """Write a run directory holding the data and ``kept`` stored partitions.

        The directory comes from a two-sweep ``pdclust run``, whose
        partition file is then replaced by the benchmark's own draws.
        """
        data_seed, part_seed = _seeds(seed)
        dataset, specs, groups = survey_dataset(np.random.default_rng(data_seed), self.n)
        run_dir = workdir / "run"
        run_dir.mkdir(parents=True)
        dataio.write_data_csv(run_dir / "data.csv", dataset, specs, "factor")
        dataio.write_schema_file(run_dir / "schema.txt", specs, "factor")
        code = cli.main(["run", "--data", str(run_dir / "data.csv"),
                         "--schema", str(run_dir / "schema.txt"), "--out", str(run_dir),
                         "--iterations", "2", "--burnin", "1", "--thinning", "1",
                         "--seed", str(data_seed)])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"pdclust run exited {code} while preparing the run directory")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        part_path = run_dir / manifest["chains"][0]["files"]["partitions"]
        header = part_path.read_text().splitlines()[0]
        partitions = draw_partitions(np.random.default_rng(part_seed), groups, self.kept)
        with open(part_path, "w") as fh:
            fh.write(header + "\n")
            np.savetxt(fh, partitions, fmt="%d", delimiter=",")
        return run_dir, partitions

    def setup_once(self, inputs) -> float:
        """Seconds from calling summarize until it starts post-processing."""
        run_dir, _ = inputs
        tracer = Tracer(self.boundary, halt=True)
        with tracer.installed():
            t0 = clock()
            try:
                cli.summarize_command(str(run_dir), self.selections[0])
            except ReachedBoundary:
                return tracer.first_call - t0
        raise RuntimeError("summarize returned without post-processing")

    def run_op(self, inputs, tracer: Tracer) -> OpResult:
        run_dir, partitions = inputs
        op = OpResult(tracer, total_s=0.0, partitions=partitions.shape[0])
        outputs = []
        for selection in self.selections:
            tracer.first_call = None
            with tracer.installed():
                t0 = clock()
                info = cli.summarize_command(str(run_dir), selection)
                op.total_s += clock() - t0
            op.setup_samples.append(tracer.first_call - t0)
            files = info["chains"][0]["files"]
            selected = np.loadtxt(run_dir / files["selected"], delimiter=",",
                                  skiprows=1, dtype=np.int64, ndmin=2)[:, 1]
            sim = dataio.read_similarity_binary(run_dir / files["similarity"])
            summary = (run_dir / files["summary"]).read_text()
            op.check(labels_ok(selected, self.n), f"{selection}: selected labels")
            op.check(similarity_ok(sim, self.n), f"{selection}: similarity matrix")
            op.check(selection_ok(selected, partitions),
                     f"{selection}: selection is a stored partition")
            op.check(shares_ok(_summary_shares(summary.splitlines()), SHARES_TOL),
                     f"{selection}: summary size shares sum to 100")
            outputs += [selected, sim, np.frombuffer(summary.encode(), dtype=np.uint8)]
        op.postproc_s = tracer.postproc_s()
        op.fingerprint = fingerprint(*outputs)
        return op


WORKLOADS = {
    "grid-design": ChainWorkload("V"),
    "mixed-ordinal": ChainWorkload("III"),
    "summarize-n1000": SummarizeWorkload(),
}
