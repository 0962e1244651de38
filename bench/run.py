"""pdclust benchmark: run one workload at one seed and print its metrics.

    python3 bench/run.py --workload grid-design --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. See
``bench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: BLAS and OpenMP pools are pinned to one thread before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Metric name -> unit; the same table as BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "sampler.chain_s": "s",
    "sampler.sweep_ms_p50": "ms",
    "sampler.sweep_ms_p99": "ms",
    "sampler.urn.s": "s",
    "sampler.urn.calls": "count",
    "sampler.urn.us_per_record": "us",
    "sampler.urn.marginal_miss_frac": "frac",
    "sampler.urn.births": "count",
    "sampler.urn.deaths": "count",
    "sampler.locations.s": "s",
    "sampler.checks.s": "s",
    "sampler.sweep.other_s": "s",
    "sampler.clusters_mean": "count",
    "covariance.scatter.s": "s",
    "covariance.variance.s": "s",
    "covariance.variance.accept_frac": "frac",
    "covariance.correlation.s": "s",
    "covariance.correlation.calls": "count",
    "covariance.correlation.accept_frac": "frac",
    "latent.resample.s": "s",
    "latent.clamps": "count",
    "pdprocess.base_scales.s": "s",
    "pdprocess.discount.s": "s",
    "pdprocess.discount.moved_frac": "frac",
    "pdprocess.strength.s": "s",
    "pdprocess.strength.moved_frac": "frac",
    "postproc.similarity.s": "s",
    "postproc.dahl.s": "s",
    "postproc.min_hm.s": "s",
    "postproc.hm.s": "s",
    "postproc.expand.s": "s",
    "postproc.summary.s": "s",
    "postproc.partitions": "count",
    "cli.summarize.self_s": "s",
    "dataio.write_similarity.s": "s",
    "trace.coverage_frac": "frac",
    "trace.overhead_frac": "frac",
    "share.a_urn": "frac",
    "share.b_locations": "frac",
    "share.c_base_var": "frac",
    "share.d_variance": "frac",
    "share.e_correlation": "frac",
    "share.f_discount": "frac",
    "share.g_strength": "frac",
    "share.h_latents": "frac",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def percentile_ms(seconds, q) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(seconds) * 1e3, q)) if seconds else 0.0


def layer_metrics(op, untraced) -> dict:
    """Per-layer numbers of one traced operation and the untraced one run beside it."""
    from harness import CONDITIONALS, SWEEP

    tr = op.tracer
    s, calls, counts = tr.seconds, tr.calls, tr.counts
    sweep_s = tr.net_sweep_s()
    urn_calls = calls["sampler.urn"]
    m = {
        "sampler.chain_s": untraced.chain_s,
        "sampler.urn.calls": urn_calls,
        "sampler.urn.us_per_record": 1e6 * _ratio(s["sampler.urn"], urn_calls),
        "sampler.urn.marginal_miss_frac": _ratio(counts["sampler.urn.marginal_misses"],
                                                 urn_calls),
        "sampler.urn.births": counts["sampler.urn.births"],
        "sampler.urn.deaths": counts["sampler.urn.deaths"],
        "sampler.sweep.other_s": sweep_s - tr.conditionals_s(),
        "sampler.clusters_mean": _ratio(counts["sampler.clusters_sum"], calls[SWEEP]),
        "covariance.correlation.calls": calls["covariance.correlation"],
        "latent.clamps": counts["latent.clamps"],
        "postproc.partitions": op.partitions,
        "cli.summarize.self_s": 0.0 if sweep_s else op.total_s - tr.top_level,
        "trace.coverage_frac": (_ratio(tr.conditionals_s(), sweep_s) if sweep_s
                                else _ratio(tr.top_level, op.total_s)),
        "trace.overhead_frac": (op.chain_s / untraced.chain_s - 1.0 if sweep_s
                                else op.total_s / untraced.total_s - 1.0),
    }
    for key in ("covariance.variance", "covariance.correlation"):
        m[key + ".accept_frac"] = _ratio(counts[key + ".accepted"], calls[key])
    for key in ("pdprocess.discount", "pdprocess.strength"):
        m[key + ".moved_frac"] = _ratio(counts[key + ".moved"], calls[key])
    for share, key in CONDITIONALS:
        m["share." + share] = _ratio(s[key], sweep_s)
    for name in PER_LAYER:
        if name.endswith(".s"):
            m[name] = s[name[:-2]]
    return m


def _deadline_loop(run, seconds: float):
    """Call ``run()`` at least once, until another call would end past ``seconds``."""
    start = time.perf_counter()
    results, last = [], 0.0
    while not results or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        results.append(run())
        last = time.perf_counter() - t0
    return results


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run one workload; returns (metrics or None, operations, notes)."""
    from harness import ALL_TARGETS, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.prepare(seed, workdir)
    notes: list[str] = []
    ops = []

    def counted(op, reference=None):
        ops.append(op)
        notes.extend(op.errors)
        if reference is not None and op.total_s is not None:
            op.record(1, int(op.fingerprint != reference), "fingerprint matches")
        return op

    if trace:
        # untraced and traced operations alternate, so each overhead ratio
        # compares two neighbours in time on a machine whose speed drifts
        reference = None

        def run_pair():
            nonlocal reference
            untraced = counted(workload.run_op(inputs, Tracer(workload.boundary)), reference)
            if reference is None and untraced.total_s is not None:
                reference = untraced.fingerprint
            traced = workload.run_op(inputs, Tracer(ALL_TARGETS, counters=True))
            return untraced, counted(traced, reference)

        pairs = [(u, t) for u, t in _deadline_loop(run_pair, seconds)
                 if u.total_s is not None and t.total_s is not None]
        if not pairs:
            return None, ops, notes
        per_op = [layer_metrics(t, u) for u, t in pairs]
        metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
        sweeps = [dt for u, _ in pairs for dt in u.tracer.sweep_s]
        metrics["sampler.sweep_ms_p50"] = percentile_ms(sweeps, 50)
        metrics["sampler.sweep_ms_p99"] = percentile_ms(sweeps, 99)
        absent = pairs[0][1].tracer.absent
        if absent:
            notes.append("absent (reported as 0): " + ", ".join(absent))
        if metrics["sampler.urn.calls"]:
            notes.append("sweep shares: " + "  ".join(
                f"({k[6]}) {100 * metrics[k]:.1f}%" for k in PER_LAYER if k.startswith("share.")))
            notes.append(f"untraced sweep percentiles over {len(sweeps)} sweeps")
        notes.append(f"{len(pairs)} untraced/traced pairs; fingerprint {reference}")
        return metrics, ops, notes

    setups: list[float] = []
    reference = None

    def run_untraced():
        nonlocal reference
        # set-ups are spread over the run so their median sees the whole run
        setups.extend(workload.setup_once(inputs) for _ in range(workload.setup_repeats))
        op = counted(workload.run_op(inputs, Tracer(workload.boundary)), reference)
        if reference is None and op.total_s is not None:
            reference = op.fingerprint
        return op

    _deadline_loop(run_untraced, seconds)
    done = [op for op in ops if op.total_s is not None]
    if not done:
        return None, ops, notes
    setups += [s for op in done for s in op.setup_samples]
    metrics = {
        "setup_s": statistics.median(setups),
        "total_s": statistics.median(op.total_s for op in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    sweeps = [t for op in done for t in op.tracer.sweep_s]
    if sweeps:
        notes.append(f"sweep ms p50 {percentile_ms(sweeps, 50):.3f}  "
                     f"p99 {percentile_ms(sweeps, 99):.3f}  over {len(sweeps)} sweeps; "
                     f"chain_s median {statistics.median(op.chain_s for op in done):.3f}")
    notes.append(f"{len(done)} operations, {len(setups)} set-up samples; postproc_s median "
                 f"{statistics.median(op.postproc_s for op in done):.6f}; "
                 f"fingerprint {reference}")
    return metrics, ops, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pdclust" / "__init__.py").is_file():
        print(f"bench: no pdclust sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        metrics, ops, notes = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}; "
          + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    for note in notes:
        print(note)
    if metrics is None:
        print("bench: no operation completed", file=sys.stderr)
        return 1
    table = PER_LAYER if args.trace else END_TO_END
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": table[k]} for k in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
