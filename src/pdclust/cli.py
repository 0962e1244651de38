"""Command-line front end.

Verbs: ``run`` (cluster a CSV), ``bench`` (generate a benchmark scenario and
run it), ``summarize`` (re-run post-processing on a finished run) and
``validate`` (check a dataset against its schema). Settings resolve as
defaults < config file (JSON) < command-line flags. Exit codes: 0 success,
1 usage/config error, 2 data validation failure, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (DataFormatError, read_data_csv, read_schema_file,
                     write_data_csv, write_schema_file, write_similarity_binary,
                     write_text_output)
from .latent import fit_transforms
from .postproc import (cluster_summary, dahl_select, expand_variables, hm_measure,
                       min_hm_select, similarity)
from .sampler import (ChainOutput, PriorConstants, SamplerConfig, TuningConstants,
                      run_chain)
from .schema import Dataset, SchemaError, build_schema, validate_dataset
from .simgen import (STUDY1, STUDY2, ScenarioSpec, gen_study1, gen_study2,
                     scenario_sampler_settings, scenario_variable_specs)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

#: Errors that stop a chain: a failed invariant check, a non-PD factorisation,
#: non-finite urn weights, and a stored-count mismatch in ``run_chain``.
CHAIN_ABORTS = (AssertionError, np.linalg.LinAlgError, FloatingPointError, RuntimeError)

#: Variance-prior presets: (var shape, var scale, base shape, base scale).
PRESETS = {
    "A": (0.1, 0.1, 0.1, 0.1),
    "B": (1.0, 1.0, 1.0, 1.0),
    "C": (2.1, 30.0, 2.1, 30.0),
}

_CONFIG_DEFAULTS = {
    "data": None,
    "schema": None,
    "out": None,
    "iterations": 4700,
    "burnin": 200,
    "thinning": 3,
    "seed": 0,
    "chains": 1,
    "workers": 1,
    "weight_mode": "design",
    "var_scale": "wbar",
    "preset": "C",
    "var_prior_shape": None,
    "var_prior_scale": None,
    "base_prior_shape": None,
    "base_prior_scale": None,
    "discount_zero_prob": 0.5,
    "discount_beta1": 1.0,
    "discount_beta2": 1.0,
    "strength_shape": 1.0,
    "strength_rate": 1.0,
    "var_proposal_shape": 5.0,
    "corr_window_frac": 4.0,
    "strength_step": 2.0,
    "selection": "dahl",
    "pool": False,
    "similarity_csv": False,
    "runtime_checks": True,
}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one ``run`` invocation."""

    data: str | None
    schema: str | None
    out: str | None
    iterations: int
    burnin: int
    thinning: int
    seed: int
    chains: int
    workers: int
    weight_mode: str
    var_scale: str | float
    preset: str
    var_prior_shape: float
    var_prior_scale: float
    base_prior_shape: float
    base_prior_scale: float
    discount_zero_prob: float
    discount_beta1: float
    discount_beta2: float
    strength_shape: float
    strength_rate: float
    var_proposal_shape: float
    corr_window_frac: float
    strength_step: float
    selection: str
    pool: bool
    similarity_csv: bool
    runtime_checks: bool

    def sampler_config(self, wbar: float, seed: int | None = None) -> SamplerConfig:
        return SamplerConfig(
            iterations=self.iterations,
            burnin=self.burnin,
            thinning=self.thinning,
            var_scale=resolve_var_scale(self.var_scale, wbar),
            seed=self.seed if seed is None else seed,
            weight_mode=self.weight_mode,
            priors=PriorConstants(
                discount_zero_prob=self.discount_zero_prob,
                discount_beta1=self.discount_beta1,
                discount_beta2=self.discount_beta2,
                strength_shape=self.strength_shape,
                strength_rate=self.strength_rate,
                var_prior_shape=self.var_prior_shape,
                var_prior_scale=self.var_prior_scale,
                base_prior_shape=self.base_prior_shape,
                base_prior_scale=self.base_prior_scale,
            ),
            tuning=TuningConstants(
                var_proposal_shape=self.var_proposal_shape,
                corr_window_frac=self.corr_window_frac,
                strength_step=self.strength_step,
            ),
            runtime_checks=self.runtime_checks,
        )


def resolve_var_scale(rule, wbar: float) -> float:
    """Resolve a variance-scale rule to a number.

    Accepts a plain number, ``"wbar"``, ``"<k>*wbar"`` or ``"wbar/<k>"``.
    """
    if isinstance(rule, (int, float)):
        value = float(rule)
    else:
        text = str(rule).strip().lower().replace(" ", "")
        try:
            if text == "wbar":
                value = wbar
            elif text.endswith("*wbar"):
                value = float(text[: -len("*wbar")]) * wbar
            elif text.startswith("wbar*"):
                value = float(text[len("wbar*"):]) * wbar
            elif text.startswith("wbar/"):
                value = wbar / float(text[len("wbar/"):])
            else:
                value = float(text)
        except (ValueError, ZeroDivisionError):
            raise CliError(EXIT_USAGE, f"cannot parse variance-scale rule {rule!r}") from None
    if not value > 0:
        raise CliError(EXIT_USAGE, f"variance scale must be positive, got {value}")
    return value


def _build_run_config(mapping: dict) -> RunConfig:
    merged = dict(_CONFIG_DEFAULTS)
    unknown = set(mapping) - set(merged)
    if unknown:
        raise CliError(EXIT_USAGE, f"unknown config field(s): {', '.join(sorted(unknown))}")
    merged.update({k: v for k, v in mapping.items() if v is not None})

    preset = merged["preset"]
    if preset in PRESETS:
        vs, vsc, bs, bsc = PRESETS[preset]
        for key, val in (("var_prior_shape", vs), ("var_prior_scale", vsc),
                         ("base_prior_shape", bs), ("base_prior_scale", bsc)):
            if mapping.get(key) is None:
                merged[key] = val
    elif preset == "custom":
        missing = [k for k in ("var_prior_shape", "var_prior_scale",
                               "base_prior_shape", "base_prior_scale")
                   if merged[k] is None]
        if missing:
            raise CliError(EXIT_USAGE,
                           f"preset=custom needs explicit {', '.join(missing)}")
    else:
        raise CliError(EXIT_USAGE, f"unknown preset {preset!r} (A, B, C or custom)")

    if merged["selection"] not in ("dahl", "min-hm"):
        raise CliError(EXIT_USAGE, f"unknown selection mode {merged['selection']!r}")
    if merged["weight_mode"] not in ("ignore", "design"):
        raise CliError(EXIT_USAGE, f"unknown weight mode {merged['weight_mode']!r}")
    if merged["burnin"] >= merged["iterations"]:
        raise CliError(EXIT_USAGE, "burn-in must be smaller than iterations")
    if merged["thinning"] < 1 or merged["chains"] < 1 or merged["workers"] < 1:
        raise CliError(EXIT_USAGE, "thinning, chains and workers must be >= 1")
    return RunConfig(**merged)


def parse_config(path) -> RunConfig:
    """Load and validate a JSON config file."""
    try:
        mapping = json.loads(Path(path).read_text())
    except OSError as err:
        raise CliError(EXIT_USAGE, f"cannot read config {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise CliError(EXIT_USAGE, f"config {path} is not valid JSON: {err}") from None
    if not isinstance(mapping, dict):
        raise CliError(EXIT_USAGE, f"config {path} must hold a JSON object")
    return _build_run_config(mapping)


def _layered_config(args: argparse.Namespace) -> RunConfig:
    mapping: dict = {}
    if getattr(args, "config", None):
        base = parse_config(args.config)
        mapping.update(dataclasses.asdict(base))
    for key in _CONFIG_DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            mapping[key] = val
    return _build_run_config(mapping)


def _load_inputs(data_path, schema_path):
    if data_path is None or schema_path is None:
        raise CliError(EXIT_USAGE, "both --data and --schema are required")
    specs, weight_column, skipped = read_schema_file(schema_path)
    dataset = read_data_csv(data_path, specs, weight_column, skipped)
    schema = build_schema(specs)
    return dataset, schema, specs, weight_column


def _write_csv(path: Path, header: list[str], rows):
    lines = [",".join(header)]
    lines += [",".join(str(x) for x in row) for row in rows]
    write_text_output(path, "\n".join(lines) + "\n")


def _chain_seeds(seed: int, chains: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(chains, dtype=np.uint64)
    return [int(s) for s in state]


def _run_single(payload):
    dataset, schema, sampler_cfg = payload
    return run_chain(dataset, schema, sampler_cfg)


def _select_partition(cfg, partitions, sim, expanded, weights):
    if cfg.selection == "dahl":
        return dahl_select(partitions, sim)
    return min_hm_select(partitions, expanded, weights)


def _emit_chain_outputs(outdir: Path, tag: str, cfg: RunConfig, out: ChainOutput,
                        dataset, schema, free_names):
    files = {}

    trace_header = ["iter", "discount", "strength", "n_clusters"]
    trace_header += [f"var_{name}" for name in free_names]
    trace_header += [f"base_var_{l}" for l in range(out.trace_base_var.shape[1])]
    rows = []
    for t in range(out.kept):
        row = [t, repr(float(out.trace_discount[t])),
               repr(float(out.trace_strength[t])), int(out.trace_r[t])]
        row += [repr(float(x)) for x in out.trace_var[t]]
        row += [repr(float(x)) for x in out.trace_base_var[t]]
        rows.append(row)
    path = outdir / f"trace{tag}.csv"
    _write_csv(path, trace_header, rows)
    files["trace"] = path.name

    path = outdir / f"partitions{tag}.csv"
    _write_csv(path, [f"record_{i}" for i in range(out.partitions.shape[1])],
               out.partitions)
    files["partitions"] = path.name
    return files


def _emit_selection_outputs(outdir: Path, tag: str, cfg: RunConfig, partitions,
                            dataset, schema):
    files = {}
    sim = similarity(partitions)
    path = outdir / f"similarity{tag}.bin"
    write_similarity_binary(path, sim)
    files["similarity"] = path.name
    if cfg.similarity_csv:
        path = outdir / f"similarity{tag}.csv"
        _write_csv(path, [f"record_{i}" for i in range(sim.shape[0])],
                   [[repr(float(x)) for x in row] for row in sim])
        files["similarity_csv"] = path.name

    expanded = expand_variables(dataset, schema)
    selected, score = _select_partition(cfg, partitions, sim, expanded,
                                        dataset.weights)
    hm = hm_measure(selected, expanded, dataset.weights)

    path = outdir / f"selected{tag}.csv"
    write_text_output(path, "record,cluster\n" + "".join(
        f"{i},{c}\n" for i, c in enumerate(selected.tolist())))
    files["selected"] = path.name

    summ = cluster_summary(selected, dataset, schema)
    path = outdir / f"summary{tag}.csv"
    write_text_output(path, "\n".join(summ.to_lines()) + "\n")
    files["summary"] = path.name

    info = {
        "selection": cfg.selection,
        "selection_score": score,
        "hm": hm,
        "n_clusters": int(len(np.unique(selected))),
        "files": files,
    }
    return info


def run_command(cfg: RunConfig) -> dict:
    """Execute chains and write all outputs; returns the manifest mapping."""
    t0 = time.perf_counter()
    dataset, schema, specs, weight_column = _load_inputs(cfg.data, cfg.schema)
    report = validate_dataset(dataset, schema)
    if not report.ok:
        raise CliError(EXIT_VALIDATION, str(report))
    schema = fit_transforms(schema, dataset)
    if cfg.out is None:
        raise CliError(EXIT_USAGE, "--out directory is required")
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)

    seeds = _chain_seeds(cfg.seed, cfg.chains)
    payloads = [(dataset, schema, cfg.sampler_config(dataset.wbar, seed=s))
                for s in seeds]
    try:
        if cfg.workers > 1 and cfg.chains > 1:
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                outputs = list(pool.map(_run_single, payloads))
        else:
            outputs = [_run_single(p) for p in payloads]
    except CHAIN_ABORTS as err:
        raise CliError(EXIT_RUNTIME, f"chain aborted: {err}") from err

    free_names = [schema.variables[k].name for k in range(schema.p)
                  if schema.variables[k].kind == "continuous"]
    manifest: dict = {
        "tool": "pdclust",
        "version": __version__,
        "numpy": np.__version__,
        "config": {k: v for k, v in dataclasses.asdict(cfg).items()},
        "resolved_var_scale": resolve_var_scale(cfg.var_scale, dataset.wbar),
        "wbar": dataset.wbar,
        "n_records": dataset.n,
        "chain_seeds": seeds,
        "chains": [],
    }
    fitted = [v.transform.shift for v in schema.variables
              if v.transform is not None and v.transform.kind == "log-shift"]
    if fitted:
        manifest["log_shift_values"] = fitted

    multi = cfg.chains > 1
    for c, out in enumerate(outputs):
        tag = f"_chain{c}" if multi else ""
        files = _emit_chain_outputs(outdir, tag, cfg, out, dataset, schema, free_names)
        info = _emit_selection_outputs(outdir, tag, cfg, out.partitions, dataset, schema)
        info["files"].update(files)
        info["seed"] = seeds[c]
        info["runtime_seconds"] = out.runtime_seconds
        manifest["chains"].append(info)

    if cfg.pool and multi:
        pooled = np.vstack([out.partitions for out in outputs])
        manifest["pooled"] = _emit_selection_outputs(outdir, "_pooled", cfg, pooled,
                                                     dataset, schema)

    manifest["runtime_seconds"] = time.perf_counter() - t0
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def bench_command(scenario: str, preset: str, seed: int, out: str,
                  overrides: dict | None = None) -> dict:
    """Generate a scenario dataset, run it with the benchmark settings,
    and emit the cluster-count histogram."""
    if scenario not in STUDY1 + STUDY2:
        raise CliError(EXIT_USAGE, f"unknown scenario {scenario!r}")
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)

    spec = ScenarioSpec(scenario, seed=seed)
    specs = scenario_variable_specs(scenario)
    if scenario in STUDY1:
        dataset, labels = gen_study1(spec)
        _write_csv(outdir / "true_labels.csv", ["record", "component"],
                   list(enumerate(labels)))
        weight_column = None
    else:
        dataset, _ = gen_study2(spec)
        weight_column = "expansion_factor"
    write_data_csv(outdir / "data.csv", dataset, specs, weight_column)
    write_schema_file(outdir / "schema.txt", specs, weight_column)

    weight_mode, var_scale = scenario_sampler_settings(scenario, dataset.wbar)
    mapping = {
        "data": str(outdir / "data.csv"),
        "schema": str(outdir / "schema.txt"),
        "out": str(outdir),
        "preset": preset,
        "seed": seed,
        "weight_mode": weight_mode,
        "var_scale": var_scale,
    }
    if overrides:
        mapping.update(overrides)
    cfg = _build_run_config(mapping)
    manifest = run_command(cfg)

    # cluster-count histogram from the (single) chain trace
    trace_path = outdir / manifest["chains"][0]["files"]["trace"]
    counts: dict[int, int] = {}
    for line in trace_path.read_text().splitlines()[1:]:
        r = int(line.split(",")[3])
        counts[r] = counts.get(r, 0) + 1
    total = sum(counts.values())
    rows = [[r, counts[r], repr(counts[r] / total)] for r in sorted(counts)]
    _write_csv(outdir / "cluster_count_hist.csv", ["n_clusters", "count", "probability"],
               rows)
    manifest["histogram"] = "cluster_count_hist.csv"
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def summarize_command(run_dir: str, selection: str | None = None) -> dict:
    """Recompute similarity/selection/summary from a finished run."""
    outdir = Path(run_dir)
    manifest_path = outdir / "manifest.json"
    if not manifest_path.exists():
        raise CliError(EXIT_USAGE, f"{run_dir} does not contain manifest.json")
    manifest = json.loads(manifest_path.read_text())
    cfg_map = dict(manifest["config"])
    if selection is not None:
        cfg_map["selection"] = selection
    cfg = _build_run_config(cfg_map)

    dataset, schema, _, _ = _load_inputs(cfg.data, cfg.schema)
    schema = fit_transforms(schema, dataset)
    results = []
    for c, info in enumerate(manifest["chains"]):
        part_path = outdir / info["files"]["partitions"]
        # an open handle skips np.loadtxt's own path resolution (about 4 ms
        # of 45 ms at n = 1000 and 1500 partitions)
        with open(part_path) as fh:
            partitions = np.loadtxt(fh, delimiter=",", skiprows=1,
                                    dtype=np.int32, ndmin=2)
        if partitions.shape[1] != dataset.n:
            raise CliError(EXIT_VALIDATION,
                           f"{part_path}: partitions have {partitions.shape[1]} "
                           f"records but the data has {dataset.n}")
        tag = f"_chain{c}" if len(manifest["chains"]) > 1 else ""
        results.append(_emit_selection_outputs(outdir, tag, cfg, partitions,
                                               dataset, schema))
    return {"chains": results}


def validate_command(data_path: str, schema_path: str) -> int:
    dataset, schema, _, _ = _load_inputs(data_path, schema_path)
    report = validate_dataset(dataset, schema)
    print(str(report))
    return EXIT_OK if report.ok else EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pdclust",
                     description="Mixed-scale survey clustering via a "
                                 "Poisson-Dirichlet mixture sampler")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="cluster a CSV dataset")
    run_p.add_argument("--config", help="JSON config file")
    run_p.add_argument("--data")
    run_p.add_argument("--schema")
    run_p.add_argument("--out")
    run_p.add_argument("--iterations", type=int)
    run_p.add_argument("--burnin", type=int)
    run_p.add_argument("--thinning", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--chains", type=int)
    run_p.add_argument("--workers", type=int)
    run_p.add_argument("--weight-mode", dest="weight_mode",
                       choices=["ignore", "design"])
    run_p.add_argument("--var-scale", dest="var_scale",
                       help="number, 'wbar', '<k>*wbar' or 'wbar/<k>'")
    run_p.add_argument("--preset", choices=["A", "B", "C", "custom"])
    for name in ("var_prior_shape", "var_prior_scale", "base_prior_shape",
                 "base_prior_scale", "discount_zero_prob", "discount_beta1",
                 "discount_beta2", "strength_shape", "strength_rate",
                 "var_proposal_shape", "corr_window_frac", "strength_step"):
        run_p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float)
    run_p.add_argument("--selection", choices=["dahl", "min-hm"])
    run_p.add_argument("--pool", action="store_const", const=True, dest="pool")
    run_p.add_argument("--similarity-csv", action="store_const", const=True,
                       dest="similarity_csv")
    run_p.add_argument("--no-runtime-checks", action="store_const", const=False,
                       dest="runtime_checks")

    bench_p = sub.add_parser("bench", help="run a benchmark scenario")
    bench_p.add_argument("--scenario", required=True,
                         choices=list(STUDY1 + STUDY2))
    bench_p.add_argument("--preset", default=None, choices=["A", "B", "C"])
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--out", required=True)
    bench_p.add_argument("--iterations", type=int)
    bench_p.add_argument("--burnin", type=int)
    bench_p.add_argument("--thinning", type=int)

    summ_p = sub.add_parser("summarize", help="recompute post-processing outputs")
    summ_p.add_argument("--run", required=True, dest="run_dir")
    summ_p.add_argument("--selection", choices=["dahl", "min-hm"])

    val_p = sub.add_parser("validate", help="validate a dataset against a schema")
    val_p.add_argument("--data", required=True)
    val_p.add_argument("--schema", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.verb == "run":
            cfg = _layered_config(args)
            run_command(cfg)
            return EXIT_OK
        if args.verb == "bench":
            overrides = {k: getattr(args, k) for k in ("iterations", "burnin", "thinning")
                         if getattr(args, k) is not None}
            preset = args.preset or "C"
            bench_command(args.scenario, preset, args.seed, args.out, overrides)
            return EXIT_OK
        if args.verb == "summarize":
            summarize_command(args.run_dir, args.selection)
            return EXIT_OK
        if args.verb == "validate":
            return validate_command(args.data, args.schema)
        raise CliError(EXIT_USAGE, f"unknown verb {args.verb!r}")
    except CliError as err:
        print(f"pdclust: {err}", file=sys.stderr)
        return err.code
    except (DataFormatError, SchemaError) as err:
        print(f"pdclust: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as err:  # runtime failures map to exit 3
        print(f"pdclust: runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
