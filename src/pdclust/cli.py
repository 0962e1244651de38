"""Command-line front end.

Verbs: ``run`` (cluster a CSV), ``bench`` (generate a benchmark scenario and
run it), ``summarize`` (re-run post-processing on a finished run) and
``validate`` (check a dataset against its schema). ``_CONFIG_DEFAULTS`` is
the single list of ``run`` settings. Settings resolve as defaults < config
file (JSON) < command-line flags. Exit codes: 0 success, 1 usage/config
error, 2 data validation failure, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, postproc
from .dataio import (DataFormatError, partitions_digest, read_data_csv, read_schema_file,
                     read_similarity_binary, write_data_csv, write_schema_file,
                     write_similarity_binary, write_text_output)
from .postproc import (cluster_summary, dahl_select, expand_variables, hm_measure,
                       min_hm_select)
from .sampler import ChainOutput, SamplerConfig, _check_count, run_chain
from .schema import PriorConstants, SchemaError, build_schema, validate_dataset
from .simgen import (STUDY1, STUDY2, ScenarioSpec, gen_study1, gen_study2,
                     scenario_sampler_settings, scenario_variable_specs)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

#: Errors that stop a chain: a failed invariant check, a non-PD factorisation,
#: non-finite urn weights, and a stored-count mismatch in ``run_chain``.
CHAIN_ABORTS = (AssertionError, np.linalg.LinAlgError, FloatingPointError, RuntimeError)

#: Variance-prior presets: the values of ``_PRESET_KEYS``, in that order.
PRESETS = {
    "A": (0.1, 0.1, 0.1, 0.1),
    "B": (1.0, 1.0, 1.0, 1.0),
    "C": (2.1, 30.0, 2.1, 30.0),
}

_PRESET_KEYS = ("var_prior_shape", "var_prior_scale", "base_prior_shape", "base_prior_scale")

#: The model's prior constants, by field name, with their defaults. Each is a
#: config key and a ``--flag``; a preset stands in for the defaults of the four
#: variance-prior constants.
_CONSTANTS = {f.name: f.default for f in dataclasses.fields(PriorConstants)}

SELECTIONS = ("dahl", "min-hm")

#: The ``run`` flags that take one of a fixed set of values, and those with help.
_CHOICES = {"weight_mode": ("ignore", "design"), "preset": (*PRESETS, "custom"),
            "selection": SELECTIONS}
_HELP = {"var_scale": "number, 'wbar', '<k>*wbar' or 'wbar/<k>'"}

#: The single list of ``run`` settings, with their defaults: the config keys,
#: the ``run`` flags and a manifest's ``"config"`` are all built from it.
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
    **_CONSTANTS,
    **dict.fromkeys(_PRESET_KEYS),
    "selection": "dahl",
    "pool": False,
    "similarity_csv": False,
}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def resolve_var_scale(rule, wbar: float) -> float:
    """Resolve a variance-scale rule to a number.

    Accepts a plain number, ``"wbar"``, ``"<k>*wbar"`` or ``"wbar/<k>"``.
    """
    if isinstance(rule, (int, float)) and not isinstance(rule, bool):
        value = float(rule)
    else:
        text = str(rule).strip().lower().replace(" ", "")
        try:
            if text == "wbar":
                value = wbar
            elif text.endswith("*wbar"):
                value = float(text[: -len("*wbar")]) * wbar
            elif text.startswith("wbar/"):
                value = wbar / float(text[len("wbar/"):])
            else:
                value = float(text)
        except (ValueError, ZeroDivisionError):
            raise CliError(EXIT_USAGE, f"cannot parse var_scale rule {rule!r}") from None
    if not value > 0:
        raise CliError(EXIT_USAGE, f"var_scale must be positive, got {value}")
    return value


def _check_selection(selection) -> str:
    if selection not in SELECTIONS:
        raise CliError(EXIT_USAGE, f"unknown selection mode {selection!r}")
    return selection


def _sampler_config(cfg: dict, wbar: float, seed: int | None = None) -> SamplerConfig:
    """One chain's settings from the resolved run settings ``cfg``."""
    return SamplerConfig(
        priors=PriorConstants(**{name: cfg[name] for name in _CONSTANTS}),
        **{key: cfg[key] for key in ("iterations", "burnin", "thinning", "weight_mode")},
        var_scale=resolve_var_scale(cfg["var_scale"], wbar),
        seed=cfg["seed"] if seed is None else seed,
    )


def _build_run_config(mapping: dict) -> dict:
    """Resolve a config mapping over the defaults and check every setting;
    returns the settings in ``_CONFIG_DEFAULTS`` order, the preset filled in."""
    unknown = set(mapping) - set(_CONFIG_DEFAULTS)
    if unknown:
        raise CliError(EXIT_USAGE, f"unknown config field(s): {', '.join(sorted(unknown))}")
    merged = {**_CONFIG_DEFAULTS, **{k: v for k, v in mapping.items() if v is not None}}

    preset = merged["preset"]
    if preset != "custom":
        if preset not in PRESETS:
            raise CliError(EXIT_USAGE, f"unknown preset {preset!r} (A, B, C or custom)")
        for key, val in zip(_PRESET_KEYS, PRESETS[preset]):
            if merged[key] is None:
                merged[key] = val
    missing = [k for k in _PRESET_KEYS if merged[k] is None]
    if missing:
        raise CliError(EXIT_USAGE, f"preset=custom needs explicit {', '.join(missing)}")

    _check_selection(merged["selection"])
    for key, default in _CONFIG_DEFAULTS.items():
        if isinstance(default, bool) and not isinstance(merged[key], bool):
            raise CliError(EXIT_USAGE, f"{key} must be true or false, got {merged[key]!r}")
    try:
        for key in ("chains", "workers"):
            _check_count(key, merged[key], 1)
        # A positive wbar scales the variance-scale rule but keeps its sign, so
        # this checks every sampler setting before any input is read.
        _sampler_config(merged, wbar=1.0)
    except ValueError as err:
        raise CliError(EXIT_USAGE, f"invalid config: {err}") from None
    return merged


def _read_config(path) -> dict:
    try:
        mapping = json.loads(Path(path).read_text())
    except OSError as err:
        raise CliError(EXIT_USAGE, f"cannot read config {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise CliError(EXIT_USAGE, f"config {path} is not valid JSON: {err}") from None
    if not isinstance(mapping, dict):
        raise CliError(EXIT_USAGE, f"config {path} must hold a JSON object")
    return mapping


def _layered_config(args: argparse.Namespace) -> dict:
    """Flags over the config file's keys, resolved and checked once, so that a
    flag's ``--preset`` sets every variance-prior constant the file leaves out."""
    mapping = _read_config(args.config) if args.config else {}
    for key in _CONFIG_DEFAULTS:
        val = getattr(args, key)
        if val is not None:
            mapping[key] = val
    return _build_run_config(mapping)


def _load_inputs(data_path, schema_path):
    path = schema_path
    try:
        specs, weight_column, skipped = read_schema_file(path)
        path = data_path
        dataset = read_data_csv(path, specs, weight_column, skipped)
    except OSError as err:  # a file that is missing, unreadable or a directory
        raise CliError(EXIT_VALIDATION, f"{path}: cannot read input: {err}") from None
    return dataset, build_schema(specs)


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


def _select_partition(selection, partitions, sim, expanded, weights):
    if selection == "dahl":
        return dahl_select(partitions, sim)
    return min_hm_select(partitions, expanded, weights)


def similarity(partitions, path: Path | None = None) -> np.ndarray:
    """The posterior similarity matrix of ``partitions``, kept at ``path``.

    A matrix stored at ``path`` is reused when its header records the
    :func:`~pdclust.dataio.partitions_digest` of these partitions, which
    covers their shape as well as their labels. Any other outcome is a miss:
    no file, another digest, or a file that cannot be read as a matrix. On a
    miss the matrix is computed and written to ``path`` with its digest.
    Without a ``path`` the matrix is only computed.
    """
    if path is None:
        return postproc.similarity(partitions)
    digest = partitions_digest(partitions)
    try:
        return read_similarity_binary(path, digest)
    except (OSError, DataFormatError):
        pass
    sim = postproc.similarity(partitions)
    write_similarity_binary(path, sim, digest)
    return sim


def _emit_chain_outputs(outdir: Path, tag: str, out: ChainOutput, free_names):
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


def _emit_selection_outputs(outdir: Path, tag: str, selection: str, similarity_csv: bool,
                            partitions, dataset, schema):
    files = {}
    path = outdir / f"similarity{tag}.bin"
    sim = similarity(partitions, path)
    files["similarity"] = path.name
    if similarity_csv:
        path = outdir / f"similarity{tag}.csv"
        _write_csv(path, [f"record_{i}" for i in range(sim.shape[0])],
                   [[repr(float(x)) for x in row] for row in sim])
        files["similarity_csv"] = path.name

    expanded = expand_variables(dataset, schema)
    selected, score = _select_partition(selection, partitions, sim, expanded,
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
        "selection": selection,
        "selection_score": score,
        "hm": hm,
        "n_clusters": int(len(np.unique(selected))),
        "files": files,
    }
    return info


def _run(cfg: dict) -> tuple[dict, list[ChainOutput]]:
    """Execute chains and write every output but the manifest.

    Returns the manifest mapping and the chains' outputs.
    """
    t0 = time.perf_counter()
    if None in (cfg["data"], cfg["schema"], cfg["out"]):
        raise CliError(EXIT_USAGE, "--data, --schema and --out are required")
    dataset, schema = _load_inputs(cfg["data"], cfg["schema"])
    report = validate_dataset(dataset, schema)
    if not report.ok:
        raise CliError(EXIT_VALIDATION, str(report))
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)

    seeds = _chain_seeds(cfg["seed"], cfg["chains"])
    payloads = [(dataset, schema, _sampler_config(cfg, dataset.wbar, seed=s))
                for s in seeds]
    try:
        if cfg["workers"] > 1 and cfg["chains"] > 1:
            with ProcessPoolExecutor(max_workers=cfg["workers"]) as pool:
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
        "config": cfg,
        "resolved_var_scale": payloads[0][2].var_scale,
        "wbar": dataset.wbar,
        "n_records": dataset.n,
        "chain_seeds": seeds,
        "chains": [],
    }
    shifts = [v.transform.shift(dataset.values[:, schema.input_index[k]])
              for k, v in enumerate(schema.variables)
              if v.kind == "continuous" and v.transform.kind == "log-shift"]
    if shifts:
        manifest["log_shift_values"] = shifts

    multi = cfg["chains"] > 1
    for c, out in enumerate(outputs):
        tag = f"_chain{c}" if multi else ""
        files = _emit_chain_outputs(outdir, tag, out, free_names)
        info = _emit_selection_outputs(outdir, tag, cfg["selection"], cfg["similarity_csv"],
                                       out.partitions, dataset, schema)
        info["files"].update(files)
        info["seed"] = seeds[c]
        info["runtime_seconds"] = out.runtime_seconds
        manifest["chains"].append(info)

    if cfg["pool"] and multi:
        pooled = np.vstack([out.partitions for out in outputs])
        manifest["pooled"] = _emit_selection_outputs(outdir, "_pooled", cfg["selection"],
                                                     cfg["similarity_csv"], pooled,
                                                     dataset, schema)

    manifest["runtime_seconds"] = time.perf_counter() - t0
    return manifest, outputs


def run_command(cfg: dict) -> dict:
    """Execute chains and write all outputs; returns the manifest mapping."""
    manifest, _ = _run(cfg)
    (Path(cfg["out"]) / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
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
    manifest, outputs = _run(_build_run_config(mapping))

    # cluster-count histogram of the (single) chain's kept draws
    values, counts = np.unique(outputs[0].trace_r, return_counts=True)
    total = int(counts.sum())
    rows = [[int(r), int(k), repr(int(k) / total)] for r, k in zip(values, counts)]
    _write_csv(outdir / "cluster_count_hist.csv", ["n_clusters", "count", "probability"],
               rows)
    manifest["histogram"] = "cluster_count_hist.csv"
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def summarize_command(run_dir: str, selection: str | None = None) -> dict:
    """Re-run the selection and summary of a finished run, per chain and, when
    the run pooled its chains, on the pooled partitions.

    A stored similarity matrix is reused when its header records the digest of
    the partitions read now; otherwise it is recomputed and rewritten. Of the
    run's settings it reads only those post-processing uses: data, schema,
    selection and similarity_csv.
    """
    outdir = Path(run_dir)
    manifest_path = outdir / "manifest.json"
    if not manifest_path.exists():
        raise CliError(EXIT_USAGE, f"{run_dir} does not contain manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
        settings = {**_CONFIG_DEFAULTS, **manifest["config"]}
        part_names = [info["files"]["partitions"] for info in manifest["chains"]]
        pooled = "pooled" in manifest
    except (ValueError, KeyError, TypeError) as err:  # bad JSON, missing or mistyped entry
        raise CliError(EXIT_USAGE, f"{manifest_path} is not a run manifest: "
                                   f"{type(err).__name__}: {err}") from None
    if settings["data"] is None or settings["schema"] is None:
        raise CliError(EXIT_USAGE, f"{manifest_path} names no data or schema file")
    selection = _check_selection(settings["selection"] if selection is None else selection)

    dataset, schema = _load_inputs(settings["data"], settings["schema"])
    chains = []
    for part_name in part_names:
        part_path = outdir / part_name
        # an open handle skips np.loadtxt's own path resolution (about 4 ms
        # of 45 ms at n = 1000 and 1500 partitions)
        try:
            with open(part_path) as fh, warnings.catch_warnings():
                # a file without rows is named below, not warned about
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                partitions = np.loadtxt(fh, delimiter=",", skiprows=1,
                                        dtype=np.int32, ndmin=2)
        except (OSError, ValueError) as err:  # missing file, or a cell that is not an int
            raise CliError(EXIT_VALIDATION,
                           f"{part_path}: cannot read partitions: {err}") from None
        if partitions.size == 0:
            raise CliError(EXIT_VALIDATION, f"{part_path}: holds no partitions")
        if partitions.shape[1] != dataset.n:
            raise CliError(EXIT_VALIDATION,
                           f"{part_path}: partitions have {partitions.shape[1]} "
                           f"records but the data has {dataset.n}")
        chains.append(partitions)

    def emit(tag, partitions):
        return _emit_selection_outputs(outdir, tag, selection, settings["similarity_csv"],
                                       partitions, dataset, schema)

    multi = len(chains) > 1
    result = {"chains": [emit(f"_chain{c}" if multi else "", partitions)
                         for c, partitions in enumerate(chains)]}
    if pooled:
        result["pooled"] = emit("_pooled", np.vstack(chains))
    return result


def _record_summary(run_dir: str, result: dict) -> list[str]:
    """Merge a :func:`summarize_command` result into the run's ``manifest.json``.

    Each chain's entry, and the pooled one, takes the new selection, score,
    HM, cluster count and files; the config, seeds and run times stay.
    Returns one line per chain and one for the pooled partitions.
    """
    path = Path(run_dir) / "manifest.json"
    manifest = json.loads(path.read_text())
    entries = [(f"chain {c}", info, new)
               for c, (info, new) in enumerate(zip(manifest["chains"], result["chains"]))]
    if "pooled" in result:
        entries.append(("pooled", manifest["pooled"], result["pooled"]))
    lines = []
    for name, info, new in entries:
        info.update(new, files={**info["files"], **new["files"]})
        lines.append(f"{name}: {new['selection']} partition with {new['n_clusters']} "
                     f"clusters, score {new['selection_score']:.6g}, HM {new['hm']:.6g}")
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return lines


def validate_command(data_path: str, schema_path: str) -> int:
    dataset, schema = _load_inputs(data_path, schema_path)
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
    for key, default in _CONFIG_DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            run_p.add_argument(flag, dest=key, action="store_const", const=True)
        elif key in _CONSTANTS:
            run_p.add_argument(flag, dest=key, type=float, help="default: " + (
                "from --preset" if default is None else str(default)))
        else:
            run_p.add_argument(flag, dest=key, type=str if default is None else type(default),
                               choices=_CHOICES.get(key), help=_HELP.get(key))

    bench_p = sub.add_parser("bench", help="run a benchmark scenario")
    bench_p.add_argument("--scenario", required=True,
                         choices=list(STUDY1 + STUDY2))
    bench_p.add_argument("--preset", default="C", choices=list(PRESETS))
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--out", required=True)
    bench_p.add_argument("--iterations", type=int)
    bench_p.add_argument("--burnin", type=int)
    bench_p.add_argument("--thinning", type=int)

    summ_p = sub.add_parser("summarize", help="re-run selection and summary on a finished run")
    summ_p.add_argument("--run", required=True, dest="run_dir")
    summ_p.add_argument("--selection", choices=SELECTIONS)

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
            run_command(_layered_config(args))
            return EXIT_OK
        if args.verb == "bench":
            overrides = {k: getattr(args, k) for k in ("iterations", "burnin", "thinning")
                         if getattr(args, k) is not None}
            bench_command(args.scenario, args.preset, args.seed, args.out, overrides)
            return EXIT_OK
        if args.verb == "summarize":
            result = summarize_command(args.run_dir, args.selection)
            print("\n".join(_record_summary(args.run_dir, result)))
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
