import argparse
import dataclasses
import hashlib
import json
import shutil
import struct
import warnings

import numpy as np
import pytest

from pdclust import (Dataset, ScenarioSpec, TransformSpec, build_schema, gen_study1,
                     scenario_variable_specs)
import pdclust.cli
import pdclust.dataio
import pdclust.postproc
from pdclust.cli import (CliError, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, PRESETS,
                         bench_command, main, resolve_var_scale, run_command,
                         summarize_command, _CONFIG_DEFAULTS, _build_run_config, _load_inputs,
                         _read_config)
from pdclust.dataio import (DataFormatError, partitions_digest, read_data_csv,
                            read_schema_file, read_similarity_binary, write_data_csv,
                            write_schema_file, write_similarity_binary,
                            write_text_output)
from pdclust.postproc import (cluster_summary, expand_variables, hm_measure, min_hm_select,
                              similarity)
from pdclust.sampler import PriorConstants
from pdclust.schema import continuous_spec, nominal_spec, ordinal_spec


@pytest.fixture
def scenario_files(tmp_path):
    ds, _ = gen_study1(ScenarioSpec("II", seed=3))
    specs = scenario_variable_specs("II")
    write_data_csv(tmp_path / "data.csv", ds, specs)
    write_schema_file(tmp_path / "schema.txt", specs)
    return tmp_path, ds, specs


class TestSchemaFile:
    def test_round_trip(self, tmp_path):
        specs = [
            continuous_spec("inc", TransformSpec(kind="log-shift", shift_quantile=0.05)),
            ordinal_spec("edu", 3),
            nominal_spec("town", 4),
            continuous_spec("y"),
        ]
        path = tmp_path / "schema.txt"
        write_schema_file(path, specs, weight_column="factor")
        parsed, weight_col, skipped = read_schema_file(path)
        assert weight_col == "factor"
        assert skipped == []
        assert [v.name for v in parsed] == ["inc", "edu", "town", "y"]
        assert parsed[0].transform.kind == "log-shift"
        assert parsed[0].transform.shift_quantile == 0.05
        assert parsed[1].levels == ("0", "1", "2")
        assert parsed[3] == continuous_spec("y")

    def test_labels_and_comments(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(
            "# poverty indicators\n"
            "town nominal levels=metro,urban,rural  # town size\n"
            "w weight\n"
            "junk skip\n"
        )
        specs, weight_col, skipped = read_schema_file(path)
        assert specs[0].levels == ("metro", "urban", "rural")
        assert weight_col == "w" and skipped == ["junk"]

    def test_bad_lines_raise(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        for line in ("x mystery", "x ordinal",
                     "income continuous transform=logshift",
                     "x ordinal levels=3 transfrom=foo",
                     "x continuous levels=3",
                     "w weight transform=log-shift",
                     "junk skip levels=2",
                     "income continuous transform=log-shift shift_quantile=1.5",
                     "income continuous shift_quantile=abc",
                     "x ordinal levels=2 levels=3",
                     "y continuous transform=log-shift transform=identity",
                     "a weight",
                     "y ordinal levels=0",
                     "y ordinal levels=1",
                     "y nominal levels=a,a"):
            path.write_text(f"a continuous\n{line}\n")
            with pytest.raises(DataFormatError) as err:
                read_schema_file(path)
            assert str(err.value).startswith(f"{path}:2: "), line
        # validate reports the line and exits 2 instead of checking untransformed data
        path.write_text("income continuous transform=logshift\n")
        write_data_csv(tmp_path / "data.csv", Dataset.from_values([[3.0], [5.0]]),
                       [continuous_spec("income")])
        code = main(["validate", "--data", str(tmp_path / "data.csv"), "--schema", str(path)])
        assert code == EXIT_VALIDATION
        assert f"{path}:1: " in capsys.readouterr().err
        # a repeated key is named, not silently overridden by its last value
        path.write_text("income continuous transform=log-shift transform=identity\n")
        code = main(["validate", "--data", str(tmp_path / "data.csv"), "--schema", str(path)])
        assert code == EXIT_VALIDATION
        assert f"{path}:1: transform=" in capsys.readouterr().err


class TestDataCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        specs = [continuous_spec("a"), ordinal_spec("b", 2)]
        values = np.column_stack([rng.standard_normal(20),
                                  rng.integers(0, 2, 20).astype(float)])
        ds = Dataset(values=values, weights=rng.uniform(0.5, 2.0, 20))
        path = tmp_path / "d.csv"
        write_data_csv(path, ds, specs, weight_column="w")
        back = read_data_csv(path, specs, weight_column="w")
        assert np.array_equal(back.values, ds.values)
        assert np.array_equal(back.weights, ds.weights)

    def test_missing_and_unknown_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,zzz\n1.0,2.0\n")
        with pytest.raises(DataFormatError):
            read_data_csv(path, [continuous_spec("a")])
        path.write_text("b\n1.0\n")
        with pytest.raises(DataFormatError):
            read_data_csv(path, [continuous_spec("a")], skipped=["b"])

    @pytest.mark.parametrize("text", ["", "a,w\n", "a,w\n\n", "a,w\n1.0,x\n",
                                      "a,w\n1.0,2.0\n3.0\n", "a,w\n1.0,#2\n",
                                      "a,a,w\n1.0,2.0,3.0\n"])
    def test_bad_files_raise(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError):
            read_data_csv(path, [continuous_spec("a")], weight_column="w")

    def test_skipped_text_column_blank_lines_and_quotes(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('id,a,w\n"h, 1","0.1",2\n\nh-2,1e-3,4.5\n')
        ds = read_data_csv(path, [continuous_spec("a")], weight_column="w", skipped=["id"])
        assert ds.values.tolist() == [[0.1], [1e-3]]
        assert ds.weights.tolist() == [2.0, 4.5]


_DIGEST = bytes(range(32))


def test_similarity_binary_round_trip(tmp_path):
    sim = np.random.default_rng(1).uniform(size=(7, 7))
    sim = 0.5 * (sim + sim.T)
    np.fill_diagonal(sim, 1.0)
    path = tmp_path / "sim.bin"
    write_similarity_binary(path, sim, _DIGEST)
    assert np.array_equal(read_similarity_binary(path), sim)
    assert np.array_equal(read_similarity_binary(path, _DIGEST), sim)
    with pytest.raises(DataFormatError, match="similarity matrix of other partitions"):
        read_similarity_binary(path, bytes(32))


def test_similarity_binary_rejects_a_truncated_size_field(tmp_path):
    path = tmp_path / "sim.bin"
    path.write_bytes(b"PDCSIM2\x00\x02\x00")
    with pytest.raises(DataFormatError, match="truncated similarity matrix") as err:
        read_similarity_binary(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("n", [2**20, 2**62])
def test_similarity_binary_checks_a_huge_size_field_before_allocating(tmp_path, n):
    path = tmp_path / "sim.bin"
    path.write_bytes(b"PDCSIM2\x00" + struct.pack("<Q", n) + _DIGEST)
    with pytest.raises(DataFormatError, match="truncated similarity matrix") as err:
        read_similarity_binary(path)
    assert str(path) in str(err.value)


def test_similarity_binary_rejects_a_trailing_byte(tmp_path):
    path = tmp_path / "sim.bin"
    write_similarity_binary(path, np.eye(3), _DIGEST)
    with open(path, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(DataFormatError, match="trailing data after the 3 x 3") as err:
        read_similarity_binary(path)
    assert str(path) in str(err.value)


def test_rewrites_leave_no_trace_of_a_longer_file(tmp_path):
    path = tmp_path / "out.csv"
    write_text_output(path, "x" * 100)
    write_text_output(path, "record,cluster\n0,1\n")
    assert path.read_text() == "record,cluster\n0,1\n"
    sim = np.eye(3)
    path = tmp_path / "sim.bin"
    write_similarity_binary(path, np.eye(6), _DIGEST)
    write_similarity_binary(path, sim, _DIGEST)
    assert path.stat().st_size == 48 + 8 * 9
    assert np.array_equal(read_similarity_binary(path), sim)


def test_similarity_binary_layout(tmp_path):
    sim = np.random.default_rng(2).uniform(size=(5, 5))
    path = tmp_path / "sim.bin"
    write_similarity_binary(path, sim, _DIGEST)
    assert path.read_bytes() == (b"PDCSIM2\x00" + struct.pack("<Q", 5) + _DIGEST
                                 + sim.astype("<f8").tobytes())


def test_an_interrupted_similarity_rewrite_matches_no_partitions(tmp_path, monkeypatch):
    path = tmp_path / "sim.bin"
    old, new = np.eye(4), np.full((4, 4), 0.5)
    old_digest, new_digest = bytes(range(32)), bytes(range(1, 33))
    write_similarity_binary(path, old, old_digest)

    class Interrupted:
        """Writes half of the body, then stops as a Ctrl-C would."""
        shape = new.shape

        def tofile(self, fh):
            fh.write(new.tobytes()[:new.nbytes // 2])
            raise KeyboardInterrupt

    monkeypatch.setattr(pdclust.dataio.np, "ascontiguousarray", lambda sim, dtype: Interrupted())
    with pytest.raises(KeyboardInterrupt):
        write_similarity_binary(path, new, new_digest)
    monkeypatch.undo()
    # the file keeps its size and holds half of each body, under neither digest
    assert path.stat().st_size == 48 + old.nbytes
    for digest in (old_digest, new_digest):
        with pytest.raises(DataFormatError, match="similarity matrix of other partitions"):
            read_similarity_binary(path, digest)


def test_partitions_digest_hashes_shape_and_int32_labels():
    parts = np.array([[0, 1, 1], [0, 0, 1]])
    expected = hashlib.sha256(struct.pack("<QQ", 2, 3)
                              + parts.astype("<i4").tobytes()).digest()
    assert partitions_digest(parts) == partitions_digest(parts.astype(np.int32)) == expected
    assert partitions_digest(parts.reshape(3, 2)) != expected


class TestConfig:
    def test_preset_c_expansion(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "C"}))
        cfg = _build_run_config(_read_config(path))
        assert cfg["var_prior_shape"] == 2.1 and cfg["var_prior_scale"] == 30.0
        assert cfg["base_prior_shape"] == 2.1 and cfg["base_prior_scale"] == 30.0

    def test_preset_a_expansion(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "A"}))
        cfg = _build_run_config(_read_config(path))
        assert (cfg["var_prior_shape"], cfg["var_prior_scale"],
                cfg["base_prior_shape"], cfg["base_prior_scale"]) == PRESETS["A"]

    def test_custom_requires_all_constants(self):
        with pytest.raises(CliError) as err:
            _build_run_config({"preset": "custom", "var_prior_shape": 1.0})
        assert err.value.code == EXIT_USAGE

    def test_explicit_constants_override_preset(self):
        cfg = _build_run_config({"preset": "C", "var_prior_scale": 99.0})
        assert cfg["var_prior_scale"] == 99.0 and cfg["var_prior_shape"] == 2.1

    def test_burnin_check(self):
        with pytest.raises(CliError):
            _build_run_config({"iterations": 100, "burnin": 100})

    def test_unknown_field_rejected(self):
        with pytest.raises(CliError):
            _build_run_config({"itertions": 100})

    def test_invalid_enums(self):
        with pytest.raises(CliError):
            _build_run_config({"selection": "best"})
        with pytest.raises(CliError):
            _build_run_config({"weight_mode": "sometimes"})

    def test_var_scale_rules(self):
        assert resolve_var_scale("2*wbar", 2500.0) == 5000.0
        assert resolve_var_scale("wbar/15", 1.0) == 1.0 / 15.0
        assert resolve_var_scale("wbar", 3.0) == 3.0
        assert resolve_var_scale(4.2, 99.0) == 4.2
        assert resolve_var_scale("0.5", 99.0) == 0.5
        with pytest.raises(CliError):
            resolve_var_scale("two wbars", 1.0)
        # the factor goes before wbar, as the documented rule spells it
        with pytest.raises(CliError, match="cannot parse var_scale rule") as err:
            resolve_var_scale("wbar*2", 1.0)
        assert err.value.code == EXIT_USAGE
        with pytest.raises(CliError):
            resolve_var_scale(-1.0, 1.0)

    @pytest.mark.parametrize("key, settings, flags", [
        ("iterations", {"iterations": "20"}, []),
        ("chains", {"chains": "2"}, []),
        ("thinning", {"thinning": 1.5}, []),
        ("seed", {"seed": -1}, []),
        ("burnin", {"burnin": -3}, []),
        ("discount_zero_prob", {"discount_zero_prob": 1.5}, []),
        ("strength_step", {"strength_step": -1.0}, []),
        ("base_prior_scale", {"base_prior_scale": -2.0}, []),
        ("corr_window_frac", {"corr_window_frac": 0}, []),
        ("var_proposal_shape", {"var_proposal_shape": 0}, []),
        ("strength_shape", {}, ["--strength-shape", "0"]),
        ("var_prior_shape", {"var_prior_shape": -1.0}, []),
        ("var_prior_scale", {"preset": "custom", "var_prior_shape": 2.0,
                             "var_prior_scale": 0.0, "base_prior_shape": 2.0,
                             "base_prior_scale": 2.0}, []),
        ("thinning", {"iterations": 3, "burnin": 1, "thinning": 3}, []),
        ("pool", {"pool": "false", "chains": 2}, []),
        ("similarity_csv", {"similarity_csv": "no"}, []),
        ("var_scale", {"var_scale": True}, []),
    ], ids=["iterations", "chains", "thinning", "seed", "burnin", "discount_zero_prob",
            "strength_step", "base_prior_scale", "corr_window_frac", "var_proposal_shape",
            "strength_shape-flag", "var_prior_shape", "custom-var_prior_scale",
            "no-kept-draw", "pool", "similarity_csv", "var_scale-bool"])
    def test_bad_values_exit_one_and_name_the_setting(self, scenario_files, capsys,
                                                      key, settings, flags):
        tmp, _, _ = scenario_files
        cfg_path = tmp / "cfg.json"
        cfg_path.write_text(json.dumps({
            "data": str(tmp / "data.csv"), "schema": str(tmp / "schema.txt"),
            "out": str(tmp / "out"), "iterations": 20, "burnin": 4, "thinning": 2,
            "weight_mode": "ignore", "var_scale": 1.0, "seed": 3, **settings,
        }))
        assert main(["run", "--config", str(cfg_path), *flags]) == EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not (tmp / "out").exists()

    def test_flags_override_the_config_file_key_by_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "A", "base_prior_scale": 7.0,
                                    "strength_rate": 0}))
        args = pdclust.cli.build_parser().parse_args(
            ["run", "--config", str(path), "--preset", "C", "--strength-rate", "3"])
        cfg = pdclust.cli._layered_config(args)
        assert cfg["preset"] == "C" and cfg["strength_rate"] == 3.0
        assert (cfg["var_prior_shape"], cfg["var_prior_scale"],
                cfg["base_prior_shape"], cfg["base_prior_scale"]) == (2.1, 30.0, 2.1, 7.0)

    def test_run_flags_are_the_settings_with_the_types_of_their_defaults(self):
        parser = pdclust.cli.build_parser()
        verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a for a in verbs.choices["run"]._actions if a.dest != "help"}
        assert set(flags) == {*_CONFIG_DEFAULTS, "config"}
        constants = {f.name for f in dataclasses.fields(PriorConstants)}
        for key, default in _CONFIG_DEFAULTS.items():
            flag = flags[key]
            assert flag.option_strings == ["--" + key.replace("_", "-")]
            if isinstance(default, bool):
                assert isinstance(flag, argparse._StoreConstAction) and flag.const is True
            elif key in constants:
                assert flag.type is float, key
            else:
                assert flag.type is (str if default is None else type(default)), key
        assert {key for key, flag in flags.items() if flag.choices} == {
            "weight_mode", "preset", "selection"}

    def test_every_constant_is_a_config_key_and_a_flag(self, scenario_files, monkeypatch):
        tmp, _, _ = scenario_files
        names = [f.name for f in dataclasses.fields(PriorConstants)]
        # distinct values, each in (0, 1) and so valid for every constant
        values = {name: (k + 1) / (len(names) + 1) for k, name in enumerate(names)}
        seen = []

        def capture(dataset, schema, config):
            seen.append(config)
            raise RuntimeError("captured")

        monkeypatch.setattr(pdclust.cli, "run_chain", capture)
        run = {"data": str(tmp / "data.csv"), "schema": str(tmp / "schema.txt"),
               "out": str(tmp / "out"), "iterations": 20, "burnin": 4}
        cfg_path = tmp / "cfg.json"
        cfg_path.write_text(json.dumps({**run, **values}))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_RUNTIME
        cfg_path.write_text(json.dumps(run))
        flags = [arg for name in names
                 for arg in (f"--{name.replace('_', '-')}", repr(values[name]))]
        assert main(["run", "--config", str(cfg_path), *flags]) == EXIT_RUNTIME

        assert len(seen) == 2
        for config in seen:
            assert dataclasses.asdict(config.priors) == values


def small_run_config(tmp_path, **extra):
    mapping = {
        "data": str(tmp_path / "data.csv"),
        "schema": str(tmp_path / "schema.txt"),
        "out": str(tmp_path / "out"),
        "iterations": 30,
        "burnin": 6,
        "thinning": 2,
        "seed": 9,
        "weight_mode": "ignore",
        "var_scale": 1.0,
        "preset": "C",
    }
    mapping.update(extra)
    return _build_run_config(mapping)


class TestRunCommand:
    def test_outputs_and_manifest(self, scenario_files):
        tmp_path, ds, specs = scenario_files
        manifest = run_command(small_run_config(tmp_path))
        out = tmp_path / "out"
        for name in ("trace.csv", "partitions.csv", "similarity.bin",
                     "selected.csv", "summary.csv", "manifest.json"):
            assert (out / name).exists()
        assert manifest["chains"][0]["n_clusters"] >= 1
        assert manifest["resolved_var_scale"] == 1.0
        kept = (30 - 6) // 2
        assert len((out / "partitions.csv").read_text().splitlines()) == kept + 1

    def test_manifest_records_each_log_shift(self, tmp_path):
        specs = [continuous_spec("income", TransformSpec(kind="log-shift", shift_quantile=0.05)),
                 continuous_spec("y"), ordinal_spec("feed", 2)]
        rng = np.random.default_rng(2)
        values = np.column_stack([rng.lognormal(3.0, 0.5, 30), rng.standard_normal(30),
                                  rng.integers(0, 2, 30)])
        write_data_csv(tmp_path / "data.csv", Dataset.from_values(values), specs)
        write_schema_file(tmp_path / "schema.txt", specs)
        run_command(small_run_config(tmp_path))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["log_shift_values"] == [np.quantile(values[:, 0], 0.05)]

    def test_byte_identical_reruns(self, scenario_files, tmp_path):
        tmp, _, _ = scenario_files
        run_command(small_run_config(tmp, out=str(tmp / "o1")))
        run_command(small_run_config(tmp, out=str(tmp / "o2")))
        for name in ("partitions.csv", "selected.csv", "summary.csv", "trace.csv"):
            assert (tmp / "o1" / name).read_bytes() == (tmp / "o2" / name).read_bytes()

    def test_min_hm_selection_never_worse(self, scenario_files):
        tmp, ds, specs = scenario_files
        m_dahl = run_command(small_run_config(tmp, out=str(tmp / "dahl")))
        m_hm = run_command(small_run_config(tmp, selection="min-hm",
                                            out=str(tmp / "hm")))
        assert m_hm["chains"][0]["hm"] <= m_dahl["chains"][0]["hm"] + 1e-12

    def test_multichain_with_pooling(self, scenario_files):
        tmp, _, _ = scenario_files
        cfg = small_run_config(tmp, chains=2, pool=True, out=str(tmp / "mc"))
        manifest = run_command(cfg)
        assert len(manifest["chains"]) == 2
        assert (tmp / "mc" / "trace_chain0.csv").exists()
        assert (tmp / "mc" / "trace_chain1.csv").exists()
        assert (tmp / "mc" / "similarity_pooled.bin").exists()
        assert manifest["chain_seeds"][0] != manifest["chain_seeds"][1]

    def test_two_workers_write_what_one_writes(self, scenario_files):
        tmp, _, _ = scenario_files
        for workers in ("1", "2"):
            assert main(["run", "--data", str(tmp / "data.csv"), "--schema",
                         str(tmp / "schema.txt"), "--out", str(tmp / f"w{workers}"),
                         "--iterations", "30", "--burnin", "6", "--weight-mode", "ignore",
                         "--var-scale", "1", "--chains", "2", "--pool",
                         "--workers", workers]) == EXIT_OK
        names = sorted(path.name for path in (tmp / "w1").iterdir())
        assert names == sorted(path.name for path in (tmp / "w2").iterdir())
        assert "similarity_pooled.bin" in names
        for name in names:
            if name != "manifest.json":
                assert (tmp / "w1" / name).read_bytes() == (tmp / "w2" / name).read_bytes(), name

    def test_validation_failure_exit_code(self, tmp_path):
        specs = [ordinal_spec("b", 2)]
        ds = Dataset.from_values([[0.0], [5.0]])
        write_data_csv(tmp_path / "data.csv", ds, specs)
        write_schema_file(tmp_path / "schema.txt", specs)
        with pytest.raises(CliError) as err:
            run_command(small_run_config(tmp_path))
        assert err.value.code == EXIT_VALIDATION


def _read_partitions(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int32, ndmin=2)


def _move_first_record_to_a_new_cluster(path):
    """Give record 0 of the first stored partition a label of its own; return
    the edited partitions as the CLI parses them."""
    header, first, *rest = path.read_text().splitlines()
    labels = [int(x) for x in first.split(",")]
    assert labels.count(labels[0]) > 1
    labels[0] = max(labels) + 1
    path.write_text("\n".join([header, ",".join(map(str, labels)), *rest]) + "\n")
    return _read_partitions(path)


class TestVerbs:
    def test_validate_verb_exit_codes(self, scenario_files):
        tmp, _, _ = scenario_files
        assert main(["validate", "--data", str(tmp / "data.csv"),
                     "--schema", str(tmp / "schema.txt")]) == EXIT_OK

    def test_validate_verb_detects_bad_data(self, tmp_path, capsys):
        specs = [ordinal_spec("b", 2)]
        write_data_csv(tmp_path / "data.csv", Dataset.from_values([[7.0]]), specs)
        write_schema_file(tmp_path / "schema.txt", specs)
        code = main(["validate", "--data", str(tmp_path / "data.csv"),
                     "--schema", str(tmp_path / "schema.txt")])
        assert code == EXIT_VALIDATION
        assert "b" in capsys.readouterr().out

    def test_validate_names_a_weight_whose_inverse_overflows(self, tmp_path, capsys):
        # 1/w overflows for a positive weight below about 5.6e-309
        specs = [continuous_spec("y")]
        (tmp_path / "data.csv").write_text("y,w\n0.5,1.0\n1.5,1e-310\n2.5,2.0\n")
        write_schema_file(tmp_path / "schema.txt", specs, weight_column="w")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["validate", "--data", str(tmp_path / "data.csv"),
                         "--schema", str(tmp_path / "schema.txt")])
        assert code == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out.splitlines() == ["1 problem(s) found:",
                                    "  record 1, <weight>: sampling probability 1/w is not finite"]
        assert not caught and err == ""

    def test_validate_and_run_reject_values_a_log_shift_cannot_map(self, tmp_path, capsys):
        # the shift of normal(0, 3) values, their 1 % quantile, is negative
        specs = [continuous_spec("income", TransformSpec(kind="log-shift"))]
        income = np.random.default_rng(4).normal(0.0, 3.0, (40, 1))
        write_data_csv(tmp_path / "data.csv", Dataset.from_values(income), specs)
        write_schema_file(tmp_path / "schema.txt", specs)
        unmapped = np.sum(income + np.quantile(income, 0.01) <= 0)
        assert 0 < unmapped < 40
        files = ["--data", str(tmp_path / "data.csv"), "--schema", str(tmp_path / "schema.txt")]
        assert main(["validate", *files]) == EXIT_VALIDATION
        report = capsys.readouterr().out
        assert report.startswith(f"{unmapped} problem(s) found:")
        assert report.count("income: log-shift argument") == unmapped
        code = main(["run", *files, "--out", str(tmp_path / "out"), "--iterations", "20",
                     "--burnin", "4"])
        assert code == EXIT_VALIDATION
        assert report.strip() in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_exits_two_naming_a_data_file_it_cannot_read(self, scenario_files, capsys):
        tmp, _, _ = scenario_files
        code = main(["run", "--data", str(tmp / "nope.csv"), "--schema", str(tmp / "schema.txt"),
                     "--out", str(tmp / "out"), "--iterations", "20", "--burnin", "4"])
        assert code == EXIT_VALIDATION
        assert f"{tmp / 'nope.csv'}: cannot read input" in capsys.readouterr().err
        assert not (tmp / "out").exists()

    def test_validate_exits_two_naming_an_input_file_it_cannot_read(self, scenario_files,
                                                                     capsys):
        tmp, _, _ = scenario_files
        for data, schema, unreadable in [(tmp / "data.csv", tmp / "nope.txt", tmp / "nope.txt"),
                                         (tmp, tmp / "schema.txt", tmp)]:
            assert main(["validate", "--data", str(data), "--schema", str(schema)]) \
                == EXIT_VALIDATION
            assert f"{unreadable}: cannot read input" in capsys.readouterr().err

    def test_usage_errors_exit_one(self, capsys):
        assert main(["run", "--no-such-flag"]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE
        assert main(["run"]) == EXIT_USAGE  # missing data/schema/out

    def test_missing_out_is_reported_before_the_data_are_read(self, tmp_path, capsys):
        specs = [ordinal_spec("b", 2)]
        write_data_csv(tmp_path / "data.csv", Dataset.from_values([[7.0]]), specs)
        write_schema_file(tmp_path / "schema.txt", specs)
        code = main(["run", "--data", str(tmp_path / "data.csv"),
                     "--schema", str(tmp_path / "schema.txt")])
        assert code == EXIT_USAGE
        assert "--out" in capsys.readouterr().err

    def test_run_verb_end_to_end(self, scenario_files):
        tmp, _, _ = scenario_files
        code = main([
            "run", "--data", str(tmp / "data.csv"), "--schema", str(tmp / "schema.txt"),
            "--out", str(tmp / "cli_out"), "--iterations", "20", "--burnin", "4",
            "--thinning", "2", "--weight-mode", "ignore", "--var-scale", "1",
            "--seed", "1",
        ])
        assert code == EXIT_OK
        assert (tmp / "cli_out" / "manifest.json").exists()

    @pytest.mark.parametrize("error", [
        AssertionError("cluster counts do not sum to n"),
        np.linalg.LinAlgError("Matrix is not positive definite"),
        FloatingPointError("membership weights of record 4 are not finite"),
        RuntimeError("chain stored 3 partitions but the config keeps 12"),
    ], ids=lambda err: type(err).__name__)
    def test_chain_errors_exit_three_as_aborted(self, scenario_files, monkeypatch, capsys,
                                                error):
        tmp, _, _ = scenario_files

        def abort(*args, **kwargs):
            raise error

        monkeypatch.setattr(pdclust.cli, "run_chain", abort)
        code = main([
            "run", "--data", str(tmp / "data.csv"), "--schema", str(tmp / "schema.txt"),
            "--out", str(tmp / "aborted"), "--iterations", "20", "--burnin", "4",
            "--weight-mode", "ignore", "--var-scale", "1", "--seed", "1",
        ])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"chain aborted: {error}" in err

    def test_config_file_layering(self, scenario_files):
        tmp, _, _ = scenario_files
        cfg_path = tmp / "cfg.json"
        cfg_path.write_text(json.dumps({
            "data": str(tmp / "data.csv"), "schema": str(tmp / "schema.txt"),
            "out": str(tmp / "from_cfg"), "iterations": 20, "burnin": 4,
            "thinning": 2, "weight_mode": "ignore", "var_scale": 1.0, "seed": 3,
        }))
        # flag overrides the config's output directory
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp / "flag_out")])
        assert code == EXIT_OK
        assert (tmp / "flag_out").exists() and not (tmp / "from_cfg").exists()

    def test_bench_verb(self, tmp_path):
        manifest = bench_command("II", "C", seed=3, out=str(tmp_path / "bench"),
                                 overrides={"iterations": 30, "burnin": 6,
                                            "thinning": 2})
        out = tmp_path / "bench"
        assert (out / "cluster_count_hist.csv").exists()
        assert (out / "true_labels.csv").exists()
        hist = (out / "cluster_count_hist.csv").read_text().splitlines()
        probs = [float(line.split(",")[2]) for line in hist[1:]]
        assert abs(sum(probs) - 1.0) < 1e-9
        assert manifest["histogram"] == "cluster_count_hist.csv"
        trace = (out / manifest["chains"][0]["files"]["trace"]).read_text().splitlines()
        column = trace[0].split(",").index("n_clusters")
        r, counts = np.unique([int(line.split(",")[column]) for line in trace[1:]],
                              return_counts=True)
        assert [line.split(",")[:2] for line in hist[1:]] == \
            [[str(a), str(b)] for a, b in zip(r, counts)]
        assert json.loads((out / "manifest.json").read_text()) == manifest

    def test_bench_weighted_scenario_resolves_kappa(self, tmp_path):
        manifest = bench_command("V", "C", seed=1, out=str(tmp_path / "b5"),
                                 overrides={"iterations": 25, "burnin": 5,
                                            "thinning": 2})
        assert np.isclose(manifest["resolved_var_scale"], 1.0 / 15.0)
        assert manifest["config"]["weight_mode"] == "design"

    def test_summarize_recomputes(self, scenario_files):
        tmp, _, _ = scenario_files
        run_command(small_run_config(tmp))
        before = (tmp / "out" / "summary.csv").read_bytes()
        result = summarize_command(str(tmp / "out"), selection="min-hm")
        assert (tmp / "out" / "summary.csv").exists()
        assert result["chains"][0]["selection"] == "min-hm"
        # dahl re-summarize restores the original bytes
        summarize_command(str(tmp / "out"), selection="dahl")
        assert (tmp / "out" / "summary.csv").read_bytes() == before

    def test_summarize_verb_records_its_selection_in_the_manifest(self, scenario_files,
                                                                   capsys):
        tmp, _, _ = scenario_files
        out = tmp / "out"
        run_command(small_run_config(tmp, chains=2, pool=True))
        path = out / "manifest.json"
        before = json.loads(path.read_text())
        capsys.readouterr()
        assert main(["summarize", "--run", str(out), "--selection", "min-hm"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        after = json.loads(path.read_text())
        dataset, schema = _load_inputs(tmp / "data.csv", tmp / "schema.txt")
        expanded = expand_variables(dataset, schema)
        entries = [*zip(before["chains"], after["chains"]), (before["pooled"], after["pooled"])]

        def unsummarized(info):
            return {key: value for key, value in info.items()
                    if key not in ("selection", "selection_score", "hm", "n_clusters", "files")}

        assert [line.split(":")[0] for line in lines] == ["chain 0", "chain 1", "pooled"]
        for (old, new), line in zip(entries, lines):
            selected = np.loadtxt(out / new["files"]["selected"], delimiter=",", skiprows=1,
                                  dtype=np.int64)[:, 1]
            assert new["selection"] == "min-hm"
            assert new["n_clusters"] == np.unique(selected).size
            assert new["hm"] == hm_measure(selected, expanded, dataset.weights)
            assert f"min-hm partition with {new['n_clusters']} clusters" in line
            assert unsummarized(new) == unsummarized(old)
            assert new["files"].items() >= old["files"].items()
        for key in ("config", "chain_seeds", "runtime_seconds"):
            assert after[key] == before[key]

    def test_summarize_reads_a_manifest_with_settings_it_does_not_use(self, scenario_files):
        tmp, _, _ = scenario_files
        run_command(small_run_config(tmp))
        before = (tmp / "out" / "summary.csv").read_bytes()
        path = tmp / "out" / "manifest.json"
        manifest = json.loads(path.read_text())
        # keys of manifests from older versions
        manifest["config"].update(runtime_checks=True, var_proposal_shape=5.0,
                                  corr_window_frac=4.0, strength_step=2.0)
        del manifest["config"]["similarity_csv"]  # a missing key takes its default
        path.write_text(json.dumps(manifest))
        result = summarize_command(str(tmp / "out"))
        assert result["chains"][0]["selection"] == "dahl"
        assert (tmp / "out" / "summary.csv").read_bytes() == before
        with pytest.raises(CliError) as err:
            summarize_command(str(tmp / "out"), selection="best")
        assert err.value.code == EXIT_USAGE

    @pytest.mark.parametrize("damage", [
        lambda manifest: "{",
        lambda manifest: json.dumps({k: v for k, v in manifest.items() if k != "config"}),
        lambda manifest: json.dumps({k: v for k, v in manifest.items() if k != "chains"}),
        lambda manifest: json.dumps({**manifest, "chains": [{"files": {}}]}),
        lambda manifest: json.dumps([manifest]),
    ], ids=["not-json", "no-config", "no-chains", "no-partitions", "not-an-object"])
    def test_summarize_rejects_a_damaged_manifest(self, scenario_files, damage, capsys):
        tmp, _, _ = scenario_files
        run_command(small_run_config(tmp))
        path = tmp / "out" / "manifest.json"
        path.write_text(damage(json.loads(path.read_text())))
        assert main(["summarize", "--run", str(tmp / "out")]) == EXIT_USAGE
        assert f"{path} is not a run manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("selection", ["dahl", "min-hm"])
    def test_summarize_rejects_partition_width_mismatch(self, scenario_files,
                                                        selection, capsys):
        tmp, ds, _ = scenario_files
        run_command(small_run_config(tmp))
        path = tmp / "out" / "partitions.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
        code = main(["summarize", "--run", str(tmp / "out"), "--selection", selection])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "partitions.csv" in err
        assert f"{ds.n - 1} records" in err and f"has {ds.n}" in err

    @pytest.mark.parametrize("damage", ["non-integer-cell", "missing-file", "header-only"])
    def test_summarize_rejects_unreadable_partitions(self, scenario_files, damage, capsys):
        tmp, _, _ = scenario_files
        run_command(small_run_config(tmp))
        path = tmp / "out" / "partitions.csv"
        header, first, *rest = path.read_text().splitlines()
        if damage == "missing-file":
            path.unlink()
        elif damage == "header-only":
            path.write_text(header + "\n")
        else:
            path.write_text("\n".join([header, "x," + first.split(",", 1)[1], *rest]) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["summarize", "--run", str(tmp / "out")]) == EXIT_VALIDATION
        expected = "holds no partitions" if damage == "header-only" else "cannot read partitions"
        assert f"{path}: {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("similarity_csv", [False, True])
    def test_summarize_reuses_the_stored_similarity(self, scenario_files, monkeypatch,
                                                    similarity_csv):
        tmp, _, _ = scenario_files
        out = tmp / "out"
        run_command(small_run_config(tmp, similarity_csv=similarity_csv))
        names = ["selected.csv", "summary.csv", "similarity.bin"]
        names += ["similarity.csv"] if similarity_csv else []
        # the reference outputs come from a copy whose matrix must be computed
        ref = tmp / "ref"
        shutil.copytree(out, ref)
        (ref / "similarity.bin").unlink()
        expected = {}
        for selection in ("dahl", "min-hm"):
            summarize_command(str(ref), selection)
            expected[selection] = {name: (ref / name).read_bytes() for name in names}

        def fail(*args):
            raise RuntimeError("similarity recomputed or rewritten")

        monkeypatch.setattr(pdclust.postproc, "similarity", fail)
        monkeypatch.setattr(pdclust.cli, "write_similarity_binary", fail)
        for selection in ("dahl", "min-hm"):
            assert main(["summarize", "--run", str(out), "--selection", selection]) == EXIT_OK
            assert {name: (out / name).read_bytes() for name in names} == expected[selection]

    def test_summarize_recomputes_the_similarity_of_edited_partitions(self, scenario_files):
        tmp, _, _ = scenario_files
        out = tmp / "out"
        run_command(small_run_config(tmp))
        before = read_similarity_binary(out / "similarity.bin")
        parsed = _move_first_record_to_a_new_cluster(out / "partitions.csv")
        for selection in ("min-hm", "dahl"):
            summarize_command(str(out), selection)
            sim = read_similarity_binary(out / "similarity.bin")
            assert np.array_equal(sim, similarity(parsed))
        assert not np.array_equal(sim, before)

    @pytest.mark.parametrize("selection", ["dahl", "min-hm"])
    @pytest.mark.parametrize("damage", ["bad-magic", "truncated", "PDCSIM1", "wrong-n",
                                        "interrupted"])
    def test_summarize_rewrites_a_stored_similarity_it_cannot_use(self, scenario_files,
                                                                  damage, selection):
        tmp, ds, _ = scenario_files
        out = tmp / "out"
        run_command(small_run_config(tmp))
        path = out / "similarity.bin"
        good = path.read_bytes()
        if damage == "bad-magic":
            path.write_bytes(b"X" + good[1:])
        elif damage == "truncated":
            path.write_bytes(good[:-8])
        elif damage == "PDCSIM1":  # the layout before the header held a digest
            path.write_bytes(b"PDCSIM1\x00" + good[8:16] + good[48:])
        elif damage == "interrupted":  # a rewrite stopped before its digest
            path.write_bytes(good[:16] + bytes(32) + good[48:])
        else:  # the matrix of partitions over one record fewer
            parts = _read_partitions(out / "partitions.csv")[:, 1:]
            write_similarity_binary(path, similarity(parts), partitions_digest(parts))
        assert main(["summarize", "--run", str(out), "--selection", selection]) == EXIT_OK
        assert path.read_bytes() == good

    def test_summarize_recomputes_only_the_edited_chain(self, scenario_files, monkeypatch):
        tmp, _, _ = scenario_files
        out = tmp / "out"
        run_command(small_run_config(tmp, chains=2))
        chain0 = (out / "similarity_chain0.bin").read_bytes()
        parsed = _move_first_record_to_a_new_cluster(out / "partitions_chain1.csv")
        computed = []

        def spy(partitions):
            computed.append(partitions.copy())
            return similarity(partitions)

        monkeypatch.setattr(pdclust.postproc, "similarity", spy)
        summarize_command(str(out), "dahl")
        assert len(computed) == 1 and np.array_equal(computed[0], parsed)
        assert (out / "similarity_chain0.bin").read_bytes() == chain0
        assert np.array_equal(read_similarity_binary(out / "similarity_chain1.bin"),
                              similarity(parsed))

    def test_summarize_reselects_the_pooled_partitions(self, scenario_files):
        tmp, _, _ = scenario_files
        out = tmp / "out"
        run_command(small_run_config(tmp, chains=2, pool=True))
        result = summarize_command(str(out), selection="min-hm")
        stacked = np.vstack([_read_partitions(out / f"partitions_chain{c}.csv")
                             for c in (0, 1)])
        dataset, schema = _load_inputs(tmp / "data.csv", tmp / "schema.txt")
        expected, score = min_hm_select(stacked, expand_variables(dataset, schema),
                                        dataset.weights)
        selected = np.loadtxt(out / "selected_pooled.csv", delimiter=",", skiprows=1,
                              dtype=np.int64)[:, 1]
        assert result["pooled"]["selection"] == "min-hm"
        assert result["pooled"]["selection_score"] == score
        assert np.array_equal(selected, expected)
        assert (out / "summary_pooled.csv").read_text().splitlines() == \
            cluster_summary(expected, dataset, schema).to_lines()
        assert np.array_equal(read_similarity_binary(out / "similarity_pooled.bin",
                                                     partitions_digest(stacked)),
                              similarity(stacked))

    def test_dataset_round_trip_through_cli_formats(self, tmp_path):
        ds, _ = gen_study1(ScenarioSpec("III", seed=11))
        specs = scenario_variable_specs("III")
        write_data_csv(tmp_path / "d.csv", ds, specs, weight_column="w")
        write_schema_file(tmp_path / "s.txt", specs, weight_column="w")
        parsed, wc, skipped = read_schema_file(tmp_path / "s.txt")
        back = read_data_csv(tmp_path / "d.csv", parsed, wc, skipped)
        assert np.array_equal(back.values, ds.values)
        assert np.array_equal(back.weights, ds.weights)
