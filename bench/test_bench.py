"""Fast checks of the benchmark harness, at small sizes."""

import dataclasses
import importlib
import json
import logging
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from harness import (ALL_TARGETS, CHECK_TARGETS, SAMPLER_TARGETS, Tracer,  # noqa: E402
                     labels_ok, selection_ok, shares_ok, similarity_ok)
import run  # noqa: E402
from workloads import WORKLOADS, SummarizeWorkload  # noqa: E402


def _attributes(targets):
    found = {}
    for module, attr, _ in targets:
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        found[attr] = vars(owner)[name]
    return found


def _small(name):
    return dataclasses.replace(WORKLOADS[name], iterations=40, burnin=10, thinning=2)


@pytest.fixture(scope="module", params=["grid-design", "mixed-ordinal"])
def chain_pair(request):
    """An untraced and a traced small chain of one chain workload."""
    workload = _small(request.param)
    inputs = workload.prepare(3, None)
    plain = workload.run_op(inputs, Tracer(workload.boundary))
    traced = workload.run_op(inputs, Tracer(ALL_TARGETS, counters=True))
    return request.param, workload, inputs, plain, traced


def test_wrappers_restore_every_attribute_after_an_exception():
    before = _attributes(ALL_TARGETS)
    handlers = list(logging.getLogger("pdclust.latent").handlers)
    tracer = Tracer(ALL_TARGETS, counters=True)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            during = _attributes(ALL_TARGETS)
            assert all(during[k] is not before[k] for k in before)
            raise RuntimeError("boom")
    after = _attributes(ALL_TARGETS)
    assert all(after[k] is before[k] for k in before)
    assert logging.getLogger("pdclust.latent").handlers == handlers
    assert tracer.absent == []


def test_absent_names_are_reported_and_skipped():
    targets = [("pdclust.sampler", "no_such_step", "x"),
               ("pdclust.sampler", "NoSuchState.check", "y")] + SAMPLER_TARGETS[:1]
    tracer = Tracer(targets)
    with tracer.installed():
        pass
    assert tracer.absent == ["pdclust.sampler.no_such_step",
                             "pdclust.sampler.NoSuchState.check"]


def test_traced_chain_reproduces_untraced_fingerprint(chain_pair):
    _, _, _, plain, traced = chain_pair
    assert plain.failed == traced.failed == 0
    assert plain.fingerprint == traced.fingerprint


def test_wrapped_calls_per_workload(chain_pair):
    name, workload, _, _, traced = chain_pair
    calls = traced.tracer.calls
    assert calls["sampler.sweep"] == workload.iterations
    if name == "mixed-ordinal":
        for _, attr, key in SAMPLER_TARGETS + CHECK_TARGETS:
            assert calls[key] > 0, attr
    else:
        assert calls["covariance.correlation"] == 0
        assert calls["sampler.urn"] == workload.iterations * 200


def test_setup_stops_at_the_first_sweep(chain_pair):
    _, workload, inputs, _, _ = chain_pair
    assert 0.0 < workload.setup_once(inputs) < 1.0


def test_aborted_chain_is_counted_not_raised(monkeypatch):
    workload = _small("mixed-ordinal")
    inputs = workload.prepare(3, None)

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr("pdclust.sampler.update_discount", broken)
    op = workload.run_op(inputs, Tracer(workload.boundary))
    assert op.total_s is None
    assert op.failed == 1 and op.attempted == 1


def test_summarize_outputs_checked_and_repeatable(tmp_path):
    workload = SummarizeWorkload(n=60, kept=20)
    inputs = workload.prepare(5, tmp_path)
    traced = workload.run_op(inputs, Tracer(ALL_TARGETS, counters=True))
    plain = workload.run_op(inputs, Tracer(workload.boundary))
    assert traced.failed == plain.failed == 0 and traced.attempted == 8
    assert traced.fingerprint == plain.fingerprint
    calls = traced.tracer.calls
    assert calls["postproc.similarity"] == 2
    assert calls["postproc.dahl"] == calls["postproc.min_hm"] == 1
    assert calls["sampler.sweep"] == 0
    assert 0.0 < workload.setup_once(inputs) < traced.total_s


def test_output_checks_reject_bad_outputs():
    assert labels_ok(np.array([0, 1, 1, 2]), 4)
    assert not labels_ok(np.array([0, 2, 2, 0]), 4)
    sim = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert similarity_ok(sim, 2)
    assert not similarity_ok(np.array([[1.0, 0.5], [0.4, 1.0]]), 2)
    assert not similarity_ok(np.array([[0.9, 0.5], [0.5, 1.0]]), 2)
    parts = np.array([[0, 0, 1], [0, 1, 1]])
    assert selection_ok(parts[1], parts)
    assert not selection_ok(np.array([0, 1, 0]), parts)
    assert shares_ok([60.0, 40.0], 1e-3) and not shares_ok([60.0, 30.0], 1e-3)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["mixed-ordinal", "summarize-n1000"])
def test_measure_reports_every_metric(monkeypatch, tmp_path, name, trace):
    small = _small(name) if name != "summarize-n1000" else SummarizeWorkload(n=60, kept=20)
    monkeypatch.setitem(WORKLOADS, name, small)
    metrics, ops, _ = run.measure(name, 4, 0.1, trace, tmp_path)
    assert set(metrics) == set(run.PER_LAYER if trace else run.END_TO_END)
    assert sum(op.failed for op in ops) == 0
    if trace:
        assert metrics["trace.coverage_frac"] > 0.5
    else:
        assert all(v > 0 for v in metrics.values())


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
