"""Self-test of the benchmark at toy size.

Checks the result schema against BENCHMARK.json, that the correctness checks
catch tampered outputs, that the tracer survives missing targets, and that
the command refuses to run without the package source. Timings are never
asserted.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run_bench

run_bench.import_package()

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from guidedboost.data import SplitAssignment  # noqa: E402

TOY = bench_workloads.Sizes(
    quick_rows=150, quick_runs=2, quick_epochs=2, scale_rows=400, forest_rows=150, forest_trees=2,
    bulk_rows=300, bulk_fit_epochs=2, setup_repeats=2, min_calls=2,
)
SEED = 3
SPEC = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())


def _workload(name, tmp_path):
    """A workload, or a part of one, by name."""
    found = {}
    for w in bench_workloads.workloads(TOY, tmp_path).values():
        found[w.name] = w
        found.update((part.name, part) for part in getattr(w, "parts", ()))
    return found[name]


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run_bench.py"]
    assert SPEC["paths"] == ["bench"]
    assert SPEC["run_seconds"] == run_bench.DEFAULT_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == list(run_bench.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(
        run_bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        bench_trace.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(bench_workloads.workloads(TOY, Path(".")).keys()) == set(run_bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run_bench.WORKLOADS)
def test_toy_run_reports_every_metric(name, trace, tmp_path):
    record = run_bench.run_workload(_workload(name, tmp_path), SEED, 0.01, bool(trace), TOY)
    assert record["correct"], record["failures"]
    assert record["failed"] == 0
    assert record["attempted"] >= TOY.setup_repeats + TOY.min_calls + trace
    assert record["absent"] == []
    line = json.loads(run_bench._summary_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        value = line["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], float) and math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0
    assert record["digests"] and all(len(d) == 64 for d in record["digests"].values())
    assert list(tmp_path.iterdir()) == []  # set-up scratch is removed


def test_flipped_label_fails_the_predict_check(tmp_path):
    w = _workload("predict-bulk", tmp_path)
    st = w.setup(SEED)
    try:
        out = w.call(st)
        assert w.check(st, out).failures == []
        for v, (labels, routes) in enumerate(out):
            def fails(pair, v=v):
                return w.check(st, [pair if j == v else p for j, p in enumerate(out)]).failures

            for i in (int(np.flatnonzero(routes == "base")[0]),
                      int(np.flatnonzero(routes == "auxiliary")[0])):
                flipped = labels.copy()
                flipped[i] = 1 - flipped[i]
                assert fails((flipped, routes))
            rerouted = routes.copy()
            rerouted[0] = "auxiliary" if routes[0] == "base" else "base"
            assert fails((labels, rerouted))
            assert fails((labels[:-1], routes[:-1]))
    finally:
        st.close()


def test_a_failed_part_fails_the_whole_call(tmp_path):
    w = _workload("prepare-predict", tmp_path)
    st = w.setup(SEED)
    try:
        results = w.call(st)
        assert w.check(st, results).failures == []
        labels, routes = results[-1][0]
        results[-1][0] = (1 - labels, routes)
        failures = w.check(st, results).failures
        assert failures and all(f.startswith("predict-bulk: ") for f in failures)
    finally:
        st.close()


def test_moved_id_fails_the_prepare_check(tmp_path):
    w = _workload("prepare-scale", tmp_path)
    st = w.setup(SEED)
    prep = w.call(st)
    assert w.check(st, prep).failures == []
    a = prep.assignments["test"]
    moved = min(a.difficult_ids)
    prep.assignments["test"] = SplitAssignment(
        easy_ids=a.easy_ids | {moved}, difficult_ids=a.difficult_ids - {moved})
    assert w.check(st, prep).failures
    prep.assignments["test"] = SplitAssignment(
        easy_ids=a.easy_ids, difficult_ids=a.difficult_ids - {moved})
    assert w.check(st, prep).failures


def test_tampered_artifacts_fail_the_quickstart_check(tmp_path):
    w = _workload("quickstart-run", tmp_path)
    st = w.setup(SEED)
    try:
        out = Path(st.extra["runs"][0][0].out_dir)
        result = w.call(st)
        assert w.check(st, result).failures == []
        result = w.call(st)
        summary = json.loads((out / "summary.json").read_text())
        summary["skipped"] = "difficult training set is empty"
        (out / "summary.json").write_text(json.dumps(summary))
        assert w.check(st, result).failures
        result = w.call(st)
        text = (out / "metrics.csv").read_text()
        (out / "metrics.csv").write_text(text.replace("accuracy", "acc", 1))
        assert w.check(st, result).failures
    finally:
        st.close()


class _Flaky:
    """A workload whose second call returns a different digest."""

    name, root_span = "flaky", "flaky"

    def __init__(self):
        self.calls = 0

    def setup(self, seed):
        return bench_workloads.State(input_rows=1)

    def call(self, st):
        self.calls += 1
        return self.calls

    def check(self, st, n):
        return bench_workloads.Outcome([], {"out": str(min(n, 2))}, {}, 1)


def test_digest_change_between_calls_fails_the_run():
    record = run_bench.run_workload(_Flaky(), SEED, 0.01, False, TOY)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] - TOY.setup_repeats - 1
    assert "digests ['out'] differ" in record["failures"][0]


def test_missing_targets_are_reported_absent():
    originals = (bench_workloads.pipeline.pipeline_predict,
                 bench_workloads.pipeline.FeatureMatrix.subset_by_ids)
    tracer = bench_trace.Tracer(bench_trace.TARGETS + (
        bench_trace.Target("data.gone", "data", "FeatureMatrix.no_such_method"),
        bench_trace.Target("gone.module", "no_such_module", "f"),
    ))
    with tracer.installed("op"):
        assert bench_workloads.pipeline.pipeline_predict is not originals[0]
    assert tracer.absent == ["data.FeatureMatrix.no_such_method", "no_such_module.f"]
    assert (bench_workloads.pipeline.pipeline_predict,
            bench_workloads.pipeline.FeatureMatrix.subset_by_ids) == originals
    values = bench_trace.layer_metrics(tracer, "pipeline.pipeline_predict", 1, 1, 1,
                                       1.0, 1.0, 0.0)
    assert list(values) == [name for name, _, _ in bench_trace.PER_LAYER]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in run_bench.BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "prepare-forest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
