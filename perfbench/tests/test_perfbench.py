"""Tests of the benchmark itself: python -m pytest perfbench/tests -q"""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cli_cold
import coalition_forecast
import inprocess
import loop
import metrics
import reference as ref
from tracing import END, ID, PARENT, REQUEST, START, NullTracer, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload, trace", [
    ("forecast", 0), ("forecast", 1), ("dynamics", 0), ("referee", 0),
    ("cli-cold", 0), ("cli-cold", 1),
])
def test_workload_runs_end_to_end_and_prints_the_listed_metrics(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in listed]
    assert [m["unit"] for m in result["metrics"].values()] == [entry["unit"] for entry in listed]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_catalogue_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == ["forecast", "dynamics", "referee", "cli-cold"]
    assert SPEC["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in metrics.END_TO_END]
    assert SPEC["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in metrics.PER_LAYER]
    # metrics.py keeps its own copies so run.py need not import the package
    assert metrics.PREDICT_MS == inprocess.PREDICT_MS
    assert metrics.FIRST_CALL_MS == inprocess.REFEREE_MS
    assert metrics.CLI_COMMANDS == cli_cold.COMMANDS


def _blocks(seed):
    blocks = [inprocess.block(w, seed, i) for w in inprocess.WORKLOADS for i in range(3)]
    blocks += [cli_cold.block("cli-cold", seed, i) for i in range(3)]
    return json.dumps(blocks).encode()


def test_same_seed_gives_byte_identical_inputs():
    assert _blocks(7) == _blocks(7)
    assert _blocks(7) != _blocks(8)
    code = ("import sys, hashlib, json; sys.path[:0] = ['perfbench', 'src']; "
            "import inprocess, cli_cold; "
            "print(hashlib.sha256(json.dumps([inprocess.block(w, 7, 1) for w in inprocess.WORKLOADS]"
            " + [cli_cold.block('cli-cold', 7, 1)]).encode()).hexdigest())")
    digests = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True)
        digests.add(done.stdout.strip())
    expected = [inprocess.block(w, 7, 1) for w in inprocess.WORKLOADS] + [cli_cold.block("cli-cold", 7, 1)]
    assert digests == {hashlib.sha256(json.dumps(expected).encode()).hexdigest()}


def test_wrong_chosen_size_counts_as_an_error(monkeypatch):
    real = coalition_forecast.predict

    def off_by_one(point, bell, *args):
        report = real(point, bell, *args)
        return dataclasses.replace(report, chosen_size=report.chosen_size % point.m + 1)

    monkeypatch.setattr(coalition_forecast, "predict", off_by_one)
    result = loop.run_loop(inprocess, "forecast", 5, 0, NullTracer())
    # every predict and coalitions request is wrong; the planes requests are not
    assert len(result["latencies"]) == 27
    assert len(result["failures"]) == 24
    assert all("chosen_size" in f["message"] and "m" in f["request"] for f in result["failures"])


def test_wrong_exit_code_counts_as_an_error(tmp_path):
    class AlwaysZero(cli_cold.CliCold):
        def _spawn(self, argv):
            return 0, "", ""

    result = loop.run_loop(AlwaysZero(ROOT, tmp_path), "cli-cold", 5, 0, NullTracer())
    assert len(result["latencies"]) == 10
    assert result["counts"]["cli.exit_code_mismatches"] == 1
    assert len(result["failures"]) == 10
    [mismatch] = [f for f in result["failures"] if f["request"]["kind"] == "invalid"]
    assert "exit code 0" in mismatch["message"]


def test_exception_in_a_layer_is_a_failure_and_is_counted_per_layer(monkeypatch):
    def broken(*args):
        raise OverflowError("boom")

    monkeypatch.setattr(coalition_forecast, "hyperplane_system", broken)
    tr = Tracer()
    result = loop.run_loop(inprocess, "forecast", 5, 0, tr)
    assert len(result["failures"]) == 3  # the planes requests
    assert all("OverflowError" in f["message"] for f in result["failures"])
    assert metrics.layer_values(tr.spans, result["counts"])["predictor.exceptions"] == 3


def test_self_time_excludes_child_spans():
    tr = Tracer()
    with tr.request("r", "outer"):
        tr.call("predictor.predict", sum, [1, 2])
    outer, inner = tr.spans
    busy = [span[END] - span[START] for span in tr.spans]
    assert self_times(tr.spans) == pytest.approx([busy[0] - busy[1], busy[1]])
    assert inner[PARENT] == outer[ID] and inner[REQUEST] == "r"


def test_reference_maths():
    assert ref.bell_numbers(10)[8:] == (4140, 21147, 115975)
    assert sum(1 for _ in ref.restricted_growth_strings(6)) == ref.bell_numbers(6)[6]
    assert ref.prediction([0.0, 1.0, 1.0]).argmin_set == {3}
    assert ref.prediction([0.3, -0.2]).argmin_set == {1, 2}  # m=2 always ties
    rng = random.Random(0)
    m = 5
    entries = [0.0] + [rng.uniform(-1, 1) for _ in range((1 << m) - 1)]
    best = -float("inf")
    for labels in ref.restricted_growth_strings(m):
        masks = [0] * m
        for elem, lab in enumerate(labels):
            masks[lab] |= 1 << elem
        best = max(best, sum(entries[mask] for mask in masks if mask))
    assert ref.best_structure_worth(m, entries) == pytest.approx(best, abs=1e-12)


def test_each_class_is_read_at_its_steady_latency():
    # each class runs at one steady latency, with one burst that is faster
    latencies = [0.010] * 9 + [0.006] + [0.100] * 9 + [0.060]
    classes = ["a"] * 10 + ["b"] * 10
    assert metrics.steady_latencies(latencies, classes) == [0.010] * 10 + [0.100] * 10
    # a tenth of the repeats stays above the steady latency, and at least three
    assert metrics.steady_latency(range(1, 41)) == 36
    assert metrics.steady_latency(range(1, 6)) == 2
    values, facts = metrics.end_to_end(latencies, classes, [0.4, 0.5, 0.6], 2048)
    assert values["requests_per_s"] == pytest.approx(20 / 1.1)
    assert values["latency_p50_ms"] == pytest.approx(55.0)
    assert values["setup_s"] == 0.5 and values["peak_rss_mb"] == 2.0
    assert facts["classes"] == 2


def test_tail_percentile_keeps_ten_samples_beyond():
    assert metrics.tail_percentile(1000) == 99.0
    assert metrics.tail_percentile(999) == 90.0
    assert metrics.tail_percentile(100) == 90.0
    assert metrics.tail_percentile(99) == 75.0
    assert metrics.tail_percentile(5) == 100.0
