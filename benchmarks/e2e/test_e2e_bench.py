"""Smoke test of the end-to-end benchmark at a tiny scale.

Runs every workload once untraced and once traced at ``--scale 0.05``
for a two-second window and checks the output contract: the results
schema, every ``BENCHMARK.json`` metric with its unit, the layer ->
end-to-end map, span structure, and identical job digests across the
two runs.  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("fleet-short", "fleet-heavy", "oracle-7arm", "service-mixed")


def _load(name: str):
    # By path: the benchmark's trace.py must not be confused with the
    # standard library module of the same name.
    spec = importlib.util.spec_from_file_location(
        f"e2e_{name}", os.path.join(HERE, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("trace")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(out, workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "0",
         "--seconds", "2", "--scale", "0.05", "--trace", str(trace),
         "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    """One untraced and one traced smoke run of a workload."""
    workload = request.param
    done = {}
    for trace in (0, 1):
        out = tmp_path_factory.mktemp(f"{workload}-t{trace}")
        proc = _run(out, workload, trace)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        with open(out / "results.json") as handle:
            done[trace] = (proc.stdout, json.load(handle), out)
    return workload, done


def test_last_line_schema_and_units(runs, spec):
    _, done = runs
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        stdout, _, _ = done[trace]
        last = json.loads(stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True
        assert isinstance(last["attempted"], int) and last["attempted"] >= 1
        assert isinstance(last["failed"], int)
        expected = {m["name"]: m["unit"] for m in spec[group]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
        for metric in last["metrics"].values():
            assert isinstance(metric["value"], (int, float))


def test_end_to_end_metrics_are_positive(runs, spec):
    _, done = runs
    metrics = done[0][1]["metrics"]
    for m in spec["end_to_end"]:
        assert metrics[m["name"]]["value"] > 0, m["name"]


def test_spans_are_consistent_and_cover_executions(runs):
    _, done = runs
    _, result, out = done[1]
    assert result["hooks_missing"] == []
    recorded = spans.load_spans(os.path.join(out, "spans"))
    assert recorded
    assert spans.check_spans(recorded) == []
    assert result["metrics"]["trace.exec_coverage"]["value"] >= 0.9


def test_digests_repeat_across_runs(runs):
    _, done = runs
    first, second = done[0][1]["job_digests"], done[1][1]["job_digests"]
    common = set(first) & set(second)
    assert common
    assert {k: first[k] for k in common} == {k: second[k] for k in common}


def test_layer_metrics_name_end_to_end_targets(spec):
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    assert workloads == set(WORKLOADS)
    assert set(spans.LAYER_TARGETS) == {m["name"] for m in spec["per_layer"]}
    for name, targets in spans.LAYER_TARGETS.items():
        assert targets, name
        for metric, workload in targets:
            assert metric in end_to_end, (name, metric)
            assert workload in workloads, (name, workload)


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark: no result, non-zero exit."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "out", "fleet-short", 0, cwd=tmp_path,
                script=str(tmp_path / "benchmarks" / "e2e" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
