"""Ablation 1 — replacement policy shoot-out (design choice §III-C2).

Runs the three policies on the two applications where they diverge the
most (libdwarf: early victim under long pressure; memcached: late
victim), plus a microbenchmark of the watch-decision hot path.
"""

from conftest import once

from repro.core import CSODConfig, CSODRuntime
from repro.core.config import (
    POLICIES,
    POLICY_NAIVE,
    POLICY_NEAR_FIFO,
    POLICY_RANDOM,
)
from repro.experiments.effectiveness import run_table2
from repro.experiments.tables import render_table
from repro.workloads.base import SimProcess
from repro.workloads.perf import perf_app_for


def test_ablation_policy_detection(benchmark, artifact):
    rows = once(
        benchmark,
        lambda: run_table2(runs=60, apps=["libdwarf", "memcached"]),
    )
    body = [
        [row.app] + [f"{row.rate(p):.1%}" for p in POLICIES] for row in rows
    ]
    artifact(
        "ablation_policies.txt",
        render_table(
            ["Application", "naive", "random", "near-FIFO"],
            body,
            title="Ablation — replacement policy vs detection rate",
        ),
    )
    by_app = {row.app: row for row in rows}
    # The ablation's point: no policy dominates both shapes.
    assert by_app["libdwarf"].rate(POLICY_NAIVE) == 1.0
    assert by_app["libdwarf"].rate(POLICY_RANDOM) < 1.0
    assert by_app["memcached"].rate(POLICY_NAIVE) == 0.0
    assert by_app["memcached"].rate(POLICY_RANDOM) > 0.0


def test_policy_hot_path_throughput(benchmark):
    """Allocations/second through the full CSOD malloc path."""
    app = perf_app_for("vips", 3000)

    def run_once():
        process = SimProcess(seed=3)
        csod = CSODRuntime(
            process.machine,
            process.heap,
            CSODConfig(replacement_policy=POLICY_NEAR_FIFO),
            seed=3,
        )
        app.run(process, csod)
        csod.shutdown()

    benchmark.pedantic(run_once, iterations=1, rounds=3)
