"""Oracle throughput — generated apps judged per second, 1 vs N workers.

The oracle is only useful at fleet scale if generating and judging a
program is cheap next to executing it.  This bench times the two
stages separately: pure generation (grammar draw + schedule build +
manifest) and the full differential campaign (three CSOD arms as one
fleet pool wave, then one judging task per app: the four inline arms,
the invariant probe and the attribution and convergence re-runs),
once with 1 worker, where the coordinator runs every task itself, and
once with several, where the tasks run on the pool's workers, into
``BENCH_oracle.json``.
"""

import json
import pathlib
import time

from conftest import once

from repro.oracle.generator import generate
from repro.oracle.runner import OracleSettings, defect_sequence, run_oracle

REPO_ROOT = pathlib.Path(__file__).parent.parent

GENERATE_ONLY = 60  # programs for the generation-rate stage
BUDGET = 18  # programs for the full-campaign stages
PARALLEL_WORKERS = 2


def test_oracle_throughput(benchmark, artifact):
    def run():
        # Stage 1: generation alone (the grammar's own cost).
        start = time.perf_counter()
        programs = [
            generate(1, index, defect)
            for index, defect in enumerate(defect_sequence(GENERATE_ONLY))
        ]
        generate_seconds = time.perf_counter() - start

        # Stage 2: full campaign, serial.
        start = time.perf_counter()
        serial = run_oracle(
            OracleSettings(
                budget=BUDGET, seed=1, workers=1, executions_per_app=1
            )
        )
        serial_seconds = time.perf_counter() - start

        # Stage 3: same campaign, parallel workers.
        start = time.perf_counter()
        parallel = run_oracle(
            OracleSettings(
                budget=BUDGET,
                seed=1,
                workers=PARALLEL_WORKERS,
                executions_per_app=1,
            )
        )
        parallel_seconds = time.perf_counter() - start
        return (
            programs,
            serial,
            parallel,
            generate_seconds,
            serial_seconds,
            parallel_seconds,
        )

    (
        programs,
        serial,
        parallel,
        generate_seconds,
        serial_seconds,
        parallel_seconds,
    ) = once(benchmark, run)

    # Correctness gates: same campaign, worker-count-invariant verdicts.
    assert len(programs) == GENERATE_ONLY
    assert serial.scorecard == parallel.scorecard
    assert serial.scorecard["mismatches"]["unexplained"] == 0

    generated_per_sec = GENERATE_ONLY / generate_seconds
    serial_apps_per_sec = BUDGET / serial_seconds
    parallel_apps_per_sec = BUDGET / parallel_seconds
    lines = [
        f"oracle throughput: {BUDGET} generated apps, "
        f"{len(serial.scorecard['arms'])} detector arms",
        f"  generation: {generate_seconds:8.3f} s "
        f"({generated_per_sec:8.1f} programs/s)",
        f"  campaign x1 worker:  {serial_seconds:8.3f} s "
        f"({serial_apps_per_sec:6.2f} apps/s)",
        f"  campaign x{PARALLEL_WORKERS} workers: {parallel_seconds:8.3f} s "
        f"({parallel_apps_per_sec:6.2f} apps/s)",
    ]
    artifact("oracle_throughput.txt", "\n".join(lines))

    payload = {
        "benchmark": "oracle",
        "generated_programs": GENERATE_ONLY,
        "budget": BUDGET,
        "parallel_workers": PARALLEL_WORKERS,
        "generate_seconds": round(generate_seconds, 4),
        "generated_per_sec": round(generated_per_sec, 1),
        "serial_seconds": round(serial_seconds, 4),
        "serial_apps_per_sec": round(serial_apps_per_sec, 2),
        "parallel_seconds": round(parallel_seconds, 4),
        "parallel_apps_per_sec": round(parallel_apps_per_sec, 2),
        "scorecards_identical": True,
    }
    (REPO_ROOT / "BENCH_oracle.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # Generation must stay negligible next to execution.
    assert generate_seconds < serial_seconds
