"""Fleet throughput at 1, 2, and 4 workers.

The fleet subsystem's reason to exist: the 1,000-execution protocol was
the slowest path in the repo because ``campaign.py`` ran every execution
serially in one interpreter.  This bench times the same campaign through
``run_fleet`` at each worker count and records per-row throughput and
speedup-vs-serial into ``BENCH_fleet.json``.

CPU accounting uses ``os.sched_getaffinity`` (not ``os.cpu_count``) so
a CI leg pinned with ``taskset -c 0,1`` gates against the cores it can
actually use.  On a single-core runner no worker count can beat serial
(the work is CPU-bound and identical), so the speedup assertions gate
only where the hardware can express them; what gates everywhere is
correctness — byte-identical aggregated results across every worker
count — and bounded parallel overhead.

``speedup_floor`` in the payload is the ratchet: the 2-worker speedup
a multi-core runner must reach (CI fails below it).
"""

import json
import os
import pathlib
import time

from conftest import once

from repro.experiments.campaign import wilson_interval
from repro.fleet import run_fleet

APP = "libtiff"
EXECUTIONS = 32
WORKER_COUNTS = (1, 2, 4)
# The 2-worker speedup a >=2-core runner must reach.
SPEEDUP_FLOOR = 1.2

REPO_ROOT = pathlib.Path(__file__).parent.parent


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux fallback
        return os.cpu_count() or 1


def _timed_fleet(workers: int):
    start = time.perf_counter()
    result = run_fleet(APP, executions=EXECUTIONS, workers=workers)
    return result, time.perf_counter() - start


def test_fleet_throughput(benchmark, artifact):
    def run():
        run_fleet(APP, executions=2, workers=1)  # warm app/schedule caches
        return {workers: _timed_fleet(workers) for workers in WORKER_COUNTS}

    runs = once(benchmark, run)
    serial, serial_s = runs[1]

    # Parallelism may not change what the fleet finds.
    serial_dict = serial.aggregator.to_dict()
    for workers, (result, _) in runs.items():
        assert result.aggregator.to_dict() == serial_dict, (
            f"aggregated results at workers={workers} diverged from serial"
        )
        assert result.detections == serial.detections

    cpus = _cpus()
    hits = serial.aggregator.executions_detected
    lo, hi = wilson_interval(hits, EXECUTIONS)

    rows = []
    lines = [
        f"fleet throughput: {APP} x {EXECUTIONS} executions ({cpus} cpus)"
    ]
    for workers, (result, seconds) in runs.items():
        speedup = serial_s / seconds if seconds else float("inf")
        rows.append(
            {
                "workers": workers,
                "seconds": round(seconds, 3),
                "execs_per_sec": round(EXECUTIONS / seconds, 2),
                "speedup_vs_serial": round(speedup, 2),
            }
        )
        lines.append(
            f"  {workers} worker(s): {seconds:8.3f} s "
            f"({EXECUTIONS / seconds:6.1f} exec/s, {speedup:.2f}x vs serial)"
        )
    lines += [
        f"  detection rate: {hits}/{EXECUTIONS} "
        f"(95% CI [{lo:.1%}, {hi:.1%}])",
        f"  unique reports: {serial.aggregator.unique_reports()} "
        f"(dedup {serial.aggregator.dedup_ratio:.1f}x)",
    ]
    artifact("fleet_throughput.txt", "\n".join(lines))

    def row(workers):
        return next(r for r in rows if r["workers"] == workers)

    two = row(2)
    payload = {
        "benchmark": "fleet",
        "app": APP,
        "executions": EXECUTIONS,
        "cpus": cpus,
        "rows": rows,
        "speedup_parallel_vs_serial": two["speedup_vs_serial"],
        "speedup_floor": SPEEDUP_FLOOR,
        "detection": {
            "detected": hits,
            "executions": EXECUTIONS,
            "wilson_95": [round(lo, 4), round(hi, 4)],
        },
        "unique_reports": serial.aggregator.unique_reports(),
        "identical_results_across_workers": True,
    }
    (REPO_ROOT / "BENCH_fleet.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    assert serial.aggregator.executions_detected > 0
    # The persistent pool must keep parallel overhead bounded even on
    # one core: with fork-per-wave dispatch the 2-worker row ran ~2.4x
    # *slower* than serial on a single-core box; chunked persistent
    # dispatch keeps it within a small constant factor everywhere.
    for entry in rows:
        assert entry["seconds"] < serial_s * 2.0, entry
    # Where the hardware has the cores, parallelism must actually pay —
    # this is the ratchet the taskset-pinned CI leg enforces.
    if cpus >= 2:
        assert two["speedup_vs_serial"] >= SPEEDUP_FLOOR, rows
    if cpus >= 4:
        assert row(4)["seconds"] <= two["seconds"] * 1.1, rows
