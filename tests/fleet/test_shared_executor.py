"""The process-wide executor: sharing, cancellation, idle shutdown, memory.

Every :class:`FleetPool` leases one warm ``ProcessPoolExecutor`` instead
of forking its own.  Sharing must not change a campaign's bytes, a
stopped campaign must not hurt another one, a process done with the
fleet must not keep idle children, and a long-lived worker's memory
must stay flat.
"""

import json
import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.errors import CampaignCancelled
from repro.fleet import pool as pool_mod
from repro.fleet.pool import IDLE_SHUTDOWN_SECONDS, FleetPool, close_executor
from repro.fleet.runner import FleetCampaign, run_fleet
from repro.fleet.specs import ExecutionSpec


def _bytes(result):
    return json.dumps(result.aggregator.to_dict(), sort_keys=True)


def _specs(app, count, first_seed=0):
    return [
        ExecutionSpec(app=app, seed=first_seed + index, index=index)
        for index in range(count)
    ]


def _alive(executor):
    return all(process.is_alive() for process in executor._processes.values())


def test_back_to_back_campaigns_reuse_warm_workers():
    close_executor()
    with FleetPool(workers=2) as first:
        first.run_wave(_specs("libtiff", 4))
        executor = first.executor
        pids = sorted(executor._processes)
    with FleetPool(workers=2) as second:
        second.run_wave(_specs("gzip", 4))
        assert second.executor is executor
        assert sorted(executor._processes) == pids
        assert second.executor_rebuilds == 0


def test_two_campaigns_in_two_threads_match_standalone_runs(monkeypatch):
    campaigns = {
        "libtiff": dict(app="libtiff", executions=16, seed_base=3),
        "memcached": dict(
            app="memcached",
            executions=16,
            seed_base=5,
            share_evidence=True,
            wave_size=2,
        ),
    }
    standalone = {
        name: run_fleet(workers=2, **kwargs)
        for name, kwargs in campaigns.items()
    }
    close_executor()
    forks = []

    class CountingExecutor(pool_mod.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            forks.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", CountingExecutor)
    shared = {}
    errors = []

    def drive(name):
        try:
            shared[name] = run_fleet(workers=2, **campaigns[name])
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(name,)) for name in campaigns
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
        assert not thread.is_alive()
    assert not errors, errors
    assert len(forks) == 1  # both campaigns ran on one executor
    for name in campaigns:
        assert _bytes(shared[name]) == _bytes(standalone[name])
        assert shared[name].detections == standalone[name].detections
        assert shared[name].evidence == standalone[name].evidence
        counters = shared[name].metrics.snapshot()["counters"]
        assert counters["worker_crashes"] == 0
        assert counters["executor_rebuilds"] == 0


def test_many_threads_and_a_wider_campaign_keep_every_result():
    # More campaign threads than cores, a campaign wider than the live
    # executor (which retires it mid-flight) and a short switch interval
    # to shake out races on the shared executor's state.
    campaigns = [
        dict(app="libtiff", executions=12, workers=2, seed_base=21),
        dict(app="gzip", executions=12, workers=2, seed_base=22),
        dict(
            app="memcached",
            executions=12,
            workers=2,
            seed_base=23,
            share_evidence=True,
            wave_size=2,
        ),
        dict(app="libhx", executions=12, workers=3, seed_base=24),
    ]
    standalone = [_bytes(run_fleet(**kwargs)) for kwargs in campaigns]
    close_executor()
    shared = [None] * len(campaigns)
    errors = []

    def drive(i):
        try:
            result = run_fleet(**campaigns[i])
            shared[i] = _bytes(result)
            counters = result.metrics.snapshot()["counters"]
            assert counters["worker_crashes"] == 0, counters
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=drive, args=(i,))
            for i in range(len(campaigns))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert shared == standalone


def test_cancelling_one_of_two_campaigns_spares_the_other(monkeypatch):
    kwargs = dict(executions=24, workers=2, seed_base=11, wave_size=2)
    standalone = run_fleet("libtiff", **kwargs)
    close_executor()
    other = FleetCampaign("libtiff", **kwargs)
    other_started = threading.Event()
    stopped = threading.Event()
    seen = {}

    def drive_other():
        other.run_next_wave()
        seen["executor"] = other.pool.executor
        other_started.set()
        while other.run_next_wave() is not None:
            pass
        # Hold the lease until the other campaign's stop has landed.
        stopped.wait(60)
        seen["alive"] = _alive(other.pool.executor)
        seen["same"] = other.pool.executor is seen["executor"]
        seen["result"] = other.finish()

    thread = threading.Thread(target=drive_other)
    thread.start()
    assert other_started.wait(60)
    stopping = FleetPool(workers=2, chunk_size=1)
    ingest = stopping._ingest

    def ingest_then_stop(*args):
        ingest(*args)
        stopping.request_stop()

    monkeypatch.setattr(stopping, "_ingest", ingest_then_stop)
    try:
        with pytest.raises(CampaignCancelled):
            stopping.run_wave(_specs("gzip", 64))
        assert stopping.executor is None
    finally:
        stopped.set()
        thread.join(120)
    assert not thread.is_alive()
    assert seen["alive"] and seen["same"]
    result = seen["result"]
    assert _bytes(result) == _bytes(standalone)
    assert result.detections == standalone.detections
    assert other.pool.crashes == 0
    assert other.pool.executor_rebuilds == 0


def test_workers_exit_once_the_executor_is_idle():
    run_fleet("libtiff", executions=4, workers=2)
    # Still warm for the next campaign ...
    assert multiprocessing.active_children()
    # ... but gone soon after nobody leases them.
    deadline = time.monotonic() + IDLE_SHUTDOWN_SECONDS + 1.0
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            pytest.fail(
                f"idle workers outlived the idle delay: "
                f"{multiprocessing.active_children()}"
            )
        time.sleep(0.05)


def _peak_rss_kb(executor):
    peaks = []
    for pid in executor._processes:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    peaks.append(int(line.split()[1]))
    return max(peaks)


def test_warm_worker_memory_stays_flat():
    # Each mysql execution leaves about 1,300 objects in reference
    # cycles.  Without a frozen fork heap and a collection after every
    # chunk, a warm worker grows by megabytes over these waves.
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc to read a worker's peak RSS")
    close_executor()
    with FleetPool(workers=2) as pool:
        for wave in range(30):
            pool.run_wave(_specs("mysql", 2, first_seed=2 * wave))
            if wave == 4:
                warm = _peak_rss_kb(pool.executor)
        grown = _peak_rss_kb(pool.executor) - warm
    assert grown < 2048, f"a warm worker's peak RSS grew by {grown} KB"
