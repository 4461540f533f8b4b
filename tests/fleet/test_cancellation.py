"""Campaign cancellation: worker teardown, telemetry drain, no leaks.

The regression this file pins: a KeyboardInterrupt (or a service-side
cancel) arriving mid-wave used to leave the ``ProcessPoolExecutor``
alive — worker processes kept running their chunks to completion and
campaign telemetry was never recorded.  Cancellation must terminate the
workers, dispose the executor, and still drain the campaign event into
the metrics/event log.
"""

import time

import pytest

from repro.errors import CampaignCancelled
from repro.fleet.pool import FleetPool
from repro.fleet.runner import FleetCampaign
from repro.fleet.specs import ExecutionSpec
from repro.fleet.telemetry import JsonlEventLog


def _specs(count, app="gzip"):
    return [
        ExecutionSpec(app=app, seed=index, index=index)
        for index in range(count)
    ]


def _processes(pool):
    executor = pool.executor
    if executor is None:
        return []
    return list((executor._processes or {}).values())


def test_serial_pool_stops_between_specs():
    pool = FleetPool(workers=1)
    pool.request_stop()
    with pytest.raises(CampaignCancelled):
        pool.run_wave(_specs(4))


def test_pre_stopped_parallel_pool_raises_before_dispatch():
    pool = FleetPool(workers=2)
    pool.request_stop()
    with pytest.raises(CampaignCancelled):
        pool.run_wave(_specs(4))
    assert pool.executor is None


def test_stop_mid_wave_terminates_worker_processes(monkeypatch):
    pool = FleetPool(workers=2, chunk_size=1)
    # Warm the pool with a tiny wave so worker processes exist.
    pool.run_wave(_specs(2))
    processes = _processes(pool)
    assert processes, "expected live worker processes"

    # Request the stop once the bigger wave's first chunk is ingested,
    # so it lands mid-wave however fast executions are: the dispatch
    # loop must notice before its next chunk and unwind.
    ingest = pool._ingest

    def ingest_then_stop(*args):
        ingest(*args)
        pool.request_stop()

    monkeypatch.setattr(pool, "_ingest", ingest_then_stop)
    with pytest.raises(CampaignCancelled):
        pool.run_wave(_specs(64))

    assert pool.executor is None  # disposed, not leaked
    deadline = time.monotonic() + 10.0
    # is_alive() reaps through multiprocessing.  Reaping a worker with
    # os.waitpid behind its back instead makes multiprocessing's own
    # poll fail with ECHILD, and it then reports the dead worker alive
    # (in active_children()) for the rest of the process.
    while any(process.is_alive() for process in processes):
        if time.monotonic() > deadline:
            pids = [process.pid for process in processes]
            pytest.fail(f"worker processes survived cancellation: {pids}")
        time.sleep(0.05)


def test_cancelled_campaign_drains_telemetry(tmp_path):
    log_path = tmp_path / "telemetry.jsonl"
    with JsonlEventLog(str(log_path)) as log:
        campaign = FleetCampaign(
            "gzip", executions=12, workers=1, wave_size=2, event_log=log
        )
        assert campaign.run_next_wave() is not None
        campaign.cancel()
        with pytest.raises(CampaignCancelled):
            campaign.run_next_wave()
        result = campaign.finish(cancelled=True)
    assert result.cancelled is True
    assert len(result.results) == 2  # the one completed wave
    from repro.fleet.telemetry import read_jsonl

    events = read_jsonl(str(log_path))
    campaign_events = [e for e in events if e["event"] == "campaign"]
    assert len(campaign_events) == 1
    assert campaign_events[0]["cancelled"] is True
    assert campaign_events[0]["executions"] == 2


def test_run_fleet_drains_telemetry_on_cancel(tmp_path, monkeypatch):
    """The run_fleet wrapper finishes (cancelled) before re-raising."""
    from repro.fleet.runner import run_fleet

    log_path = tmp_path / "telemetry.jsonl"
    campaign_holder = {}

    # Cancel once the first wave is done, as Ctrl-C or a service cancel
    # would mid-campaign; the next wave must raise.
    run_next_wave = FleetCampaign.run_next_wave

    def run_wave_then_cancel(self):
        progress = run_next_wave(self)
        campaign_holder["campaign"] = self
        self.cancel()
        return progress

    monkeypatch.setattr(FleetCampaign, "run_next_wave", run_wave_then_cancel)
    with JsonlEventLog(str(log_path)) as log:
        with pytest.raises(CampaignCancelled):
            run_fleet(
                "gzip",
                executions=500,
                workers=1,
                wave_size=2,
                event_log=log,
            )

    from repro.fleet.telemetry import read_jsonl

    events = read_jsonl(str(log_path))
    campaign_events = [e for e in events if e["event"] == "campaign"]
    assert len(campaign_events) == 1
    assert campaign_events[0]["cancelled"] is True
    pool = campaign_holder["campaign"].pool
    assert pool.executor is None


def test_completed_campaign_event_has_no_cancelled_key(tmp_path):
    """Byte-compat: completed campaigns' logs look exactly as before."""
    from repro.fleet.runner import run_fleet
    from repro.fleet.telemetry import read_jsonl

    log_path = tmp_path / "telemetry.jsonl"
    with JsonlEventLog(str(log_path)) as log:
        run_fleet("gzip", executions=4, workers=1, event_log=log)
    events = read_jsonl(str(log_path))
    campaign_events = [e for e in events if e["event"] == "campaign"]
    assert len(campaign_events) == 1
    assert "cancelled" not in campaign_events[0]


def test_finish_is_single_shot():
    campaign = FleetCampaign("gzip", executions=2, workers=1)
    while campaign.run_next_wave() is not None:
        pass
    campaign.finish()
    with pytest.raises(RuntimeError, match="already finished"):
        campaign.finish()
    with pytest.raises(RuntimeError, match="already finished"):
        campaign.run_next_wave()
