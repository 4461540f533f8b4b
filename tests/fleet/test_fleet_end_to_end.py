"""End-to-end fleet campaigns: parallel run, aggregation, determinism."""

import json

from repro.fleet import (
    EvidenceStore,
    JsonlEventLog,
    close_executor,
    read_jsonl,
    run_fleet,
)

EXECUTIONS = 8
WORKERS = 2


def small_campaign(seed_base=0, workers=WORKERS, **kwargs):
    return run_fleet(
        "libtiff",
        executions=EXECUTIONS,
        workers=workers,
        seed_base=seed_base,
        **kwargs,
    )


def test_parallel_campaign_detects_and_aggregates(tmp_path):
    log = JsonlEventLog(str(tmp_path / "telemetry.jsonl"))
    with log:
        result = small_campaign(event_log=log)
    aggregator = result.aggregator
    assert aggregator.executions == EXECUTIONS
    assert aggregator.executions_ok == EXECUTIONS
    assert aggregator.executions_detected > 0
    # libtiff raises a watchpoint and a canary report per execution:
    # the fleet view collapses them to stable signatures.
    assert aggregator.raw_reports > aggregator.unique_reports()
    assert aggregator.dedup_ratio > 1.0
    lo, hi = aggregator.detection_rate_interval()
    assert 0.0 <= lo <= hi <= 1.0

    events = read_jsonl(log.path)
    kinds = [event["event"] for event in events]
    assert kinds.count("execution") == EXECUTIONS
    assert kinds.count("campaign") == 1
    assert kinds.count("report") == aggregator.unique_reports()

    counters = result.metrics.snapshot()["counters"]
    assert counters["executions_run"] == EXECUTIONS
    assert counters["reports_raised"] == aggregator.raw_reports
    assert counters["watchpoint_arms"] > 0


def test_aggregated_signatures_deterministic_for_fixed_seed():
    first = small_campaign(seed_base=42)
    second = small_campaign(seed_base=42)
    as_bytes = lambda r: json.dumps(  # noqa: E731
        r.aggregator.to_dict(), sort_keys=True
    ).encode()
    assert as_bytes(first) == as_bytes(second)


def test_worker_count_does_not_change_results():
    serial = small_campaign(workers=1)
    as_bytes = lambda r: json.dumps(  # noqa: E731
        r.aggregator.to_dict(), sort_keys=True
    ).encode()
    for workers in (2, 4):
        parallel = small_campaign(workers=workers)
        assert as_bytes(parallel) == as_bytes(serial)
        assert parallel.detections == serial.detections


def test_chunk_size_does_not_change_results():
    default = small_campaign(workers=2)
    for chunk_size in (1, 3, EXECUTIONS):
        chunked = small_campaign(workers=2, chunk_size=chunk_size)
        assert chunked.aggregator.to_dict() == default.aggregator.to_dict()
        assert chunked.detections == default.detections


def test_pinned_wave_size_makes_shared_evidence_worker_invariant():
    # Wave boundaries are the evidence-visibility contract.  By default
    # they track the worker count (the historical protocol); pinning
    # wave_size fixes the boundaries, so even *shared-evidence*
    # campaigns are byte-identical at any worker count.
    def run(workers):
        return run_fleet(
            "memcached",
            executions=12,
            workers=workers,
            seed_base=5,
            share_evidence=True,
            wave_size=4,
        )

    serial = run(1)
    for workers in (2, 4):
        parallel = run(workers)
        assert parallel.aggregator.to_dict() == serial.aggregator.to_dict()
        assert parallel.detections == serial.detections
        assert parallel.evidence == serial.evidence


def test_retry_wall_is_observed_and_does_not_block_other_specs():
    # A crashing spec is retried worker-side; the rest of the wave
    # completes normally and the retry's cost lands in telemetry.
    from repro.workloads.buggy import registry

    class _CrashOnce:
        def __init__(self):
            self.crashed = False

        def run(self, process):
            if not self.crashed:
                self.crashed = True
                raise RuntimeError("transient")
            from repro.workloads.buggy import app_for

            return app_for("libtiff").run(process)

    # Workers see the fake app only if they fork after it is cached.
    close_executor()
    registry._app_cache[("crash-once-e2e", 1.0)] = _CrashOnce()
    try:
        result = run_fleet("crash-once-e2e", executions=4, workers=2)
    finally:
        registry._app_cache.pop(("crash-once-e2e", 1.0), None)
    assert all(r.ok for r in result.results)
    retried = [r for r in result.results if r.attempts == 2]
    assert len(retried) >= 1
    snapshot = result.metrics.snapshot()
    assert snapshot["counters"]["worker_retries"] >= 1
    assert snapshot["counters"]["executor_rebuilds"] == 0
    retry_wall = snapshot["histograms"]["retry_wall_ms"]
    assert retry_wall["count"] >= 1
    assert retry_wall["max"] > 0


def test_shared_evidence_campaign_deterministic(tmp_path):
    def run(out):
        store = EvidenceStore(str(tmp_path / out))
        return run_fleet(
            "memcached",
            executions=EXECUTIONS,
            workers=WORKERS,
            seed_base=7,
            share_evidence=True,
            evidence_store=store,
        )

    first = run("ev1.json")
    second = run("ev2.json")
    assert first.aggregator.to_dict() == second.aggregator.to_dict()
    assert first.evidence == second.evidence


def test_fleet_evidence_accelerates_detection():
    # memcached's watchpoint-only detection rate is well below 100%;
    # once any execution's canary uploads evidence, later waves watch
    # the guilty context from their first allocation.
    independent = run_fleet(
        "memcached", executions=16, workers=WORKERS, seed_base=0
    )
    shared = run_fleet(
        "memcached",
        executions=16,
        workers=WORKERS,
        seed_base=0,
        share_evidence=True,
    )
    assert sum(shared.detections) > sum(independent.detections)
    assert len(shared.evidence) > 0


def test_campaign_registers_no_shared_memory(monkeypatch):
    """Fork safety: the fleet creates no shared-memory segments.

    Registering a segment takes the resource tracker's lock; a worker
    forked while another thread holds it inherits the lock held and
    blocks for ever.  A fleet that registers nothing cannot hit that.
    """
    from multiprocessing import resource_tracker

    registered = []
    original = resource_tracker.register

    def spy(name, rtype):
        registered.append((name, rtype))
        return original(name, rtype)

    monkeypatch.setattr(resource_tracker, "register", spy)
    result = small_campaign(share_evidence=True)
    assert result.aggregator.executions_ok == EXECUTIONS
    assert [r for r in registered if r[1] == "shared_memory"] == []
