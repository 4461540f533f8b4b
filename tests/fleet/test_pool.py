"""The worker pool: fan-out, crash retry, timeouts, determinism."""

import dataclasses
import time
from dataclasses import dataclass, field

import pytest

from repro.core import CSODConfig
from repro.fleet.pool import FleetPool, close_executor, execute_spec
from repro.fleet.specs import (
    OUTCOME_CRASH,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    ExecutionSpec,
)


def specs_for(app, count, evidence=()):
    return [
        ExecutionSpec(app=app, seed=index, index=index, evidence=tuple(evidence))
        for index in range(count)
    ]


def test_execute_spec_returns_plain_data():
    result = execute_spec(ExecutionSpec(app="libtiff", seed=0, index=0))
    assert result.outcome == OUTCOME_OK
    assert result.detected
    assert result.allocations > 0
    assert result.reports and result.reports[0].signature.startswith("over-")
    # Everything in the result must survive pickling (the upload path).
    import pickle

    assert pickle.loads(pickle.dumps(result)) == result


def test_execute_spec_preloads_evidence():
    baseline = execute_spec(ExecutionSpec(app="libtiff", seed=0, index=0))
    assert baseline.new_evidence  # the canary observed the over-write
    replay = execute_spec(
        ExecutionSpec(
            app="libtiff", seed=1, index=1, evidence=baseline.new_evidence
        )
    )
    # Known-bad contexts are watched from the first allocation (§IV-B).
    assert replay.detected_by_watchpoint


def test_inline_pool_matches_direct_execution():
    pool = FleetPool(workers=1)
    results = pool.run_wave(specs_for("libtiff", 3))
    assert [r.index for r in results] == [0, 1, 2]
    assert all(r.outcome == OUTCOME_OK for r in results)
    direct = execute_spec(ExecutionSpec(app="libtiff", seed=1, index=1))
    assert results[1].reports == direct.reports


def test_parallel_pool_matches_inline():
    # Workers return the results they built, so apart from wall time a
    # parallel result is the whole inline one, frames and counters too.
    def timeless(results):
        return [dataclasses.replace(r, wall_seconds=0.0) for r in results]

    serial = FleetPool(workers=1).run_wave(specs_for("libtiff", 4))
    parallel = FleetPool(workers=2).run_wave(specs_for("libtiff", 4))
    assert [r.index for r in parallel] == [0, 1, 2, 3]
    assert timeless(parallel) == timeless(serial)


def test_crashed_execution_is_retried_then_reported():
    pool = FleetPool(workers=1)
    bad = ExecutionSpec(app="no-such-app", seed=0, index=0)
    results = pool.run_wave([bad])
    assert results[0].outcome == OUTCOME_CRASH
    assert results[0].attempts == 2  # retried once
    assert "no-such-app" in results[0].error
    assert pool.retries == 1


def test_one_bad_spec_never_kills_the_campaign():
    pool = FleetPool(workers=2)
    specs = [
        ExecutionSpec(app="libtiff", seed=0, index=0),
        ExecutionSpec(app="no-such-app", seed=1, index=1),
        ExecutionSpec(app="libtiff", seed=2, index=2),
    ]
    results = pool.run_wave(specs)
    assert [r.index for r in results] == [0, 1, 2]
    assert results[0].outcome == OUTCOME_OK
    assert results[1].outcome == OUTCOME_CRASH
    assert results[2].outcome == OUTCOME_OK


def test_retry_can_be_disabled():
    pool = FleetPool(workers=1, retry_crashed=False)
    results = pool.run_wave([ExecutionSpec(app="no-such-app", seed=0, index=0)])
    assert results[0].outcome == OUTCOME_CRASH
    assert results[0].attempts == 1
    assert pool.retries == 0


def test_timeout_marks_execution_not_campaign():
    # A timeout far below one execution's wall time: the execution is
    # recorded as timed out, and the campaign still returns a result
    # for every spec.  A finished chunk is never a timeout, so the
    # first execution must still be running when the coordinator first
    # looks; a libtiff execution sometimes finished before that (about
    # once in 20 runs of tests/fleet).
    from repro.workloads.buggy import registry

    # Workers see the fake app only if they fork after it is cached.
    close_executor()
    registry._app_cache[("hang-forever", 1.0)] = _HangingApp()
    try:
        pool = FleetPool(workers=2, timeout_seconds=1e-5)
        results = pool.run_wave(
            [
                ExecutionSpec(app="hang-forever", seed=0, index=0),
                ExecutionSpec(app="libtiff", seed=1, index=1),
            ]
        )
        assert len(results) == 2
        assert results[0].outcome == OUTCOME_TIMEOUT
        assert pool.timeouts >= 1
    finally:
        registry._app_cache.pop(("hang-forever", 1.0), None)


class _HangingApp:
    """A fake registry app whose run() never returns."""

    def run(self, process):
        while True:
            time.sleep(0.1)


def test_hanging_spec_times_out_and_pool_recovers():
    # Regression: `future.cancel()` cannot cancel a *running* future, so
    # a hung worker used to linger forever (wedging interpreter exit),
    # and timeouts measured from the start of each wait gave later specs
    # unbounded allowances.  Now every spec's deadline runs from its
    # submission and a timeout terminates the worker and rebuilds the
    # pool.
    from repro.workloads.buggy import registry

    # Workers see the fake app only if they fork after it is cached.
    close_executor()
    registry._app_cache[("hang-forever", 1.0)] = _HangingApp()
    try:
        pool = FleetPool(workers=2, timeout_seconds=2.0)
        specs = [
            ExecutionSpec(app="hang-forever", seed=0, index=0),
            ExecutionSpec(app="libtiff", seed=1, index=1),
            ExecutionSpec(app="libtiff", seed=2, index=2),
        ]
        start = time.monotonic()
        results = pool.run_wave(specs)
        elapsed = time.monotonic() - start
        assert [r.index for r in results] == [0, 1, 2]
        assert results[0].outcome == OUTCOME_TIMEOUT
        assert results[1].outcome == OUTCOME_OK
        assert results[2].outcome == OUTCOME_OK
        assert pool.timeouts == 1
        assert pool.executor_rebuilds == 1
        assert elapsed < 30  # the hang is bounded by its own deadline
    finally:
        registry._app_cache.pop(("hang-forever", 1.0), None)


@dataclass(frozen=True)
class _DerivedConfig(CSODConfig):
    """A config subclass with a derived (non-init) field."""

    fleet_tag: str = "prod"
    cache_key: str = field(init=False, default="")

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(
            self, "cache_key", f"{self.fleet_tag}:{self.replacement_policy}"
        )


def test_execute_spec_clones_configs_with_derived_fields(tmp_path):
    # Regression: cloning via ``CSODConfig(**config.__dict__)`` passed
    # derived fields back into __init__ (TypeError) and silently dropped
    # the subclass type; dataclasses.replace preserves both.
    config = _DerivedConfig(persistence_path=str(tmp_path / "evidence.jsonl"))
    result = execute_spec(
        ExecutionSpec(app="libtiff", seed=0, index=0, config=config)
    )
    assert result.outcome == OUTCOME_OK
    stripped = dataclasses.replace(config, persistence_path=None)
    assert type(stripped) is _DerivedConfig
    assert stripped.cache_key == "prod:near_fifo"


def test_rejects_negative_workers():
    with pytest.raises(ValueError):
        FleetPool(workers=-1)


def test_rejects_bad_chunk_size():
    with pytest.raises(ValueError):
        FleetPool(workers=2, chunk_size=0)


def test_empty_spec_list():
    assert FleetPool(workers=2).run_wave([]) == []


# ----------------------------------------------------------------------
# Persistent executor
# ----------------------------------------------------------------------
def test_executor_persists_across_waves():
    # One executor per campaign: two waves reuse the same pool of
    # processes, and executor_rebuilds only moves on timeout/breakage.
    with FleetPool(workers=2) as pool:
        first = pool.run_wave(specs_for("libtiff", 2))
        executor = pool.executor
        assert executor is not None
        second = pool.run_wave(
            [
                ExecutionSpec(app="libtiff", seed=2, index=2),
                ExecutionSpec(app="libtiff", seed=3, index=3),
            ]
        )
        assert pool.executor is executor  # identity stable across waves
        assert pool.executor_rebuilds == 0
        assert [r.index for r in first + second] == [0, 1, 2, 3]
        assert all(r.outcome == OUTCOME_OK for r in first + second)
    assert pool.executor is None  # close() tears it down


def test_inline_pool_has_no_executor():
    pool = FleetPool(workers=1)
    pool.run_wave(specs_for("libtiff", 2))
    assert pool.executor is None


# ----------------------------------------------------------------------
# Chunked dispatch
# ----------------------------------------------------------------------
def test_explicit_chunk_size_matches_inline():
    serial = FleetPool(workers=1).run_wave(specs_for("libtiff", 5))
    with FleetPool(workers=2, chunk_size=2) as pool:
        chunked = pool.run_wave(specs_for("libtiff", 5))
    assert [r.index for r in chunked] == [0, 1, 2, 3, 4]
    assert [r.reports for r in chunked] == [r.reports for r in serial]


# ----------------------------------------------------------------------
# Delta evidence broadcast
# ----------------------------------------------------------------------
def test_delta_evidence_reaches_parallel_workers():
    baseline = execute_spec(ExecutionSpec(app="libtiff", seed=0, index=0))
    assert baseline.new_evidence
    with FleetPool(workers=2) as pool:
        pool.advance_evidence(baseline.new_evidence)
        assert pool.evidence_epoch == 1
        results = pool.run_wave(
            [
                ExecutionSpec(app="libtiff", seed=1, index=0),
                ExecutionSpec(app="libtiff", seed=2, index=1),
            ]
        )
    # Known-bad contexts are watched from the first allocation, exactly
    # as if the full evidence tuple had been shipped on each spec.
    assert all(r.detected_by_watchpoint for r in results)
    direct = execute_spec(
        ExecutionSpec(
            app="libtiff", seed=1, index=0, evidence=baseline.new_evidence
        )
    )
    assert results[0].reports == direct.reports


def test_evidence_base_ships_via_initializer():
    baseline = execute_spec(ExecutionSpec(app="libtiff", seed=0, index=0))
    with FleetPool(workers=2) as pool:
        pool.set_evidence_base(baseline.new_evidence)
        results = pool.run_wave([ExecutionSpec(app="libtiff", seed=1, index=0)])
        assert results[0].detected_by_watchpoint
        with pytest.raises(RuntimeError):
            pool.set_evidence_base(())  # too late: workers hold the base


def test_zero_new_signatures_leave_epoch_unchanged():
    pool = FleetPool(workers=2)
    baseline = execute_spec(ExecutionSpec(app="libtiff", seed=0, index=0))
    assert pool.advance_evidence(baseline.new_evidence) == 1
    # A wave that merged nothing must not advance the epoch (the delta
    # payload stays identical, and workers have nothing new to apply).
    assert pool.advance_evidence(()) == 1
    assert pool.advance_evidence(baseline.new_evidence) == 1
    assert pool.evidence_epoch == 1


# ----------------------------------------------------------------------
# Pool-side retries (never inline in the coordinator)
# ----------------------------------------------------------------------
class _CrashOnceApp:
    """Raises on the first run() in a process, succeeds after — and
    records which process executed it."""

    def __init__(self, pid_path):
        self.pid_path = pid_path
        self.crashed = False

    def run(self, process):
        import os

        with open(self.pid_path, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        if not self.crashed:
            self.crashed = True
            raise RuntimeError("transient crash")


def test_crash_retry_runs_in_worker_not_coordinator(tmp_path):
    # Regression: crashed specs used to be re-executed inline in the
    # coordinator, stalling dispatch while workers sat idle.  Retries
    # now happen worker-side (in-chunk) or via pool resubmission.
    import os

    from repro.workloads.buggy import registry

    pid_path = tmp_path / "pids.txt"
    # Workers see the fake app only if they fork after it is cached.
    close_executor()
    registry._app_cache[("crash-once", 1.0)] = _CrashOnceApp(str(pid_path))
    try:
        with FleetPool(workers=2) as pool:
            specs = [
                ExecutionSpec(app="crash-once", seed=0, index=0),
                ExecutionSpec(app="libtiff", seed=1, index=1),
            ]
            results = pool.run_wave(specs)
        assert results[0].outcome == OUTCOME_OK
        assert results[0].attempts == 2  # retried once, in the worker
        assert results[1].outcome == OUTCOME_OK
        assert pool.retries == 1
        assert pool.executor_rebuilds == 0
        # Both attempts ran in a worker process, never the coordinator.
        pids = {line for line in pid_path.read_text().split() if line}
        assert pids and str(os.getpid()) not in pids
        # The retry's wall-clock is accounted for observability.
        assert len(pool.retry_wall_ms) == 1
        assert pool.retry_wall_ms[0] > 0
    finally:
        registry._app_cache.pop(("crash-once", 1.0), None)


def test_inline_crash_retry_records_its_wall_time(tmp_path):
    # The serial path retries through the same chunk loop as a worker,
    # and the retry's wall-clock reaches the pool on the chunk outcome.
    from repro.workloads.buggy import registry

    registry._app_cache[("crash-once", 1.0)] = _CrashOnceApp(
        str(tmp_path / "pids.txt")
    )
    try:
        pool = FleetPool(workers=1)
        results = pool.run_wave(
            [ExecutionSpec(app="crash-once", seed=0, index=0)]
        )
        assert results[0].outcome == OUTCOME_OK
        assert results[0].attempts == 2
        assert pool.retries == 1
        assert len(pool.retry_wall_ms) == 1
        assert pool.retry_wall_ms[0] > 0
    finally:
        registry._app_cache.pop(("crash-once", 1.0), None)
