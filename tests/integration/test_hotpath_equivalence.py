"""Hot-path equivalence: the batched driver is indistinguishable.

``CSODConfig.hotpath="batched"`` routes every interposed allocation
through :class:`repro.core.fastpath.FastAllocDealloc` — flat header
tables, pooled watch objects, merged cost bundles, inlined allocator
surgery.  None of that may be *observable*: the cost model, the virtual
clock, every report, and every fleet/oracle scorecard must be identical
to the legacy per-object units, byte for byte.  These tests pin that
contract at three levels:

1. **Single execution** — same workload, same seed, both hot paths:
   identical ledger event counts *and* nanos, identical final virtual
   clock, identical reports (including ``time_ns``, the strongest
   mid-run clock probe), identical runtime stats.
2. **Error paths** — free(NULL), out-of-memory, double free, and
   invalid free must unwind with charge-exact ledgers and clocks.
3. **Campaign scale** — fleet scorecards are byte-identical across hot
   paths at 1, 2, and 4 workers, and the differential oracle produces
   the same scorecard whichever hot path powers the CSOD arms.
"""

import json

import pytest

from repro.callstack.frames import CallSite
from repro.core import CSODConfig, CSODRuntime
from repro.core.config import HOTPATH_BATCHED, HOTPATH_LEGACY
from repro.core.fastpath import FastAllocDealloc
from repro.core.monitor import AllocDeallocMonitoringUnit
from repro.errors import DoubleFreeError, InvalidFreeError, OutOfMemoryError
from repro.fleet import run_fleet
from repro.workloads.base import SimProcess
from repro.workloads.buggy import BUGGY_APPS, app_for

HOTPATHS = (HOTPATH_LEGACY, HOTPATH_BATCHED)


def _report_key(report):
    """Every observable report field, allocation context by value."""
    return (
        report.kind,
        report.source,
        report.fault_address,
        report.object_address,
        report.object_size,
        report.thread_id,
        report.time_ns,
        tuple(report.allocation_context.return_addresses),
        tuple(report.access_return_addresses),
    )


def _observe(process, runtime, exit_reports):
    """The full observable surface of one execution."""
    ledger = process.machine.ledger
    counts = ledger.counts()
    return {
        "counts": counts,
        "nanos": {event: ledger.nanos(event) for event in counts},
        "clock_ns": process.machine.clock.now_ns,
        "reports": [_report_key(r) for r in runtime.reports],
        "exit_reports": [_report_key(r) for r in exit_reports],
        "stats": runtime.stats(),
    }


def _run_app(name: str, hotpath: str, seed: int):
    process = SimProcess(seed=seed)
    runtime = CSODRuntime(
        process.machine,
        process.heap,
        CSODConfig(hotpath=hotpath),
        seed=seed,
    )
    expected = (
        FastAllocDealloc
        if hotpath == HOTPATH_BATCHED
        else AllocDeallocMonitoringUnit
    )
    assert isinstance(runtime.monitor, expected)
    app_for(name).run(process)
    exit_reports = runtime.shutdown()
    return _observe(process, runtime, exit_reports)


# ----------------------------------------------------------------------
# 1. Single-execution equivalence across every buggy app
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(BUGGY_APPS))
def test_buggy_app_observables_identical(name):
    legacy = _run_app(name, HOTPATH_LEGACY, seed=7)
    batched = _run_app(name, HOTPATH_BATCHED, seed=7)
    assert batched["counts"] == legacy["counts"]
    assert batched["nanos"] == legacy["nanos"]
    assert batched["clock_ns"] == legacy["clock_ns"]
    assert batched["reports"] == legacy["reports"]
    assert batched["exit_reports"] == legacy["exit_reports"]
    assert batched["stats"] == legacy["stats"]


@pytest.mark.parametrize("seed", [0, 3, 19])
def test_equivalence_across_seeds(seed):
    legacy = _run_app("libtiff", HOTPATH_LEGACY, seed=seed)
    batched = _run_app("libtiff", HOTPATH_BATCHED, seed=seed)
    assert batched == legacy


# ----------------------------------------------------------------------
# Hand-driven scenarios: throttling, reviving, threads, error paths
# ----------------------------------------------------------------------
# Shared across the paired runs: synthetic return addresses come from a
# process-global counter, so each scenario must intern the *same*
# CallSite objects under both hot paths for reports to compare equal.
EQ_SITE = CallSite("EQ", "eq.c", 1, "eq_alloc")
EQ_USE = CallSite("EQ", "use.c", 9, "worker_loop")


def _fresh(hotpath: str, seed: int = 11):
    process = SimProcess(seed=seed)
    runtime = CSODRuntime(
        process.machine,
        process.heap,
        CSODConfig(hotpath=hotpath),
        seed=seed,
    )
    process.symbols.add(EQ_SITE)
    return process, runtime, EQ_SITE


def _drive_hot_loop(hotpath: str):
    """6k allocations from one site: degradation -> floor -> throttle."""
    process, runtime, site = _fresh(hotpath)
    thread = process.main_thread
    heap = process.heap
    live = []
    with thread.call_stack.calling(site):
        for i in range(6000):
            address = heap.malloc(thread, 16 + (i % 7) * 16)
            if i % 3 == 0:
                live.append(address)
            else:
                heap.free(thread, address)
        while live:
            heap.free(thread, live.pop())
    exit_reports = runtime.shutdown()
    return _observe(process, runtime, exit_reports)


def test_throttle_and_floor_regime_identical():
    assert _drive_hot_loop(HOTPATH_BATCHED) == _drive_hot_loop(HOTPATH_LEGACY)


def _drive_threads(hotpath: str):
    """Interleaved allocation from three threads; one trap; one corrupt."""
    process, runtime, site = _fresh(hotpath, seed=23)
    heap = process.heap
    threads = [process.main_thread] + [
        process.spawn_thread(f"w{i}") for i in (1, 2)
    ]
    use = EQ_USE
    process.symbols.add(use)
    live = {t.tid: [] for t in threads}
    with threads[0].call_stack.calling(site):
        victim = heap.malloc(threads[0], 64)
    # A cross-thread overflow trap on the boundary watchpoint.
    with threads[1].call_stack.calling(use):
        process.machine.cpu.store(threads[1], victim + 64, b"\xaa" * 8)
    for i in range(900):
        t = threads[i % 3]
        with t.call_stack.calling(site):
            address = heap.malloc(t, 32 + (i % 5) * 8)
        if i % 2:
            heap.free(t, address)
        else:
            live[t.tid].append(address)
    # A canary corruption discovered at free time: a raw memory write
    # (no CPU access, so no trap) that the free-time check must report.
    with threads[2].call_stack.calling(site):
        corrupt = heap.malloc(threads[2], 40)
    process.machine.memory.write_word(corrupt + 40, 0xDEAD)
    heap.free(threads[2], corrupt)
    for tid in live:
        for address in live[tid]:
            heap.free(threads[0], address)
    heap.free(threads[0], victim)
    exit_reports = runtime.shutdown()
    return _observe(process, runtime, exit_reports)


def test_multithreaded_trace_identical():
    assert _drive_threads(HOTPATH_BATCHED) == _drive_threads(HOTPATH_LEGACY)


def _drive_errors(hotpath: str):
    """free(NULL), OOM, double free, invalid free: charge-exact unwinds."""
    process, runtime, site = _fresh(hotpath, seed=5)
    thread = process.main_thread
    heap = process.heap
    probes = []
    clock = process.machine.clock
    with thread.call_stack.calling(site):
        heap.free(thread, 0)  # free(NULL): no charge, no effect
        probes.append(clock.now_ns)
        address = heap.malloc(thread, 48)
        with pytest.raises(OutOfMemoryError):
            heap.malloc(thread, 1 << 40)
        probes.append(clock.now_ns)
        heap.free(thread, address)
        # A double free of a wrapped object reaches the allocator with
        # the wrapper address (the real block starts 32 bytes earlier),
        # so the diagnosis class is part of the observable contract —
        # both hot paths must raise the same one.
        with pytest.raises((DoubleFreeError, InvalidFreeError)) as first:
            heap.free(thread, address)
        probes.append((first.type.__name__, clock.now_ns))
        with pytest.raises((DoubleFreeError, InvalidFreeError)) as second:
            heap.free(thread, address + 4096 * 64)
        probes.append((second.type.__name__, clock.now_ns))
    exit_reports = runtime.shutdown()
    observed = _observe(process, runtime, exit_reports)
    observed["probes"] = probes
    return observed


def test_error_paths_charge_identically():
    assert _drive_errors(HOTPATH_BATCHED) == _drive_errors(HOTPATH_LEGACY)


def _drive_rng_trace(hotpath: str, allocations: int = 1200, n_threads: int = 3):
    """Per-thread draw conservation across an interleaved trace.

    After an identical multithreaded allocation trace, each thread's
    stream must sit at the same point in its draw sequence under both
    hot paths — the batched driver's inline draws from block-replenished
    buffers may not consume one draw more or fewer than the serial
    units.  The stream tails make any skew visible.
    """
    process, runtime, site = _fresh(hotpath, seed=31)
    heap = process.heap
    threads = [process.main_thread] + [
        process.spawn_thread(f"r{i}") for i in range(1, n_threads)
    ]
    live = []
    for i in range(allocations):
        t = threads[(i * 7) % n_threads]
        with t.call_stack.calling(site):
            address = heap.malloc(t, 16 + (i % 9) * 8)
        if i % 2:
            heap.free(t, address)
        else:
            live.append((t, address))
    for t, address in live:
        heap.free(t, address)
    runtime.shutdown()
    return {
        t.tid: [runtime.rng.uniform(t.tid) for _ in range(5)] for t in threads
    }


def test_rng_streams_aligned_after_multithreaded_trace():
    assert _drive_rng_trace(HOTPATH_BATCHED) == _drive_rng_trace(HOTPATH_LEGACY)


@pytest.mark.parametrize("allocations", [1, 6, 7, 8, 9, 22, 23, 24, 25])
def test_rng_streams_aligned_after_short_trace(allocations):
    """Short traces end around the first two block boundaries.

    The canary value takes the main thread's first draw, and with one
    thread and one site each allocation draws once more, so the traces
    stop just before, on and just after the ends of the first block
    (8 values, 7 allocations) and the second (8 + 16, 23 allocations).
    """
    assert _drive_rng_trace(
        HOTPATH_BATCHED, allocations, n_threads=1
    ) == _drive_rng_trace(HOTPATH_LEGACY, allocations, n_threads=1)


# ----------------------------------------------------------------------
# 3. Campaign scale: fleet and oracle scorecards
# ----------------------------------------------------------------------
def _fleet_bytes(hotpath: str, workers: int) -> bytes:
    result = run_fleet(
        "libtiff",
        executions=8,
        workers=workers,
        seed_base=42,
        config=CSODConfig(hotpath=hotpath),
    )
    return json.dumps(result.aggregator.to_dict(), sort_keys=True).encode()


def test_fleet_scorecards_byte_identical_across_hotpaths_and_workers():
    reference = _fleet_bytes(HOTPATH_LEGACY, workers=1)
    for workers in (1, 2, 4):
        assert _fleet_bytes(HOTPATH_BATCHED, workers) == reference
    assert _fleet_bytes(HOTPATH_LEGACY, workers=2) == reference


def test_oracle_scorecard_identical_across_hotpaths(monkeypatch):
    from repro.oracle import OracleSettings, render_scorecard, run_oracle
    from repro.oracle import runner as oracle_runner

    settings = OracleSettings(
        budget=8, seed=3, workers=1, executions_per_app=2
    )
    batched = run_oracle(settings)

    legacy_configs = {
        arm: config.with_hotpath(HOTPATH_LEGACY)
        for arm, config in oracle_runner.arm_configs().items()
    }
    monkeypatch.setattr(
        oracle_runner, "arm_configs", lambda: legacy_configs
    )
    legacy = run_oracle(settings)
    assert render_scorecard(batched.scorecard) == render_scorecard(
        legacy.scorecard
    )
