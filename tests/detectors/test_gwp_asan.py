"""The GWP-ASan runtime: sampling gate, slot pool, crash attribution."""

import tracemalloc

import pytest

from repro.callstack.frames import CallSite
from repro.core.rng import PerThreadRNG
from repro.detectors import GwpAsanConfig, GwpAsanRuntime, GwpAsanSlotPool
from repro.detectors.gwp_asan import countdown
from repro.errors import ReproError, SegmentationFault
from repro.machine.address_space import PAGE_SIZE
from repro.workloads.base import SimProcess


def make(sample_every=1, seed=3, **kwargs):
    process = SimProcess(seed=seed)
    runtime = GwpAsanRuntime(
        process.machine,
        process.heap,
        GwpAsanConfig(sample_every=sample_every, **kwargs),
        seed=seed,
    )
    return process, runtime


def alloc(process, size=64, name="alloc_site"):
    site = CallSite("APP", "a.c", 1, name)
    try:
        process.symbols.add(site)
    except ValueError:
        pass
    with process.main_thread.call_stack.calling(site):
        return process.heap.malloc(process.main_thread, size)


def free(process, address, name="free_site"):
    site = CallSite("APP", "f.c", 9, name)
    try:
        process.symbols.add(site)
    except ValueError:
        pass
    with process.main_thread.call_stack.calling(site):
        process.heap.free(process.main_thread, address)


def test_config_validation():
    with pytest.raises(ReproError):
        GwpAsanConfig(sample_every=0)
    with pytest.raises(ReproError):
        GwpAsanConfig(pool_slots=0)
    with pytest.raises(ReproError):
        GwpAsanConfig(pool_slots=4, quarantine_slots=5)


def test_sampled_object_is_right_aligned_and_usable():
    process, runtime = make(sample_every=1)
    address = alloc(process, 64)
    slot = runtime.pool.slot_at(address)
    assert slot is not None
    # 64 is 16-aligned: flush against the right guard, no slack.
    assert address + 64 == slot.page_base + PAGE_SIZE
    process.machine.cpu.store(process.main_thread, address, b"x" * 64)
    assert runtime.usable_size(address) == 64
    assert runtime.sampled_count == 1


def test_overflow_into_right_guard_reports_with_alloc_stack():
    process, runtime = make(sample_every=1)
    address = alloc(process, 64)
    with pytest.raises(SegmentationFault):
        process.machine.cpu.store(process.main_thread, address + 64, b"!" * 8)
    assert runtime.detected
    report = runtime.reports[0]
    assert report.kind == "overflow"
    assert report.arm == "gwp-asan"
    assert report.object_address == address
    assert any("a.c:1" in frame for frame in report.allocation_context)
    assert report.deallocation_context == ()


def test_slack_hides_unaligned_overflow():
    process, runtime = make(sample_every=1)
    address = alloc(process, 24)  # 8 bytes of slack before the guard
    process.machine.cpu.store(process.main_thread, address + 24, b"!" * 8)
    assert not runtime.detected


def test_use_after_free_reports_both_stacks():
    process, runtime = make(sample_every=1)
    address = alloc(process, 64)
    free(process, address)
    with pytest.raises(SegmentationFault):
        process.machine.cpu.load(process.main_thread, address, 8)
    report = runtime.reports[0]
    assert report.kind == "use-after-free"
    assert any("a.c:1" in frame for frame in report.allocation_context)
    assert any("f.c:9" in frame for frame in report.deallocation_context)


def test_underflow_into_left_guard_attributes_right_neighbor():
    process, runtime = make(sample_every=1)
    address = alloc(process, 64)
    slot = runtime.pool.slot_at(address)
    with pytest.raises(SegmentationFault):
        process.machine.cpu.load(process.main_thread, slot.page_base - 8, 8)
    assert runtime.reports[0].kind == "underflow"
    assert runtime.reports[0].object_address == address


def test_double_free_of_quarantined_slot_is_nonfatal():
    process, runtime = make(sample_every=1)
    address = alloc(process, 64)
    free(process, address)
    free(process, address)  # no exception: reported from the free site
    assert runtime.reports[0].kind == "double-free"
    assert any("f.c:9" in f for f in runtime.reports[0].deallocation_context)


def test_sampling_gate_is_rare_but_nonzero():
    process, runtime = make(sample_every=50)
    addresses = [alloc(process, 32) for _ in range(600)]
    assert runtime.allocation_count == 600
    # Mean gap is 50: several samples expected, nowhere near all.
    assert 1 <= runtime.sampled_count <= 60
    for address in addresses:
        free(process, address)


def test_countdown_samples_then_skips_a_drawn_gap():
    rng, twin = PerThreadRNG(5), PerThreadRNG(5)
    assert countdown(0, 1, rng, tid=1) == (True, 0)  # every allocation
    assert rng.streams_created() == 0  # without a draw
    sampled, remaining = countdown(0, 3, rng, tid=1)
    assert (sampled, remaining) == (True, 1 + twin.below(1, 5))
    for left in range(remaining - 1, -1, -1):
        assert countdown(left + 1, 3, rng, tid=1) == (False, left)
    assert countdown(0, 3, rng, tid=1) == (True, 1 + twin.below(1, 5))


def test_pool_exhaustion_falls_back_to_raw_heap():
    process, runtime = make(sample_every=1, pool_slots=2, quarantine_slots=0)
    first, second, third = (alloc(process, 64) for _ in range(3))
    assert runtime.pool.slot_at(first) is not None
    assert runtime.pool.slot_at(second) is not None
    assert runtime.pool.slot_at(third) is None  # raw allocation
    assert runtime.sampled_count == 2


def test_quarantine_recycles_past_cap():
    process, runtime = make(sample_every=1, pool_slots=4, quarantine_slots=1)
    a = alloc(process, 64)
    b = alloc(process, 64)
    free(process, a)
    assert runtime.pool.quarantined_indexes() == (0,)
    free(process, b)  # evicts a's slot back to the free list
    assert len(runtime.pool.quarantined_indexes()) == 1
    assert 0 in runtime.pool.free_indexes()
    # The recycled slot's metadata is stale: a second free of `a` now
    # goes to the raw heap (where it is unknown) instead of reporting.
    assert runtime.memory_overhead_bytes() == PAGE_SIZE


def test_large_allocations_never_sampled():
    process, runtime = make(sample_every=1)
    address = alloc(process, PAGE_SIZE + 1)
    assert runtime.pool.slot_at(address) is None
    assert runtime.sampled_count == 0


def test_shutdown_stops_interposing():
    process, runtime = make(sample_every=1)
    alloc(process, 64)
    runtime.shutdown()
    address = alloc(process, 64)
    assert runtime.pool.slot_at(address) is None  # raw heap again
    assert runtime.sampled_count == 1


class _UnbackedMemory:
    """Maps and unmaps nothing, so a measurement sees the pool alone."""

    def map_region(self, base, size, name=""):
        pass

    def unmap_region(self, base):
        pass


def test_slot_pool_builds_only_the_slots_it_uses():
    # The oracle's pool (4,096 slots, nothing recycled) serving a few
    # dozen sampled allocations, as one generated program does.
    tracemalloc.start()
    try:
        pool = GwpAsanSlotPool(_UnbackedMemory(), slots=4096)
        for _ in range(40):
            pool.retire(pool.acquire(), 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert pool.quarantined_indexes() == tuple(range(40))
    assert len(pool.free_indexes()) == 4096 - 40
