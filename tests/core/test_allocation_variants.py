"""calloc / realloc / memalign flowing through the CSOD runtime."""

import pytest

from repro.callstack.frames import CallSite
from repro.core import CSODConfig, CSODRuntime
from repro.workloads.base import SimProcess


@pytest.fixture
def env():
    process = SimProcess(seed=5)
    csod = CSODRuntime(process.machine, process.heap, CSODConfig(), seed=5)
    site = CallSite("APP", "v.c", 1, "alloc_variant")
    process.symbols.add(site)
    return process, csod, site


def test_calloc_zeroes_and_is_monitored(env):
    process, csod, site = env
    with process.main_thread.call_stack.calling(site):
        address = process.heap.calloc(process.main_thread, 8, 8)
    assert process.machine.memory.read_bytes(address, 64) == bytes(64)
    assert csod.stats().allocations == 1
    process.heap.free(process.main_thread, address)


def test_realloc_preserves_contents_and_canary(env):
    process, csod, site = env
    thread = process.main_thread
    with thread.call_stack.calling(site):
        a = process.heap.malloc(thread, 32)
        process.machine.memory.write_bytes(a, b"payload!" * 4)
        b = process.heap.realloc(thread, a, 128)
    assert process.machine.memory.read_bytes(b, 32) == b"payload!" * 4
    # The realloc'd object is a fresh CSOD object with its own canary.
    slot = csod.canary.slot_of(b)
    assert not csod.canary.check_slot(slot)
    assert csod.canary.slot_view(slot).object_size == 128
    process.heap.free(thread, b)


def test_realloc_detects_prior_corruption_at_its_free(env):
    process, csod, site = env
    thread = process.main_thread
    with thread.call_stack.calling(site):
        a = process.heap.malloc(thread, 32)
    process.machine.memory.write_bytes(a + 32, b"\x00" * 8)  # smash canary
    with thread.call_stack.calling(site):
        process.heap.realloc(thread, a, 64)  # frees `a` internally
    assert any(r.source == "free-canary" for r in csod.reports)


def test_memalign_object_watched_at_boundary(env):
    process, csod, site = env
    with process.main_thread.call_stack.calling(site):
        address = process.heap.memalign(process.main_thread, 256, 96)
    assert address % 256 == 0
    watched = csod.wmu.find_by_object_address(address)
    assert watched is not None
    assert watched.watch_address == address + 96


def test_memalign_overflow_detected(env):
    process, csod, site = env
    with process.main_thread.call_stack.calling(site):
        address = process.heap.memalign(process.main_thread, 512, 64)
        process.machine.cpu.store(process.main_thread, address + 64, b"!" * 8)
    assert csod.detected_by_watchpoint


def test_memalign_free_returns_real_block(env):
    process, csod, site = env
    live_before = process.allocator.stats.live_blocks
    with process.main_thread.call_stack.calling(site):
        address = process.heap.memalign(process.main_thread, 1024, 48)
    process.heap.free(process.main_thread, address)
    assert process.allocator.stats.live_blocks == live_before


def test_realloc_null_is_malloc(env):
    process, csod, site = env
    with process.main_thread.call_stack.calling(site):
        address = process.heap.realloc(process.main_thread, 0, 40)
    assert csod.canary.lookup(address) is not None
