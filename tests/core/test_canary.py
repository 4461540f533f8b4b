"""The Canary Management Unit (§IV-B)."""

import pytest

from repro.callstack.contexts import ContextInterner
from repro.callstack.frames import CallSite, CallStack
from repro.core.canary import CanaryManagementUnit
from repro.core.config import CSODConfig
from repro.core.rng import PerThreadRNG
from repro.core.sampling import SamplingManagementUnit
from repro.heap import layout
from repro.heap.allocator import FreeListAllocator
from repro.heap.interpose import RawHeap
from repro.machine.machine import DEFAULT_HEAP_BASE, DEFAULT_HEAP_SIZE, Machine


class Harness:
    def __init__(self):
        self.machine = Machine(seed=9)
        arena = self.machine.map_heap_arena()
        self.raw = RawHeap(
            self.machine, FreeListAllocator(arena.start, arena.size)
        )
        self.rng = PerThreadRNG(9)
        self.sampling = SamplingManagementUnit(
            CSODConfig(), self.machine.clock, self.rng, ContextInterner()
        )
        self.canary = CanaryManagementUnit(self.machine, self.raw, self.rng)

    def record(self):
        stack = CallStack()
        stack.push(CallSite("APP", "m.c", 1, "main"))
        return self.sampling.on_allocation(stack)

    def alloc(self, size=64):
        return self.canary.wrap_allocation(
            self.machine.main_thread, size, self.record()
        )


@pytest.fixture
def h():
    return Harness()


def test_wrap_places_header_and_canary(h):
    address = h.alloc(64)
    header = layout.read_header(h.machine.memory, address)
    assert header.is_valid
    assert header.object_size == 64
    assert layout.read_canary(h.machine.memory, address, 64) == h.canary.canary_value


def test_object_address_after_header(h):
    address = h.alloc(64)
    header = layout.read_header(h.machine.memory, address)
    assert address == header.real_object_ptr + layout.CSOD_HEADER_SIZE


def check(h, address):
    return h.canary.check_slot(h.canary.slot_of(address))


def test_clean_object_checks_clean(h):
    address = h.alloc(64)
    assert not check(h, address)
    assert h.canary.lookup(address).object_size == 64


def test_overwrite_detected(h):
    address = h.alloc(64)
    h.machine.memory.write_bytes(address + 64, b"\x00" * 8)
    assert check(h, address)
    assert h.canary.corruption_count == 1


def test_in_bounds_write_not_flagged(h):
    address = h.alloc(64)
    h.machine.memory.write_bytes(address, b"\xaa" * 64)
    assert not check(h, address)


def test_header_clobber_counts_as_corruption(h):
    """An overflow from the *previous* object can smash our identifier."""
    address = h.alloc(64)
    h.machine.memory.write_word(layout.header_address(address) + 24, 0)
    assert check(h, address)


def test_release_removes_from_registry(h):
    address = h.alloc(64)
    h.canary.release_slot(h.canary.slot_of(address))
    assert h.canary.live_count() == 0
    assert h.canary.slot_of(address) is None
    assert h.canary.lookup(address) is None


def test_sweep_finds_all_corruptions(h):
    clean = h.alloc(32)
    bad1 = h.alloc(32)
    bad2 = h.alloc(32)
    for address in (bad1, bad2):
        h.machine.memory.write_bytes(address + 32, b"junk-junk")
    corrupted = [
        h.canary.slot_view(slot).object_address
        for slot in h.canary.live_slots()
        if h.canary.check_slot(slot)
    ]
    assert corrupted == [bad1, bad2]  # in registry order


def test_memalign_wrapping(h):
    address = h.canary.wrap_memalign(
        h.machine.main_thread, 256, 100, h.record()
    )
    assert address % 256 == 0
    header = layout.read_header(h.machine.memory, address)
    assert header.is_valid
    assert header.object_size == 100
    # RealObjectPtr lets the allocator free the original block.
    assert h.raw.allocator.is_live(header.real_object_ptr)


def test_canary_value_is_per_process_random():
    a, b = Harness(), Harness()
    machine_c = Machine(seed=1234)
    machine_c.map_heap_arena()
    c = CanaryManagementUnit(
        machine_c,
        RawHeap(machine_c, FreeListAllocator(DEFAULT_HEAP_BASE, DEFAULT_HEAP_SIZE)),
        PerThreadRNG(1234),
    )
    assert a.canary.canary_value == b.canary.canary_value  # same seed
    assert a.canary.canary_value != c.canary_value  # different seed


def test_lookup(h):
    address = h.alloc(16)
    assert h.canary.lookup(address).object_size == 16
    assert h.canary.lookup(0x1) is None
