"""The GWP-ASan arm: rare-sampled guard slots with stacks in metadata.

GWP-ASan ("GWP-ASan: Sampling-Based Detection of Memory-Safety Bugs in
Production", Serebryany et al.) guards a tiny pool of sampled
allocations with protected pages and keeps allocation *and*
deallocation stacks in per-slot metadata, so the crash handler can
print both when a fault hits a guard or a quarantined slot.

Differences from the simpler ``repro.guardpage`` baseline this repo
already had:

* **Rare sampling gate** — a next-sample countdown (mean
  ``sample_every``) instead of a per-allocation Bernoulli draw; the
  steady-state check is a single decrement.
* **Slot pool with left/right guards** — a fixed pool laid out as
  ``[G][S0][G][S1][G]...``: guard pages interleave slot pages, so every
  slot has a guard on both sides and a right-aligned object catches
  overflows while a left-aligned one would catch underflows (this model
  right-aligns, like the production default).
* **Quarantine** — freed slots stay unmapped in a FIFO quarantine and
  are only recycled when it overflows; a touch inside a quarantined
  slot is a use-after-free with both stacks, and a second free of a
  quarantined object is a double-free caught at the free site.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.callstack.backtrace import Backtracer
from repro.core.rng import PerThreadRNG
from repro.detectors.base import DetectorReport
from repro.errors import ReproError
from repro.heap.interpose import RawHeap
from repro.heap.size_classes import MIN_ALIGNMENT
from repro.machine.address_space import PAGE_SIZE
from repro.machine.machine import Machine
from repro.machine.signals import SIGSEGV, SigInfo
from repro.machine.threads import SimThread

ARM_GWP_ASAN = "gwp-asan"

# A reserved VA range for the slot pool, clear of the heap arena
# (0x7F00...) and the guard-page baseline's region (0x7E00...).
GWP_REGION_BASE = 0x7D00_0000_0000

# Cost model: the countdown is one decrement; a sampled allocation pays
# the slot mmap plus the two stack captures; recycling a quarantined
# slot is bookkeeping.
EVENT_GWP_SAMPLE = "gwp_asan.sample_check"
EVENT_GWP_SETUP = "gwp_asan.slot_setup"
EVENT_GWP_QUARANTINE = "gwp_asan.quarantine"
SAMPLE_CHECK_COST_NS = 1
SLOT_SETUP_COST_NS = 3_000
QUARANTINE_COST_NS = 120

GWP_ASAN_OVERHEAD_EVENTS = (
    EVENT_GWP_SAMPLE,
    EVENT_GWP_SETUP,
    EVENT_GWP_QUARANTINE,
)

STATE_FREE = "free"
STATE_LIVE = "live"
STATE_QUARANTINED = "quarantined"


def countdown(
    remaining: int, sample_every: int, rng: PerThreadRNG, tid: int
) -> Tuple[bool, int]:
    """One allocation's step of the sampling gate: (sampled, remaining).

    A sampled allocation re-arms the countdown with a draw from thread
    ``tid``'s stream, uniform on [1, 2*sample_every - 1]: mean
    ``sample_every``, so the long-run rate matches 1/sample_every
    without a modulo on the allocation hot path.
    """
    if sample_every == 1:
        return True, remaining
    if remaining > 0:
        return False, remaining - 1
    return True, 1 + rng.below(tid, 2 * sample_every - 1)


@dataclass(frozen=True)
class GwpAsanConfig:
    """Tunables (production ships roughly 1/5000 over 16 slots)."""

    sample_every: int = 5000
    pool_slots: int = 16
    quarantine_slots: int = 8

    def __post_init__(self):
        if self.sample_every < 1:
            raise ReproError("sample_every must be >= 1")
        if self.pool_slots < 1:
            raise ReproError("pool_slots must be >= 1")
        if not 0 <= self.quarantine_slots <= self.pool_slots:
            raise ReproError(
                "quarantine_slots must be between 0 and pool_slots"
            )


@dataclass
class _Slot:
    """One pool slot; metadata persists across the quarantine."""

    index: int
    page_base: int
    state: str = STATE_FREE
    object_address: int = 0
    object_size: int = 0
    allocation_context: Tuple[str, ...] = ()
    deallocation_context: Tuple[str, ...] = ()
    thread_id: int = 0


class _FreeIndexes:
    """The free list of a pool of ``n`` slots, without materialising it.

    Behaves like ``deque(range(n))`` under ``popleft``/``append``/``len``
    (callers read ``len`` as the free-slot count): the never-used
    indexes come out in ascending order before any index appended
    (recycled) later, but they are a counter, not ``n`` stored integers.
    """

    __slots__ = ("_next_unused", "_end", "_recycled")

    def __init__(self, n: int):
        self._next_unused = 0
        self._end = n
        self._recycled: Deque[int] = deque()

    def __len__(self) -> int:
        return self._end - self._next_unused + len(self._recycled)

    def __iter__(self) -> Iterator[int]:
        yield from range(self._next_unused, self._end)
        yield from self._recycled

    def popleft(self) -> int:
        if self._next_unused < self._end:
            self._next_unused += 1
            return self._next_unused - 1
        return self._recycled.popleft()

    def append(self, index: int) -> None:
        self._recycled.append(index)


class GwpAsanSlotPool:
    """The fixed slot pool with interleaved guard pages.

    Layout from ``base``: page ``2*i`` is the guard *left of* slot
    ``i``; page ``2*i + 1`` is slot ``i``'s data page; the final page
    ``2*n`` guards the right edge of the last slot.  Guard pages are
    never mapped — the pool only ever maps slot pages, so guards can
    never overlap a live slot.

    The layout is fixed, but a slot's record is created the first time
    :meth:`slot` is asked for its index (on acquisition, or when a
    fault is attributed to it), so a run pays for the slots it touches,
    not for the whole pool.
    """

    def __init__(self, memory, base: int = GWP_REGION_BASE, slots: int = 16):
        self._memory = memory
        self.base = base
        self.slot_count = slots
        self._slots: Dict[int, _Slot] = {}
        self._free = _FreeIndexes(slots)
        self._quarantine: Deque[int] = deque()

    def slot(self, index: int) -> _Slot:
        """Slot ``index``'s record, created (free) on first use."""
        slot = self._slots.get(index)
        if slot is None:
            if not 0 <= index < self.slot_count:
                raise IndexError(f"slot {index} is outside the pool")
            slot = self._slots[index] = _Slot(
                index=index,
                page_base=self.base + (2 * index + 1) * PAGE_SIZE,
            )
        return slot

    # -- pool state (also the property-test surface) --------------------
    def free_indexes(self) -> Tuple[int, ...]:
        return tuple(self._free)

    def quarantined_indexes(self) -> Tuple[int, ...]:
        return tuple(self._quarantine)

    def live_indexes(self) -> Tuple[int, ...]:
        return tuple(
            sorted(i for i, s in self._slots.items() if s.state == STATE_LIVE)
        )

    def guard_ranges(self) -> Tuple[Tuple[int, int], ...]:
        """Every guard page as a half-open [start, end) range."""
        return tuple(
            (self.base + 2 * i * PAGE_SIZE, self.base + (2 * i + 1) * PAGE_SIZE)
            for i in range(self.slot_count + 1)
        )

    # -- transitions ----------------------------------------------------
    def acquire(self) -> Optional[_Slot]:
        """Hand out a free slot (never one still in quarantine)."""
        if not self._free:
            return None
        slot = self.slot(self._free.popleft())
        slot.state = STATE_LIVE
        slot.deallocation_context = ()
        self._memory.map_region(slot.page_base, PAGE_SIZE, name="gwp-slot")
        return slot

    def retire(self, slot: _Slot, quarantine_cap: int) -> List[_Slot]:
        """Unmap and quarantine a live slot; recycle past the cap.

        Returns the slots recycled back to the free list (their
        metadata is stale from this point on).
        """
        if slot.state != STATE_LIVE:
            raise ReproError(f"slot {slot.index} is not live")
        self._memory.unmap_region(slot.page_base)
        slot.state = STATE_QUARANTINED
        self._quarantine.append(slot.index)
        recycled: List[_Slot] = []
        while len(self._quarantine) > quarantine_cap:
            stale = self.slot(self._quarantine.popleft())
            stale.state = STATE_FREE
            self._free.append(stale.index)
            recycled.append(stale)
        return recycled

    def slot_at(self, address: int) -> Optional[_Slot]:
        """The slot whose data page covers ``address``, if any."""
        rel = address - self.base
        if rel < 0 or rel >= (2 * self.slot_count + 1) * PAGE_SIZE:
            return None
        page_index = rel // PAGE_SIZE
        if page_index % 2 == 0:
            return None  # a guard page
        return self.slot((page_index - 1) // 2)

    def guard_neighbors(
        self, address: int
    ) -> Tuple[Optional[_Slot], Optional[_Slot]]:
        """(left slot, right slot) around the guard page at ``address``."""
        rel = address - self.base
        if rel < 0 or rel >= (2 * self.slot_count + 1) * PAGE_SIZE:
            return (None, None)
        page_index = rel // PAGE_SIZE
        if page_index % 2 == 1:
            return (None, None)  # a slot page, not a guard
        left = page_index // 2 - 1
        right = page_index // 2
        return (
            self.slot(left) if left >= 0 else None,
            self.slot(right) if right < self.slot_count else None,
        )


class GwpAsanRuntime:
    """Interposes on the heap; sampled allocations land in the pool.

    Like real GWP-ASan the process still dies on the fault — the report
    is written from the crash handler.  Drivers catch the
    SegmentationFault and read ``reports``.
    """

    def __init__(
        self,
        machine: Machine,
        interposer,
        config: Optional[GwpAsanConfig] = None,
        seed: int = 0,
    ):
        self.machine = machine
        self.config = config or GwpAsanConfig()
        self._raw: RawHeap = interposer.raw
        self._interposer = interposer
        self._rng = PerThreadRNG(seed, machine.ledger)
        self._backtracer = Backtracer(machine.ledger)
        self.pool = GwpAsanSlotPool(
            machine.memory, slots=self.config.pool_slots
        )
        self._by_address: Dict[int, _Slot] = {}
        self._next_sample = 0  # sample the first eligible allocation
        self.reports: List[DetectorReport] = []
        self.sampled_count = 0
        self.allocation_count = 0
        machine.signals.sigaction(SIGSEGV, self._on_segv)
        interposer.preload(self)

    # ------------------------------------------------------------------
    # HeapLibrary surface
    # ------------------------------------------------------------------
    def malloc(self, thread: SimThread, size: int) -> int:
        self.allocation_count += 1
        self.machine.ledger.record(
            EVENT_GWP_SAMPLE, nanos_each=SAMPLE_CHECK_COST_NS
        )
        if size <= PAGE_SIZE and self._should_sample(thread):
            slot = self.pool.acquire()
            if slot is not None:
                return self._guarded_alloc(thread, slot, size)
        return self._raw.malloc(thread, size)

    def memalign(self, thread: SimThread, alignment: int, size: int) -> int:
        self.allocation_count += 1
        return self._raw.memalign(thread, alignment, size)

    def free(self, thread: SimThread, address: int) -> None:
        slot = self._by_address.get(address)
        if slot is None:
            self._raw.free(thread, address)
            return
        if slot.state == STATE_QUARANTINED:
            # Second free of a slot already in quarantine: a
            # deterministic double-free, reported (non-fatally, as the
            # production tool does) with both recorded stacks.
            self.reports.append(
                DetectorReport(
                    arm=ARM_GWP_ASAN,
                    kind="double-free",
                    fault_address=address,
                    object_address=slot.object_address,
                    object_size=slot.object_size,
                    thread_id=thread.tid,
                    allocation_context=slot.allocation_context,
                    deallocation_context=slot.deallocation_context,
                )
            )
            return
        slot.deallocation_context = self._frames_of(thread)
        self.machine.ledger.record(
            EVENT_GWP_QUARANTINE, nanos_each=QUARANTINE_COST_NS
        )
        for stale in self.pool.retire(slot, self.config.quarantine_slots):
            self._by_address.pop(stale.object_address, None)

    def usable_size(self, address: int) -> int:
        slot = self._by_address.get(address)
        if slot is not None and slot.state == STATE_LIVE:
            return slot.object_size
        return self._raw.usable_size(address)

    # ------------------------------------------------------------------
    # Sampling gate
    # ------------------------------------------------------------------
    def _should_sample(self, thread: SimThread) -> bool:
        sampled, self._next_sample = countdown(
            self._next_sample, self.config.sample_every, self._rng, thread.tid
        )
        return sampled

    def _guarded_alloc(self, thread: SimThread, slot: _Slot, size: int) -> int:
        self.sampled_count += 1
        self.machine.ledger.record(
            EVENT_GWP_SETUP, nanos_each=SLOT_SETUP_COST_NS
        )
        # Right-align against the right guard page, subject to the
        # 16-byte allocator alignment (the classic GWP-ASan slack).
        object_address = (
            slot.page_base + PAGE_SIZE - size
        ) & ~(MIN_ALIGNMENT - 1)
        slot.object_address = object_address
        slot.object_size = size
        slot.allocation_context = self._frames_of(thread)
        slot.thread_id = thread.tid
        self._by_address[object_address] = slot
        return object_address

    def _frames_of(self, thread: SimThread) -> Tuple[str, ...]:
        frames = self._backtracer.full_frames(thread.call_stack)
        return tuple(str(f) for f in frames)

    # ------------------------------------------------------------------
    # Crash attribution
    # ------------------------------------------------------------------
    def _on_segv(self, signo: int, info: SigInfo, thread: SimThread) -> None:
        fault = info.fault_address
        left, right = self.pool.guard_neighbors(fault)
        if left is not None or right is not None:
            if left is not None and left.state == STATE_LIVE:
                self._report("overflow", fault, left, thread)
            elif right is not None and right.state == STATE_LIVE:
                self._report("underflow", fault, right, thread)
            elif left is not None and left.state == STATE_QUARANTINED:
                # Walked off the end of an already-freed object.
                self._report("use-after-free", fault, left, thread)
            return
        slot = self.pool.slot_at(fault)
        if slot is not None and slot.state == STATE_QUARANTINED:
            self._report("use-after-free", fault, slot, thread)

    def _report(
        self, kind: str, fault: int, slot: _Slot, thread: SimThread
    ) -> None:
        self.reports.append(
            DetectorReport(
                arm=ARM_GWP_ASAN,
                kind=kind,
                fault_address=fault,
                object_address=slot.object_address,
                object_size=slot.object_size,
                thread_id=thread.tid,
                allocation_context=slot.allocation_context,
                deallocation_context=slot.deallocation_context,
            )
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def detected(self) -> bool:
        return bool(self.reports)

    def memory_overhead_bytes(self) -> int:
        """Pages pinned by live + quarantined slots."""
        return (
            len(self.pool.live_indexes())
            + len(self.pool.quarantined_indexes())
        ) * PAGE_SIZE

    def shutdown(self) -> None:
        self._interposer.unload()
        self.machine.signals.sigaction(SIGSEGV, None)
