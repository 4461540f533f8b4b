"""The Alloc/Dealloc Monitoring Unit (§III-A).

This is the interposed ``malloc``/``free`` — the entry point of the
whole runtime.  On every allocation it:

1. obtains the calling context's record from the Sampling Management
   Unit (cheap key lookup; full backtrace only on first sight),
2. draws a per-thread random number against the context's probability,
3. wraps the object with header+canary when evidence mode is on, and
4. asks the Watchpoint Management Unit to watch the object — always
   when a watchpoint is free ("installation due to availability"),
   otherwise only when the draw passed, via the replacement policy.

On every deallocation it removes the object's watchpoint if present and,
in evidence mode, verifies the canary; a corrupted canary boosts the
context to 100% immediately (§IV-B).
"""

from __future__ import annotations

from typing import Optional

from repro.core.canary import CanaryManagementUnit
from repro.core.config import CSODConfig
from repro.core.evidence import report_at_free
from repro.core.reporting import ReportSink
from repro.core.rng import PerThreadRNG
from repro.core.sampling import SamplingManagementUnit
from repro.core.watchpoints import WatchpointManagementUnit
from repro.heap.interpose import RawHeap
from repro.machine.threads import SimThread


class AllocDeallocMonitoringUnit:
    """The interposed allocation/deallocation routines."""

    def __init__(
        self,
        config: CSODConfig,
        raw: RawHeap,
        sampling: SamplingManagementUnit,
        wmu: WatchpointManagementUnit,
        canary: Optional[CanaryManagementUnit],
        rng: PerThreadRNG,
        clock,
        sink: ReportSink,
    ):
        self._config = config
        self._raw = raw
        self._sampling = sampling
        self._wmu = wmu
        self._canary = canary
        self._rng = rng
        self._clock = clock
        self._sink = sink
        self.allocation_count = 0
        self.free_count = 0
        if config.evidence_enabled and canary is None:
            raise ValueError("evidence mode requires a canary unit")

    # ------------------------------------------------------------------
    # malloc / memalign
    # ------------------------------------------------------------------
    def malloc(self, thread: SimThread, size: int) -> int:
        self.allocation_count += 1
        record = self._sampling.on_allocation(thread.call_stack, thread.tid)
        if self._config.evidence_enabled:
            object_address = self._canary.wrap_allocation(thread, size, record)
        else:
            object_address = self._raw.malloc(thread, size)
        self._consider_watching(thread, object_address, size, record)
        return object_address

    def memalign(self, thread: SimThread, alignment: int, size: int) -> int:
        self.allocation_count += 1
        record = self._sampling.on_allocation(thread.call_stack, thread.tid)
        if self._config.evidence_enabled:
            object_address = self._canary.wrap_memalign(
                thread, alignment, size, record
            )
        else:
            object_address = self._raw.memalign(thread, alignment, size)
        self._consider_watching(thread, object_address, size, record)
        return object_address

    def _consider_watching(
        self, thread: SimThread, object_address: int, size: int, record
    ) -> None:
        if not self._config.watchpoints_enabled:
            return  # evidence-only (HeapTherapy-style) configuration
        # The randomization draw happens on every allocation — it is one
        # of the three per-allocation costs the paper's §V-B attributes
        # CSOD's overhead to.
        draw_passed = self._sampling.should_watch(record, thread.tid)
        watch_address = object_address + size  # the boundary word
        self._wmu.try_watch(
            thread,
            object_address,
            size,
            watch_address,
            record,
            probability_checked=draw_passed,
        )

    # ------------------------------------------------------------------
    # free
    # ------------------------------------------------------------------
    def free(self, thread: SimThread, address: int) -> None:
        self.free_count += 1
        # "Upon every deallocation, CSOD checks whether the current
        # object is being watched.  If yes, the corresponding watchpoint
        # will be removed."
        self._wmu.on_deallocation(address)
        if not self._config.evidence_enabled:
            self._raw.free(thread, address)
            return
        canary = self._canary
        slot = canary.slot_of(address)
        if slot is None:
            # Not a CSOD-wrapped object: allocated before interposition
            # was enabled (or by a bypassing allocator).  The real
            # runtime's identifier check falls through to the underlying
            # free; crashing here would take the application down.
            self._raw.free(thread, address)
            return
        entry = canary.slot_view(slot)
        if canary.check_slot(slot):
            report_at_free(
                self._sink, entry.record, address, entry.object_size,
                thread.tid, self._clock.now_ns,
            )
        canary.release_slot(slot)
        self._raw.free(thread, entry.real_object_ptr)

    # ------------------------------------------------------------------
    # realloc
    # ------------------------------------------------------------------
    def realloc(self, thread: SimThread, address: int, new_size: int) -> int:
        """The interposed realloc.

        A shrink (or same-size resize) of an evidence-wrapped object is
        done *in place*: the header's ObjectSize word is rewritten and a
        fresh canary implanted at the new end, so the header-table slot
        survives with no allocator traffic.  The boundary watchpoint, if
        armed, moves to the new boundary through a remove + re-consider
        pair — one sampling draw, exactly as a malloc of the new size
        would pay.  Grows and non-wrapped pointers fall back to
        allocate-copy-free through the interposed malloc/free, which on
        the batched driver dispatch to the compiled fast paths.
        """
        if address == 0:
            return self.malloc(thread, new_size)
        if new_size == 0:
            self.free(thread, address)
            return 0
        if self._config.evidence_enabled:
            canary = self._canary
            slot = canary.slot_of(address)
            entry = None if slot is None else canary.slot_view(slot)
            if entry is not None and new_size <= entry.object_size:
                # The shrink abandons the old canary word; verify it
                # first so evidence of an earlier over-write is not
                # silently erased by the resize.
                if canary.check_slot(slot):
                    report_at_free(
                        self._sink, entry.record, address, entry.object_size,
                        thread.tid, self._clock.now_ns,
                    )
                self._wmu.on_deallocation(address)
                canary.resize_slot(slot, new_size)
                self._consider_watching(thread, address, new_size, entry.record)
                return address
        old_size = self.usable_size(address)
        new_address = self.malloc(thread, new_size)
        memory = self._raw._machine.memory
        payload = memory.read_bytes(address, min(old_size, new_size))
        memory.write_bytes(new_address, payload)
        self.free(thread, address)
        return new_address

    # ------------------------------------------------------------------
    # malloc_usable_size
    # ------------------------------------------------------------------
    def usable_size(self, address: int) -> int:
        if self._config.evidence_enabled:
            entry = self._canary.lookup(address)
            if entry is not None:
                return entry.object_size
        return self._raw.usable_size(address)
