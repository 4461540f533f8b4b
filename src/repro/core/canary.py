"""The Canary Management Unit (§IV-B).

In evidence-based mode every heap object is wrapped in the Fig. 5
layout: a 32-byte header before the object and a random 8-byte canary
immediately after it.  This unit implants both and checks one object
with :func:`repro.core.evidence.corrupted`; what follows a corrupted
object — the report, the 100% boost, the exit sweep and persistence —
is written once in :mod:`repro.core.evidence`.

The unit also keeps the live-object registry the exit-time sweep needs,
which is the in-simulation counterpart of the metadata that costs CSOD
its Table V memory overhead.

The registry is an *index-addressed header table*: four parallel flat
arrays (address, size, real pointer, context record) plus a free-slot
recycling stack, keyed by an address → slot dict.  The hot path touches
only list cells and one dict entry per allocation; no per-allocation
registry object is built.  :class:`LiveObject` survives as an on-demand
view for callers that want one (sweep reports, the oracle, tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.evidence import corrupted
from repro.core.rng import PerThreadRNG
from repro.core.sampling import ContextRecord
from repro.heap import layout
from repro.heap.interpose import RawHeap
from repro.machine.machine import Machine
from repro.machine.syscall_cost import (
    CostLedger,
    EVENT_CANARY_CHECK,
    EVENT_CANARY_SET,
)
from repro.machine.threads import SimThread

CANARY_SET_COST_NS = 50
CANARY_CHECK_COST_NS = 70


@dataclass(slots=True)
class LiveObject:
    """View of one live evidence-wrapped object (built on demand)."""

    object_address: int
    object_size: int
    real_object_ptr: int
    record: ContextRecord


class CanaryManagementUnit:
    """Implants and verifies the per-object canaries."""

    def __init__(self, machine: Machine, raw: RawHeap, rng: PerThreadRNG):
        self._machine = machine
        self._raw = raw
        self._ledger: CostLedger = machine.ledger
        # "The canary is a random value" — one secret per process, drawn
        # from the main thread's stream at startup.
        self.canary_value = rng.next_u64(tid=machine.main_thread.tid) or 0xDEAD_BEEF
        # Header table: parallel arrays indexed by slot.  A slot holds
        # exactly one live object; freed slots are recycled LIFO.  Every
        # field of a slot is overwritten on (re)acquisition, so a
        # recycled slot can never leak the previous tenant's size, real
        # pointer, or context.
        self._addr_slot: Dict[int, int] = {}
        self._slot_addr: List[int] = []
        self._slot_size: List[int] = []
        self._slot_real: List[int] = []
        self._slot_record: List[Optional[ContextRecord]] = []
        self._free_slots: List[int] = []
        self.corruption_count = 0

    # ------------------------------------------------------------------
    # Allocation wrapping
    # ------------------------------------------------------------------
    def wrap_allocation(
        self, thread: SimThread, size: int, record: ContextRecord
    ) -> int:
        """Allocate via the raw heap with header+canary; returns the
        user-visible object address."""
        real = self._raw.malloc(
            thread, layout.CSOD_HEADER_SIZE + size + layout.CANARY_SIZE
        )
        object_address = real + layout.CSOD_HEADER_SIZE
        self._implant(object_address, size, real, record)
        return object_address

    def wrap_memalign(
        self, thread: SimThread, alignment: int, size: int, record: ContextRecord
    ) -> int:
        """Aligned allocation: over-allocate and slide the object forward
        so it lands on the requested alignment with the header intact.

        The header's RealObjectPtr field exists precisely so these
        objects can be freed correctly (§IV-B).
        """
        from repro.heap.size_classes import align_up

        padding = max(alignment, layout.CSOD_HEADER_SIZE)
        real = self._raw.malloc(
            thread, padding + layout.CSOD_HEADER_SIZE + size + layout.CANARY_SIZE
        )
        object_address = align_up(real + layout.CSOD_HEADER_SIZE, alignment)
        self._implant(object_address, size, real, record)
        return object_address

    def _implant(
        self, object_address: int, size: int, real: int, record: ContextRecord
    ) -> None:
        memory = self._machine.memory
        layout.write_header(
            memory,
            object_address,
            real_object_ptr=real,
            object_size=size,
            context_ptr=record.key.first_level_ra,
        )
        layout.write_canary(memory, object_address, size, self.canary_value)
        self._ledger.record(EVENT_CANARY_SET, nanos_each=CANARY_SET_COST_NS)
        free_slots = self._free_slots
        if free_slots:
            slot = free_slots.pop()
            self._slot_addr[slot] = object_address
            self._slot_size[slot] = size
            self._slot_real[slot] = real
            self._slot_record[slot] = record
        else:
            slot = len(self._slot_addr)
            self._slot_addr.append(object_address)
            self._slot_size.append(size)
            self._slot_real.append(real)
            self._slot_record.append(record)
        self._addr_slot[object_address] = slot

    # ------------------------------------------------------------------
    # Slot-level access (the batched hot path reads the arrays directly)
    # ------------------------------------------------------------------
    def slot_of(self, object_address: int) -> Optional[int]:
        """Header-table slot of a live object, or None."""
        return self._addr_slot.get(object_address)

    def slot_view(self, slot: int) -> LiveObject:
        """Materialize a :class:`LiveObject` view of one occupied slot."""
        record = self._slot_record[slot]
        assert record is not None, "slot_view on a vacant slot"
        return LiveObject(
            object_address=self._slot_addr[slot],
            object_size=self._slot_size[slot],
            real_object_ptr=self._slot_real[slot],
            record=record,
        )

    def check_slot(self, slot: int) -> bool:
        """Verify one occupied slot (:func:`~repro.core.evidence.corrupted`);
        returns corrupted?"""
        self._ledger.record(EVENT_CANARY_CHECK, nanos_each=CANARY_CHECK_COST_NS)
        memory, size = self._machine.memory, self._slot_size[slot]
        if not corrupted(memory, self._slot_addr[slot], size, self.canary_value):
            return False
        self.corruption_count += 1
        return True

    def resize_slot(self, slot: int, new_size: int) -> None:
        """Resize an occupied slot in place (realloc's shrink path).

        Rewrites the header's ObjectSize word and implants a fresh
        canary at the new object end; the slot index, object address,
        real pointer, and context record all survive, so the header
        table sees no allocator traffic at all.
        """
        memory = self._machine.memory
        object_address = self._slot_addr[slot]
        layout.write_object_size(memory, object_address, new_size)
        layout.write_canary(memory, object_address, new_size, self.canary_value)
        self._ledger.record(EVENT_CANARY_SET, nanos_each=CANARY_SET_COST_NS)
        self._slot_size[slot] = new_size

    def release_slot(self, slot: int) -> None:
        """Vacate an occupied slot and recycle its index."""
        address = self._slot_addr[slot]
        del self._addr_slot[address]
        self._slot_record[slot] = None
        self._free_slots.append(slot)

    def live_slots(self) -> List[int]:
        """Every occupied slot, in registry order (the exit sweep's)."""
        return list(self._addr_slot.values())

    def lookup(self, object_address: int) -> Optional[LiveObject]:
        slot = self._addr_slot.get(object_address)
        if slot is None:
            return None
        return self.slot_view(slot)

    def live_count(self) -> int:
        return len(self._addr_slot)
