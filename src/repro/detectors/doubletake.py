"""The DoubleTake arm: evidence-based detection with epoch replay.

DoubleTake ("DoubleTake: Fast and Precise Error Detection via
Evidence-Based Dynamic Analysis", Liu et al.) runs almost at native
speed by deferring detection to *epoch boundaries*: every heap object
gets leading/trailing canary words, frees are deferred through a
quarantine whose bodies are filled with a known pattern, and at each
epoch end a sweep looks for corrupted canaries or fills.  When the
sweep finds *evidence*, the epoch is rolled back and re-executed with
instrumentation watching the corrupted words, attributing the precise
write that caused the damage.

In this model the rollback is a deterministic re-run of the program
under the same seed (the sim is a pure function of its seed, which is
exactly the determinism real DoubleTake gets from its process
snapshot); the replay runtime watches the faulted words through a CPU
access hook and attaches the writer's stack to the report.  Evidence
signatures flow through the fleet's :class:`EvidenceStore` so sweep
findings dedupe and persist with the same plumbing CSOD evidence uses.

Like real DoubleTake, reads are invisible: an over-read or
use-after-free *read* corrupts nothing and leaves no evidence to find.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.callstack.backtrace import Backtracer
from repro.detectors.base import DetectorReport
from repro.errors import ReproError
from repro.heap.interpose import RawHeap
from repro.machine.cpu import AccessKind
from repro.machine.machine import Machine
from repro.machine.threads import SimThread

ARM_DOUBLETAKE = "doubletake"

# The canary word written before and after every object, and the fill
# byte smeared over quarantined bodies.
CANARY_WORD = 0xD0B1E7A4_D0B1E7A4
FILL_BYTE = 0xDB
_FILL = bytes([FILL_BYTE])
WORD_BYTES = 8
# Leading pad: 16 bytes keep the object 16-aligned; the canary word
# occupies the 8 bytes immediately before the object.
LEAD_PAD = 16

EVENT_DT_CANARY_SET = "doubletake.canary_set"
EVENT_DT_SWEEP = "doubletake.canary_sweep"
EVENT_DT_EPOCH = "doubletake.epoch_snapshot"
EVENT_DT_QUARANTINE = "doubletake.quarantine"
EVENT_DT_REPLAY = "doubletake.replay"
CANARY_SET_COST_NS = 6
SWEEP_COST_NS = 4
EPOCH_COST_NS = 5_000
QUARANTINE_COST_NS = 60
REPLAY_COST_NS = 50_000

DOUBLETAKE_OVERHEAD_EVENTS = (
    EVENT_DT_CANARY_SET,
    EVENT_DT_SWEEP,
    EVENT_DT_EPOCH,
    EVENT_DT_QUARANTINE,
    EVENT_DT_REPLAY,
)


@dataclass(frozen=True)
class DoubleTakeConfig:
    """Tunables: epoch cadence and quarantine depth."""

    epoch_every_allocs: int = 64
    quarantine_blocks: int = 256

    def __post_init__(self):
        if self.epoch_every_allocs < 1:
            raise ReproError("epoch_every_allocs must be >= 1")
        if self.quarantine_blocks < 0:
            raise ReproError("quarantine_blocks must be >= 0")


@dataclass
class _Block:
    address: int
    real: int
    size: int
    allocation_context: Tuple[str, ...]
    thread_id: int
    deallocation_context: Tuple[str, ...] = ()


class DoubleTakeRuntime:
    """Interposes on the heap; detection happens at epoch boundaries.

    Pass ``watch`` (faulted word addresses from a previous run's
    evidence) to run in *replay* mode: a CPU access hook records the
    first write into each watched word and the sweep's reports carry
    that precise access context.
    """

    def __init__(
        self,
        machine: Machine,
        interposer,
        config: Optional[DoubleTakeConfig] = None,
        seed: int = 0,
        watch: Tuple[int, ...] = (),
        evidence_store=None,
    ):
        self.machine = machine
        self.config = config or DoubleTakeConfig()
        self._raw: RawHeap = interposer.raw
        self._interposer = interposer
        self._backtracer = Backtracer(machine.ledger)
        self._live: Dict[int, _Block] = {}
        self._quarantined: Dict[int, _Block] = {}
        self._quarantine_fifo: Deque[int] = deque()
        # fault word address -> report kind, recorded once per word.
        self.evidence: Dict[int, str] = {}
        self.reports: List[DetectorReport] = []
        self.epochs = 0
        self.allocation_count = 0
        self._allocs_in_epoch = 0
        self._evidence_store = evidence_store
        self._watch: Tuple[int, ...] = tuple(sorted(watch))
        self._access_hits: Dict[int, Tuple[str, ...]] = {}
        self._hooked = False
        if self._watch:
            machine.cpu.add_access_hook(self._replay_hook)
            self._hooked = True
            machine.ledger.record(EVENT_DT_REPLAY, nanos_each=REPLAY_COST_NS)
        interposer.preload(self)

    # ------------------------------------------------------------------
    # HeapLibrary surface
    # ------------------------------------------------------------------
    def malloc(self, thread: SimThread, size: int) -> int:
        self.allocation_count += 1
        real = self._raw.malloc(thread, size + LEAD_PAD + WORD_BYTES)
        address = real + LEAD_PAD
        memory = self.machine.memory
        memory.write_word(address - WORD_BYTES, CANARY_WORD)
        memory.write_word(address + size, CANARY_WORD)
        self.machine.ledger.record(
            EVENT_DT_CANARY_SET, nanos_each=CANARY_SET_COST_NS
        )
        self._live[address] = _Block(
            address=address,
            real=real,
            size=size,
            allocation_context=self._frames_of(thread),
            thread_id=thread.tid,
        )
        self._allocs_in_epoch += 1
        if self._allocs_in_epoch >= self.config.epoch_every_allocs:
            self._close_epoch()
        return address

    def memalign(self, thread: SimThread, alignment: int, size: int) -> int:
        self.allocation_count += 1
        return self._raw.memalign(thread, alignment, size)

    def free(self, thread: SimThread, address: int) -> None:
        block = self._live.pop(address, None)
        if block is None:
            if address in self._quarantined:
                # Second free of a quarantined block: deterministic
                # double-free, reported non-fatally with both stacks.
                stale = self._quarantined[address]
                self.reports.append(
                    DetectorReport(
                        arm=ARM_DOUBLETAKE,
                        kind="double-free",
                        fault_address=address,
                        object_address=address,
                        object_size=stale.size,
                        thread_id=thread.tid,
                        allocation_context=stale.allocation_context,
                        deallocation_context=stale.deallocation_context,
                    )
                )
                return
            self._raw.free(thread, address)
            return
        block.deallocation_context = self._frames_of(thread)
        # Delayed free: smear the body so any later write shows.
        self.machine.memory.write_bytes(
            address, _FILL * block.size
        )
        self.machine.ledger.record(
            EVENT_DT_QUARANTINE, nanos_each=QUARANTINE_COST_NS
        )
        self._quarantined[address] = block
        self._quarantine_fifo.append(address)
        while len(self._quarantine_fifo) > self.config.quarantine_blocks:
            evicted = self._quarantined.pop(self._quarantine_fifo.popleft())
            self._sweep_block(evicted, quarantined=True)
            self._raw.free(thread, evicted.real)

    def usable_size(self, address: int) -> int:
        block = self._live.get(address)
        if block is not None:
            return block.size
        return self._raw.usable_size(address)

    @staticmethod
    def _frames_of(thread: SimThread) -> Tuple[str, ...]:
        return tuple(str(frame) for frame in thread.call_stack)

    # ------------------------------------------------------------------
    # Epoch boundary: the evidence sweep
    # ------------------------------------------------------------------
    def _close_epoch(self) -> None:
        self.epochs += 1
        self._allocs_in_epoch = 0
        self.machine.ledger.record(EVENT_DT_EPOCH, nanos_each=EPOCH_COST_NS)
        for block in list(self._live.values()):
            self._sweep_block(block, quarantined=False)
        for block in list(self._quarantined.values()):
            self._sweep_block(block, quarantined=True)

    def _sweep_block(self, block: _Block, quarantined: bool) -> None:
        memory = self.machine.memory
        self.machine.ledger.record(EVENT_DT_SWEEP, nanos_each=SWEEP_COST_NS)
        lead = block.address - WORD_BYTES
        trail = block.address + block.size
        if memory.read_word(trail) != CANARY_WORD:
            self._record("buffer-overflow-write", trail, block)
        if memory.read_word(lead) != CANARY_WORD:
            self._record("buffer-underflow-write", lead, block)
        if quarantined:
            # The first byte that lost the fill: one C-level strip, as
            # the quarantine is re-swept every epoch.
            body = memory.read_bytes(block.address, block.size)
            offset = len(body) - len(body.lstrip(_FILL))
            if offset < len(body):
                fault = block.address + (offset & ~(WORD_BYTES - 1))
                self._record("use-after-free-write", fault, block)

    def _record(self, kind: str, fault: int, block: _Block) -> None:
        if fault in self.evidence:
            return
        self.evidence[fault] = kind
        self.reports.append(
            DetectorReport(
                arm=ARM_DOUBLETAKE,
                kind=kind,
                fault_address=fault,
                object_address=block.address,
                object_size=block.size,
                thread_id=block.thread_id,
                allocation_context=block.allocation_context,
                access_context=self._access_hits.get(fault, ()),
                deallocation_context=block.deallocation_context,
            )
        )

    # ------------------------------------------------------------------
    # Replay attribution
    # ------------------------------------------------------------------
    def _replay_hook(
        self, thread: SimThread, address: int, size: int, kind
    ) -> None:
        if kind != AccessKind.WRITE:
            return
        for fault in self._watch:
            if fault in self._access_hits:
                continue
            if address < fault + WORD_BYTES and address + size > fault:
                self._access_hits[fault] = tuple(
                    str(frame) for frame in thread.call_stack
                )

    def evidence_signatures(self) -> Tuple[str, ...]:
        """Stable signatures for the EvidenceStore (dedupe/persist)."""
        return tuple(
            f"doubletake:{kind}:{fault:#x}"
            for fault, kind in sorted(self.evidence.items())
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def detected(self) -> bool:
        return bool(self.reports)

    def shutdown(self) -> None:
        """Final epoch boundary, then tear down the interposition."""
        self._close_epoch()
        if self._evidence_store is not None and self.evidence:
            self._evidence_store.merge(self.evidence_signatures())
        if self._hooked:
            self.machine.cpu.remove_access_hook(self._replay_hook)
            self._hooked = False
        self._interposer.unload()
