"""The assembled CSOD runtime (Fig. 1).

:class:`CSODRuntime` wires the six units over a simulated machine and
preloads itself into the process's allocation path — the ``LD_PRELOAD``
moment.  After the workload runs, ``shutdown()`` performs the exit-time
canary sweep and persistence; ``reports`` then holds every detected
overflow and ``stats()`` the counters the experiment drivers consume
(contexts seen, allocations, watched-times, syscall counts, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.callstack.backtrace import Backtracer
from repro.callstack.contexts import ContextInterner
from repro.core.canary import CanaryManagementUnit
from repro.core.config import CSODConfig, HOTPATH_BATCHED
from repro.core.context_key import ContextHashTable
from repro.core.evidence import load_persisted
from repro.core.fastpath import FastAllocDealloc
from repro.core.monitor import AllocDeallocMonitoringUnit
from repro.core.reporting import (
    KIND_DOUBLE_FREE,
    OverflowReport,
    SOURCE_HEADER_STATE,
    SOURCE_WATCHPOINT,
)
from repro.core.rng import PerThreadRNG
from repro.core.sampling import SamplingManagementUnit
from repro.core.signal_unit import SignalHandlingUnit
from repro.core.termination import TerminationHandlingUnit
from repro.core.watchpoints import WatchpointManagementUnit
from repro.heap.interpose import LibraryInterposer
from repro.machine.machine import Machine
from repro.machine.threads import SimThread


@dataclass
class CSODStats:
    """Counters for the evaluation tables."""

    allocations: int
    frees: int
    contexts: int
    watched_times: int  # Table IV's "WT" column
    replacements: int
    declined: int
    traps_handled: int
    canary_corruptions: int
    live_objects: int


class CSODRuntime:
    """The drop-in detection library."""

    def __init__(
        self,
        machine: Machine,
        interposer: LibraryInterposer,
        config: Optional[CSODConfig] = None,
        seed: int = 0,
    ):
        self.machine = machine
        self.config = config or CSODConfig()
        self.reports: List[OverflowReport] = []

        ledger = machine.ledger
        raw = interposer.raw
        self._interposer = interposer

        self.rng = PerThreadRNG(seed, ledger)
        self.backtracer = Backtracer(ledger)
        self.interner = ContextInterner(self.backtracer)
        self.sampling = SamplingManagementUnit(
            self.config,
            machine.clock,
            self.rng,
            self.interner,
            ContextHashTable(ledger=ledger),
        )
        self.wmu = WatchpointManagementUnit(
            self.config,
            machine.perf,
            machine.threads,
            machine.clock,
            self.sampling,
            self.rng,
            ledger,
        )
        # Signal handler before any watchpoint can be installed (§III-C1).
        self.signal_unit = SignalHandlingUnit(
            machine.signals,
            self.wmu,
            self.backtracer,
            machine.clock,
            self.reports.append,
        )
        self.canary: Optional[CanaryManagementUnit] = None
        self.termination: Optional[TerminationHandlingUnit] = None
        if self.config.evidence_enabled:
            self.canary = CanaryManagementUnit(machine, raw, self.rng)
            self.termination = TerminationHandlingUnit(
                machine.signals,
                self.canary,
                self.sampling,
                machine.clock,
                self.reports.append,
                self.config.persistence_path,
            )
            # Load evidence recorded by previous executions: those
            # contexts start at 100% and are watched from the first
            # allocation onward.
            persisted = load_persisted(self.config.persistence_path)
            self.sampling.preload_known_bad(persisted)
        # The batched driver covers the full (evidence + watchpoints)
        # configuration; reduced configurations use the legacy unit
        # regardless of the hotpath flag.
        monitor_cls = AllocDeallocMonitoringUnit
        if (
            self.config.hotpath == HOTPATH_BATCHED
            and self.config.evidence_enabled
            and self.config.watchpoints_enabled
        ):
            monitor_cls = FastAllocDealloc
        self.monitor = monitor_cls(
            self.config,
            raw,
            self.sampling,
            self.wmu,
            self.canary,
            self.rng,
            machine.clock,
            self.reports.append,
        )
        interposer.preload(self.monitor)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> List[OverflowReport]:
        """End-of-execution duties: exit sweep, persistence, teardown."""
        exit_reports: List[OverflowReport] = []
        if self.termination is not None:
            exit_reports = self.termination.on_exit()
        self.wmu.remove_all()
        self._interposer.unload()
        return exit_reports

    # ------------------------------------------------------------------
    # Post-hoc diagnosis
    # ------------------------------------------------------------------
    def diagnose_invalid_free(self, thread: SimThread, address: int) -> bool:
        """Attribute an allocator abort on ``address`` to a double free.

        Called after the underlying allocator raised
        :class:`~repro.errors.InvalidFreeError` (the crash-handler
        moment).  In evidence mode the 32-byte header written before
        the object survives the first free — release is pure
        bookkeeping, the words are never scrubbed — so an intact
        identifier at ``address - 32`` proves the pointer was a live
        CSOD object once and this free is its second.  The header's
        context word then recovers the allocation context.  Without
        evidence mode there is no header and no attribution.
        """
        if self.canary is None:
            return False
        from repro.callstack.contexts import CallingContext
        from repro.errors import MachineError
        from repro.heap import layout

        try:
            words = layout.read_header_words(self.machine.memory, address)
        except MachineError:
            return False
        if words[3] != layout.HEADER_IDENTIFIER:
            return False
        context_ptr = words[2]
        allocation_context = CallingContext(
            return_addresses=(context_ptr,)
        )
        for record in self.sampling.records():
            if record.key.first_level_ra == context_ptr:
                allocation_context = record.context
                break
        self.reports.append(
            OverflowReport(
                kind=KIND_DOUBLE_FREE,
                source=SOURCE_HEADER_STATE,
                fault_address=address,
                object_address=address,
                object_size=words[1],
                thread_id=thread.tid,
                time_ns=self.machine.clock.now_ns,
                allocation_context=allocation_context,
            )
        )
        return True

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def detected(self) -> bool:
        """Whether any overflow was detected this execution."""
        return bool(self.reports)

    @property
    def detected_by_watchpoint(self) -> bool:
        return any(r.source == SOURCE_WATCHPOINT for r in self.reports)

    def stats(self) -> CSODStats:
        return CSODStats(
            allocations=self.monitor.allocation_count,
            frees=self.monitor.free_count,
            contexts=self.sampling.context_count(),
            watched_times=self.wmu.install_count,
            replacements=self.wmu.replace_count,
            declined=self.wmu.declined_count,
            traps_handled=self.signal_unit.traps_handled,
            canary_corruptions=(
                self.canary.corruption_count if self.canary else 0
            ),
            live_objects=self.canary.live_count() if self.canary else 0,
        )
