"""The Signal Handling Unit (§III-D).

Registers the ``SIGTRAP`` handler (sigaction with ``sa_sigaction``
semantics, so the fd arrives in ``siginfo_t``), identifies which
watchpoint fired by comparing the delivered fd against each saved fd
one-by-one, and emits a dual-context :class:`OverflowReport`: the
faulting statement's full backtrace (taken *in the faulting thread*,
which is why Fig. 3 routes the signal with ``F_SETOWN``) plus the
allocation context stored with the watchpoint.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.callstack.backtrace import Backtracer
from repro.core.reporting import (
    KIND_OVER_READ,
    KIND_OVER_WRITE,
    OverflowReport,
    ReportSink,
    SOURCE_WATCHPOINT,
)
from repro.core.sampling import observe
from repro.core.watchpoints import WatchedObject, WatchpointManagementUnit
from repro.machine.cpu import AccessKind
from repro.machine.signals import SIGTRAP, SigInfo, SignalTable
from repro.machine.threads import SimThread


class SignalHandlingUnit:
    """Turns watchpoint SIGTRAPs into overflow reports."""

    def __init__(
        self,
        signals: SignalTable,
        wmu: WatchpointManagementUnit,
        backtracer: Backtracer,
        clock,
        sink: ReportSink,
    ):
        self._signals = signals
        self._wmu = wmu
        self._backtracer = backtracer
        self._clock = clock
        self._sink = sink
        # One report per (allocation context, faulting site): a loop that
        # walks past the boundary fires the watchpoint on every
        # iteration, but users need one root cause, not a flood.
        self._reported: Set[Tuple[int, int]] = set()
        self.traps_handled = 0
        self.traps_ignored = 0
        # The handler must be registered BEFORE any watchpoint is
        # installed (§III-C1: "Before installing watchpoints, the signal
        # handler should be set up correctly").
        signals.sigaction(SIGTRAP, self._handle)

    # ------------------------------------------------------------------
    # The SIGTRAP handler
    # ------------------------------------------------------------------
    def _handle(self, signo: int, info: SigInfo, thread: SimThread) -> None:
        watched = self._wmu.find_by_fd(info.si_fd)
        if watched is None:
            # A trap from a watchpoint torn down concurrently; nothing to
            # attribute it to.
            self.traps_ignored += 1
            return
        self.traps_handled += 1
        self._report(watched, info, thread)

    def _report(
        self, watched: WatchedObject, info: SigInfo, thread: SimThread
    ) -> None:
        frames = self._backtracer.full_frames(thread.call_stack)
        fault_site_ra = frames[0].return_address if frames else 0
        dedup_key = (id(watched.record), fault_site_ra)
        # Observed overflows pin the context at 100% and mark it for
        # persistence — "all allocation calling contexts observed to
        # have overflows are written to persistent storage" (§IV-B).
        observe(watched.record)
        if dedup_key in self._reported:
            return
        self._reported.add(dedup_key)
        kind = (
            KIND_OVER_READ if info.access_kind == AccessKind.READ else KIND_OVER_WRITE
        )
        report = OverflowReport(
            kind=kind,
            source=SOURCE_WATCHPOINT,
            fault_address=info.fault_address,
            object_address=watched.object_address,
            object_size=watched.object_size,
            thread_id=thread.tid,
            time_ns=self._clock.now_ns,
            allocation_context=watched.record.context,
            access_return_addresses=tuple(f.return_address for f in frames),
            access_frames=frames,
        )
        self._sink(report)
