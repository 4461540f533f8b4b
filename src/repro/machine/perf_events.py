"""A ``perf_event_open`` facade for hardware breakpoints.

This reproduces the exact protocol of the paper's Fig. 3 / Fig. 4:

* ``perf_event_open(attr, tid)`` with ``type = PERF_TYPE_BREAKPOINT``
  returns a file descriptor bound to one thread;
* ``fcntl(fd, F_SETSIG, SIGTRAP)`` selects the delivered signal and
  ``fcntl(fd, F_SETOWN, tid)`` routes it to the accessing thread;
* ``ioctl(fd, PERF_EVENT_IOC_ENABLE)`` arms a debug-register slot on the
  target thread, ``..._DISABLE`` releases it;
* ``close(fd)`` tears the event down.

Every call is charged to the cost ledger, which is how the paper's
"eight system calls per install/remove pair per thread" overhead shows up
in the performance model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import DebugRegisterError, PerfEventError
from repro.machine.debug_registers import (
    HardwareWatchpoint,
    WATCH_READ,
    WATCH_READWRITE,
    WATCH_WRITE,
)
from repro.machine.syscall_cost import (
    CostBundle,
    CostLedger,
    EVENT_CLOSE,
    EVENT_FCNTL,
    EVENT_IOCTL,
    EVENT_PERF_EVENT_OPEN,
    EVENT_SYSCALL,
    EVENT_WATCHPOINT_BATCH,
    QuantumCounter,
)
from repro.machine.threads import SimThread, ThreadRegistry

PERF_TYPE_BREAKPOINT = 5  # matches <linux/perf_event.h>

HW_BREAKPOINT_R = 1
HW_BREAKPOINT_W = 2
HW_BREAKPOINT_RW = HW_BREAKPOINT_R | HW_BREAKPOINT_W

F_SETSIG = "F_SETSIG"
F_SETOWN = "F_SETOWN"
F_SETFL = "F_SETFL"
F_GETFL = "F_GETFL"

PERF_EVENT_IOC_ENABLE = "PERF_EVENT_IOC_ENABLE"
PERF_EVENT_IOC_DISABLE = "PERF_EVENT_IOC_DISABLE"

_BP_KIND = {
    HW_BREAKPOINT_R: WATCH_READ,
    HW_BREAKPOINT_W: WATCH_WRITE,
    HW_BREAKPOINT_RW: WATCH_READWRITE,
}

# Approximate cost of one syscall round-trip on the paper's Xeon testbed.
SYSCALL_COST_NS = 700

# Fused charges for the per-thread Fig. 3 / Fig. 4 sequences.  Nothing
# can observe the virtual clock between the individual syscalls of one
# sequence, so charging the whole run as one bundle yields the same
# ledger counts, per-event nanos, and final clock as the serial records.
_INSTALL_BUNDLE = CostBundle(
    (
        (EVENT_PERF_EVENT_OPEN, 1, SYSCALL_COST_NS),
        (EVENT_FCNTL, 4, SYSCALL_COST_NS),
        (EVENT_IOCTL, 1, SYSCALL_COST_NS),
        (EVENT_SYSCALL, 6, 0),
    )
)
_REMOVE_BUNDLE = CostBundle(
    (
        (EVENT_IOCTL, 1, SYSCALL_COST_NS),
        (EVENT_CLOSE, 1, SYSCALL_COST_NS),
        (EVENT_SYSCALL, 2, 0),
    )
)
# Thread-count-scaled variants, cached: installs hit a handful of
# distinct alive-thread counts over a run.
_INSTALL_SCALED: Dict[int, CostBundle] = {1: _INSTALL_BUNDLE}
_REMOVE_SCALED: Dict[int, CostBundle] = {1: _REMOVE_BUNDLE}


@dataclass(frozen=True, slots=True)
class PerfEventAttr:
    """The subset of ``struct perf_event_attr`` used for watchpoints."""

    type: int = PERF_TYPE_BREAKPOINT
    bp_type: int = HW_BREAKPOINT_RW
    bp_addr: int = 0
    bp_len: int = 8


@dataclass(slots=True)
class PerfEvent:
    """State behind one fd returned by :func:`PerfEventManager.perf_event_open`."""

    fd: int
    attr: PerfEventAttr
    tid: int
    signo: int = 0
    owner_tid: int = -1
    async_notify: bool = False
    enabled: bool = False
    closed: bool = False


class PerfEventManager:
    """Owns the fd table and schedules breakpoints onto debug registers."""

    def __init__(
        self,
        threads: ThreadRegistry,
        ledger: Optional[CostLedger] = None,
        quantum: Optional[QuantumCounter] = None,
    ):
        self._threads = threads
        self._ledger = ledger or CostLedger()
        self._fds = itertools.count(100)  # low fds belong to the "program"
        self._events: Dict[int, PerfEvent] = {}
        # Scheduler-quantum source for batch coalescing.  When present,
        # all batch_install/batch_remove calls issued within one quantum
        # are charged as a single custom-syscall round trip — the kernel
        # would service them in one entry (§V-B's custom syscall taken
        # one step further).  Without one, every batch call is charged.
        self._quantum = quantum
        self._last_batch_quantum = -1
        self.batch_calls = 0
        self.batches_coalesced = 0

    # ------------------------------------------------------------------
    # Syscall surface
    # ------------------------------------------------------------------
    def perf_event_open(self, attr: PerfEventAttr, tid: int) -> int:
        """Create a breakpoint event on thread ``tid``; returns its fd."""
        self._charge(EVENT_PERF_EVENT_OPEN)
        if attr.type != PERF_TYPE_BREAKPOINT:
            raise PerfEventError(f"unsupported perf event type {attr.type}")
        if attr.bp_type not in _BP_KIND:
            raise PerfEventError(f"unsupported bp_type {attr.bp_type}")
        self._threads.get(tid)  # validates the tid
        event = PerfEvent(fd=next(self._fds), attr=attr, tid=tid)
        self._events[event.fd] = event
        return event.fd

    def fcntl(self, fd: int, command: str, value: int = 0) -> int:
        """``F_SETSIG``/``F_SETOWN``/``F_SETFL``/``F_GETFL`` on an event fd."""
        self._charge(EVENT_FCNTL)
        event = self._event(fd)
        if command == F_SETSIG:
            event.signo = value
        elif command == F_SETOWN:
            self._threads.get(value)
            event.owner_tid = value
        elif command == F_SETFL:
            event.async_notify = True
        elif command == F_GETFL:
            return 0
        else:
            raise PerfEventError(f"unsupported fcntl command {command!r}")
        return 0

    def ioctl(self, fd: int, command: str) -> int:
        """Enable or disable the breakpoint behind ``fd``."""
        self._charge(EVENT_IOCTL)
        event = self._event(fd)
        if command == PERF_EVENT_IOC_ENABLE:
            self._enable(event)
        elif command == PERF_EVENT_IOC_DISABLE:
            self._disable(event)
        else:
            raise PerfEventError(f"unsupported ioctl command {command!r}")
        return 0

    def close(self, fd: int) -> None:
        """Tear down the event; disables it first if still enabled."""
        self._charge(EVENT_CLOSE)
        event = self._event(fd)
        if event.enabled:
            self._disable(event)
        event.closed = True
        del self._events[fd]

    # ------------------------------------------------------------------
    # The hypothetical custom syscall (§V-B)
    # ------------------------------------------------------------------
    # The paper: "We could further reduce the performance overhead by
    # combining these system calls into one custom system call, but this
    # requires modification of the underlying OS."  The simulated kernel
    # can be modified; these two entry points do the whole install (or
    # removal) across every target thread for the price of ONE syscall.

    def batch_install(
        self, attr: PerfEventAttr, tids, signo: int
    ) -> Dict[int, int]:
        """Open+configure+enable a watchpoint on all ``tids`` at once.

        Semantically identical to the Fig. 3 sequence per thread
        (including failure if any thread's registers are full), but
        charged as a single syscall round-trip.
        """
        self._charge_batch()
        fds: Dict[int, int] = {}
        try:
            for tid in tids:
                self._threads.get(tid)
                event = PerfEvent(fd=next(self._fds), attr=attr, tid=tid)
                event.signo = signo
                event.owner_tid = tid
                event.async_notify = True
                self._events[event.fd] = event
                self._enable(event)
                fds[tid] = event.fd
        except DebugRegisterError:
            # All-or-nothing, like a real syscall would be.
            self.batch_remove(fds.values(), _charge=False)
            raise
        return fds

    def batch_remove(self, fds, _charge: bool = True) -> None:
        """Disable+close a set of event fds for one syscall."""
        if _charge:
            self._charge_batch()
        for fd in list(fds):
            event = self._events.get(fd)
            if event is None or event.closed:
                continue
            if event.enabled:
                self._disable(event)
            event.closed = True
            del self._events[fd]

    # ------------------------------------------------------------------
    # The fused hot path (same syscalls, bundle-charged)
    # ------------------------------------------------------------------
    # Unlike batch_install/batch_remove, these do NOT model the custom
    # syscall: they perform the ordinary Fig. 3 / Fig. 4 per-thread
    # sequences and charge exactly what the serial perf_event_open /
    # fcntl / ioctl / close calls would have — merged into one
    # precompiled bundle per call, because no observation point can fall
    # between the syscalls of one sequence.

    def install_fast(self, attr: PerfEventAttr, tids, signo: int) -> Dict[int, int]:
        """The Fig. 3 install sequence on every tid, bundle-charged."""
        n = len(tids)
        bundle = _INSTALL_SCALED.get(n)
        if bundle is None:
            bundle = _INSTALL_SCALED[n] = _INSTALL_BUNDLE.scaled(n)
        self._ledger.charge_bundle(bundle)
        events = self._events
        fds: Dict[int, int] = {}
        for tid in tids:
            event = PerfEvent(fd=next(self._fds), attr=attr, tid=tid)
            event.signo = signo
            event.owner_tid = tid
            event.async_notify = True
            events[event.fd] = event
            self._enable(event)
            fds[tid] = event.fd
        return fds

    def remove_fast(self, fds) -> None:
        """The Fig. 4 remove sequence for each fd, bundle-charged."""
        n = len(fds)
        if not n:
            return
        bundle = _REMOVE_SCALED.get(n)
        if bundle is None:
            bundle = _REMOVE_SCALED[n] = _REMOVE_BUNDLE.scaled(n)
        self._ledger.charge_bundle(bundle)
        events = self._events
        for fd in fds:
            event = events.get(fd)
            if event is None or event.closed:
                continue
            if event.enabled:
                self._disable(event)
            event.closed = True
            del events[fd]

    # ------------------------------------------------------------------
    # Introspection (used by the CPU and by tests)
    # ------------------------------------------------------------------
    def event(self, fd: int) -> PerfEvent:
        """Look up a live event by fd (for tests and the signal unit)."""
        return self._event(fd)

    def enabled_event_count(self) -> int:
        return sum(1 for e in self._events.values() if e.enabled)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _event(self, fd: int) -> PerfEvent:
        event = self._events.get(fd)
        if event is None or event.closed:
            raise PerfEventError(f"bad perf event fd {fd}")
        return event

    def _enable(self, event: PerfEvent) -> None:
        if event.enabled:
            return
        thread = self._threads.get(event.tid)
        watchpoint = HardwareWatchpoint(
            address=event.attr.bp_addr,
            length=event.attr.bp_len,
            kind=_BP_KIND[event.attr.bp_type],
            cookie=event.fd,
        )
        # Arming can fail when all four registers are busy; surface the
        # hardware error unchanged so the runtime's policies deal with it.
        thread.debug_registers.arm(watchpoint)
        event.enabled = True

    def _disable(self, event: PerfEvent) -> None:
        if not event.enabled:
            return
        thread = self._threads.get(event.tid)
        if not thread.debug_registers.disarm_cookie(event.fd):
            raise DebugRegisterError(
                f"perf event fd {event.fd} enabled but not armed on tid {event.tid}"
            )
        event.enabled = False

    def _charge(self, event_name: str) -> None:
        self._ledger.record(event_name, nanos_each=SYSCALL_COST_NS)
        self._ledger.record(EVENT_SYSCALL)

    def _charge_batch(self) -> None:
        """Charge one batched round trip, coalescing within a quantum."""
        self.batch_calls += 1
        quantum = self._quantum
        if quantum is not None:
            index = quantum.index
            if index == self._last_batch_quantum:
                self.batches_coalesced += 1
                return
            self._last_batch_quantum = index
        self._charge(EVENT_WATCHPOINT_BATCH)
