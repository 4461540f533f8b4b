"""The Watchpoint Management Unit (§III-C).

Owns CSOD's logical view of the four hardware watchpoints and drives
their installation, replacement, and removal through the machine's
``perf_event_open`` protocol — one event per watchpoint *per alive
thread*, because "there is no way to know which thread will cause an
overflow later" (Fig. 3).

Installation performs, per thread: ``perf_event_open`` + three
``fcntl``\\ s (``F_GETFL``/``F_SETFL``+``F_SETSIG``+``F_SETOWN``) +
``ioctl(ENABLE)``; removal performs ``ioctl(DISABLE)`` + ``close`` — the
"eight system calls ... for each thread" the paper's overhead analysis
counts (§V-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import CSODConfig, HOTPATH_BATCHED
from repro.core.policies import choose_slot, next_pointer
from repro.core.rng import PerThreadRNG
from repro.core.sampling import ContextRecord, SamplingManagementUnit
from repro.machine.clock import VirtualClock
from repro.machine.debug_registers import NUM_USABLE_DEBUG_REGISTERS
from repro.machine.perf_events import (
    F_GETFL,
    F_SETFL,
    F_SETOWN,
    F_SETSIG,
    HW_BREAKPOINT_RW,
    PERF_EVENT_IOC_DISABLE,
    PERF_EVENT_IOC_ENABLE,
    PerfEventAttr,
    PerfEventManager,
)
from repro.machine.signals import SIGTRAP
from repro.machine.syscall_cost import (
    CostLedger,
    EVENT_WATCH_INSTALL,
    EVENT_WATCH_REMOVE,
)
from repro.machine.threads import SimThread, ThreadRegistry


@dataclass(slots=True)
class WatchedObject:
    """Everything CSOD tracks for one watched heap object."""

    object_address: int
    object_size: int
    watch_address: int  # the boundary/canary word
    record: ContextRecord
    install_time_ns: int
    # The probability the object was sampled with, frozen at
    # installation.  Only diagnostics read it: replacement ages the
    # live (already watch-halved) context probability instead
    # (repro.core.policies.slot_probability).  Ageing this frozen value
    # moves both Table II and Table IV further from the paper, so it
    # does not explain Table IV's watched-times overshoot.
    install_probability: float = 0.0
    slot_index: int = -1
    # One perf-event fd per alive thread the watchpoint is armed on.
    fds: Dict[int, int] = field(default_factory=dict)


class WatchpointManagementUnit:
    """Installation, replacement, and removal of the four watchpoints."""

    def __init__(
        self,
        config: CSODConfig,
        perf: PerfEventManager,
        threads: ThreadRegistry,
        clock: VirtualClock,
        sampling: SamplingManagementUnit,
        rng: PerThreadRNG,
        ledger: CostLedger,
    ):
        self._config = config
        self._perf = perf
        self._threads = threads
        self._clock = clock
        self._sampling = sampling
        self._rng = rng
        self._ledger = ledger
        self._slots: List[Optional[WatchedObject]] = [
            None
        ] * NUM_USABLE_DEBUG_REGISTERS
        # object address -> WatchedObject, mirroring the occupied slots:
        # the per-deallocation "is this object watched?" probe is one
        # dict hit instead of a four-slot scan.
        self._by_address: Dict[int, WatchedObject] = {}
        # Near-FIFO's circular pointer (repro.core.policies.next_pointer).
        self._pointer = 0
        # The batched hot path charges each Fig. 3/Fig. 4 sequence as one
        # precompiled bundle; the legacy path replays it syscall by
        # syscall.  Ledger totals are identical either way.
        self._fast = config.hotpath == HOTPATH_BATCHED
        self.install_count = 0
        self.replace_count = 0
        self.declined_count = 0
        self.fd_comparisons = 0  # signal-handler fd matching work
        # Arm/disarm decisions are batched per scheduler quantum: the
        # alive-tid list every installation targets is recomputed only
        # when thread churn invalidates it, not per allocation.
        self._alive_tids: Optional[List[int]] = None
        self._alive_list: List[SimThread] = []
        # Watchpoints must outlive thread churn: arm on every new thread.
        threads.on_create(self._on_thread_created)
        threads.on_exit(self._on_thread_exited)

    # ------------------------------------------------------------------
    # Installation entry point
    # ------------------------------------------------------------------
    def try_watch(
        self,
        thread: SimThread,
        object_address: int,
        object_size: int,
        watch_address: int,
        record: ContextRecord,
        probability_checked: bool,
    ) -> Optional[WatchedObject]:
        """Attempt to watch an object; returns the watch on success.

        ``probability_checked`` is True when the caller already passed a
        sampling draw; a free slot is used unconditionally either way
        ("installation due to availability", §III-B2), but replacement is
        attempted only for candidates that passed the draw.  The slot
        decision is :func:`repro.core.policies.choose_slot`, observed at
        the clock's value on entry.
        """
        slots = self._slots
        index = choose_slot(
            slots,
            record,
            probability_checked,
            self._clock.now_ns,
            self._config,
            self._pointer,
            self._rng,
            thread.tid,
        )
        if index < 0:
            if probability_checked:
                self.declined_count += 1
            return None
        victim = slots[index]
        if victim is not None:
            self._remove(victim)
            self.replace_count += 1
            self._pointer = next_pointer(index)
        return self._install(
            index, object_address, object_size, watch_address, record
        )

    # ------------------------------------------------------------------
    # Deallocation / lookup
    # ------------------------------------------------------------------
    def on_deallocation(self, object_address: int) -> bool:
        """Remove the watchpoint if this object is being watched."""
        watched = self._by_address.get(object_address)
        if watched is None:
            return False
        self._remove(watched)
        return True

    def find_by_object_address(self, object_address: int) -> Optional[WatchedObject]:
        return self._by_address.get(object_address)

    def find_by_fd(self, fd: int) -> Optional[WatchedObject]:
        """Identify the fired watchpoint by fd, one comparison at a time.

        This mirrors §III-D1: CSOD "compares the current file descriptor
        with each of these saved file descriptors one-by-one".
        """
        for slot in self._slots:
            if slot is None:
                continue
            for saved_fd in slot.fds.values():
                self.fd_comparisons += 1
                if saved_fd == fd:
                    return slot
        return None

    def watched_objects(self) -> List[WatchedObject]:
        return [slot for slot in self._slots if slot is not None]

    def free_slots(self) -> int:
        return sum(1 for slot in self._slots if slot is None)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _install(
        self,
        slot_index: int,
        object_address: int,
        object_size: int,
        watch_address: int,
        record: ContextRecord,
    ) -> WatchedObject:
        watched = WatchedObject(
            object_address=object_address,
            object_size=object_size,
            watch_address=watch_address,
            record=record,
            install_time_ns=self._clock.now_ns,
            # Captured before the post-watch halving: the probability the
            # object was actually sampled with.
            install_probability=self._sampling.effective_probability(record),
            slot_index=slot_index,
        )
        if self._config.batched_syscalls:
            attr = PerfEventAttr(
                bp_type=HW_BREAKPOINT_RW, bp_addr=watched.watch_address, bp_len=8
            )
            watched.fds = self._perf.batch_install(attr, self.alive_tids(), SIGTRAP)
        elif self._fast:
            attr = PerfEventAttr(
                bp_type=HW_BREAKPOINT_RW, bp_addr=watched.watch_address, bp_len=8
            )
            watched.fds = self._perf.install_fast(attr, self.alive_tids(), SIGTRAP)
        else:
            for thread in self._threads.alive_threads():
                self._arm_on_thread(watched, thread)
        self._slots[slot_index] = watched
        self._by_address[object_address] = watched
        self._sampling.on_watched(record)
        self.install_count += 1
        self._ledger.record(EVENT_WATCH_INSTALL)
        return watched

    def _arm_on_thread(self, watched: WatchedObject, thread: SimThread) -> None:
        """The per-thread installation sequence of Fig. 3."""
        attr = PerfEventAttr(
            bp_type=HW_BREAKPOINT_RW, bp_addr=watched.watch_address, bp_len=8
        )
        fd = self._perf.perf_event_open(attr, thread.tid)
        flags = self._perf.fcntl(fd, F_GETFL)
        self._perf.fcntl(fd, F_SETFL, flags)  # O_ASYNC
        self._perf.fcntl(fd, F_SETSIG, SIGTRAP)
        self._perf.fcntl(fd, F_SETOWN, thread.tid)
        self._perf.ioctl(fd, PERF_EVENT_IOC_ENABLE)
        watched.fds[thread.tid] = fd

    def _remove(self, watched: WatchedObject) -> None:
        """The removal sequence of Fig. 4, for all alive threads."""
        threads = self._threads
        if self._config.batched_syscalls:
            self._perf.batch_remove(
                fd
                for tid, fd in watched.fds.items()
                if threads.get(tid).alive
            )
            watched.fds.clear()
        elif self._fast:
            self._perf.remove_fast(
                [
                    fd
                    for tid, fd in watched.fds.items()
                    if threads.get(tid).alive
                ]
            )
            watched.fds.clear()
        for tid, fd in list(watched.fds.items()):
            if threads.get(tid).alive:
                self._perf.ioctl(fd, PERF_EVENT_IOC_DISABLE)
                self._perf.close(fd)
            watched.fds.pop(tid, None)
        self._slots[watched.slot_index] = None
        self._by_address.pop(watched.object_address, None)
        watched.slot_index = -1
        self._ledger.record(EVENT_WATCH_REMOVE)

    def alive_tids(self) -> List[int]:
        """The tids every installation targets, cached across the quantum.

        Recomputed only when thread creation/exit invalidates it —
        allocation-dense stretches between scheduling events reuse one
        list instead of re-walking the registry per install.
        """
        tids = self._alive_tids
        if tids is None:
            self._alive_list = self._threads.alive_threads()
            tids = self._alive_tids = [t.tid for t in self._alive_list]
        return tids

    def alive_threads_cached(self) -> List[SimThread]:
        """The alive :class:`SimThread` objects behind :meth:`alive_tids`."""
        if self._alive_tids is None:
            self.alive_tids()
        return self._alive_list

    def _on_thread_created(self, thread: SimThread) -> None:
        self._alive_tids = None
        # pthread_create interposition: arm every active watchpoint on
        # the newcomer so it cannot overflow unobserved.
        for slot in self._slots:
            if slot is None:
                continue
            if self._config.batched_syscalls:
                attr = PerfEventAttr(
                    bp_type=HW_BREAKPOINT_RW, bp_addr=slot.watch_address, bp_len=8
                )
                slot.fds.update(
                    self._perf.batch_install(attr, [thread.tid], SIGTRAP)
                )
            elif self._fast:
                attr = PerfEventAttr(
                    bp_type=HW_BREAKPOINT_RW, bp_addr=slot.watch_address, bp_len=8
                )
                slot.fds.update(
                    self._perf.install_fast(attr, [thread.tid], SIGTRAP)
                )
            else:
                self._arm_on_thread(slot, thread)

    def _on_thread_exited(self, thread: SimThread) -> None:
        self._alive_tids = None
        # The kernel tears events down with the thread; drop our fds.
        for slot in self._slots:
            if slot is not None:
                fd = slot.fds.pop(thread.tid, None)
                if fd is not None:
                    try:
                        self._perf.close(fd)
                    except Exception:
                        pass

    def remove_all(self) -> None:
        """Tear down every watchpoint (used at runtime shutdown)."""
        for slot in list(self._slots):
            if slot is not None:
                self._remove(slot)

    def check_invariants(self) -> None:
        """Assert the WMU's view matches the hardware state.

        For every alive thread: the armed debug registers are exactly
        the fds of the occupied logical slots, each watching the slot's
        boundary address.  Used by the stress tests.
        """
        occupied = [slot for slot in self._slots if slot is not None]
        for watched in occupied:
            assert watched.slot_index >= 0
        for thread in self._threads.alive_threads():
            armed = {wp.cookie: wp for wp in thread.debug_registers.armed()}
            expected = {
                watched.fds[thread.tid]: watched
                for watched in occupied
                if thread.tid in watched.fds
            }
            assert set(armed) == set(expected), (
                f"tid {thread.tid}: armed fds {sorted(armed)} != "
                f"expected {sorted(expected)}"
            )
            for fd, watched in expected.items():
                assert armed[fd].address == watched.watch_address
