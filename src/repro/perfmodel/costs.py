"""Calibrated unit costs, collected in one place.

The per-event nanosecond costs live next to the code that charges them
(hash lookup in :mod:`repro.core.context_key`, RNG in
:mod:`repro.core.rng`, syscalls in :mod:`repro.machine.perf_events`,
...).  This module re-exports them for documentation and pins the event
lists that the overhead accounting treats as runtime-attributable.

Calibration targets (all from the paper): ~215 ns of CSOD work per
allocation with evidence mode (~145 ns without), dominated by the
context lookup; ~8 syscalls per watchpoint install/remove pair per
thread at ~0.7 us each; ASan dominated by per-access checks.
"""

from __future__ import annotations

from repro.callstack.backtrace import (
    FULL_UNWIND_BASE_NS,
    FULL_UNWIND_PER_FRAME_NS,
    PEEK_COST_NS,
)
from repro.core.canary import CANARY_CHECK_COST_NS, CANARY_SET_COST_NS
from repro.core.context_key import LOOKUP_COST_NS
from repro.core.rng import RNG_DRAW_COST_NS
from repro.machine.perf_events import SYSCALL_COST_NS
from repro.machine.syscall_cost import (
    EVENT_ASAN_CHECK,
    EVENT_ASAN_POISON,
    EVENT_BACKTRACE_FULL,
    EVENT_CANARY_CHECK,
    EVENT_CANARY_SET,
    EVENT_CLOSE,
    EVENT_CONTEXT_LOOKUP,
    EVENT_FCNTL,
    EVENT_IOCTL,
    EVENT_PERF_EVENT_OPEN,
    EVENT_RNG_DRAW,
)

# One-time CSOD startup: mapping and faulting in the large context hash
# table, RNG and signal-handler setup.  The paper attributes Ferret's
# outlier overhead to initialization amplified by a <5 s runtime.
CSOD_INIT_COST_S = 0.4

# Ledger events whose nanoseconds count as CSOD runtime overhead.
CSOD_OVERHEAD_EVENTS = (
    EVENT_CONTEXT_LOOKUP,
    EVENT_RNG_DRAW,
    EVENT_BACKTRACE_FULL,
    "callstack.peek",
    EVENT_CANARY_SET,
    EVENT_CANARY_CHECK,
    EVENT_PERF_EVENT_OPEN,
    EVENT_FCNTL,
    EVENT_IOCTL,
    EVENT_CLOSE,
)

# Ledger events whose nanoseconds count as ASan allocation-side overhead
# (the access-check side is analytic; see accounting.py).
ASAN_ALLOC_EVENTS = (EVENT_ASAN_POISON, EVENT_ASAN_CHECK)

# Relative extra cost of default (size-scaled) redzones over minimal
# 16-byte ones: more bytes poisoned per allocation plus cache pressure.
ASAN_DEFAULT_REDZONE_FACTOR = 1.10

__all__ = [
    "CSOD_INIT_COST_S",
    "CSOD_OVERHEAD_EVENTS",
    "ASAN_ALLOC_EVENTS",
    "ASAN_DEFAULT_REDZONE_FACTOR",
    "LOOKUP_COST_NS",
    "RNG_DRAW_COST_NS",
    "PEEK_COST_NS",
    "FULL_UNWIND_BASE_NS",
    "FULL_UNWIND_PER_FRAME_NS",
    "CANARY_SET_COST_NS",
    "CANARY_CHECK_COST_NS",
    "SYSCALL_COST_NS",
]
