"""Exception hierarchy shared across the repro package.

Every error raised by the simulated machine, the heap substrate, or the
CSOD runtime derives from :class:`ReproError` so that callers can catch
simulation-level failures without masking ordinary Python bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class MachineError(ReproError):
    """Base class for simulated-machine errors."""


class SegmentationFault(MachineError):
    """An access touched an address that is not mapped.

    Mirrors a SIGSEGV: the simulated process is expected to die unless a
    handler was registered for ``SIGSEGV``.
    """

    def __init__(self, address: int, size: int = 1, kind: str = "access"):
        self.address = address
        self.size = size
        self.kind = kind
        super().__init__(
            f"segmentation fault: {kind} of {size} byte(s) at {address:#x}"
        )


class DebugRegisterError(MachineError):
    """Raised when the 4-slot debug-register file is misused."""


class PerfEventError(MachineError):
    """Raised for invalid perf_event fd operations (bad fd, double close)."""


class InvalidSignalError(MachineError):
    """Raised when a signal number outside the supported set is used."""


class ThreadError(MachineError):
    """Raised for invalid simulated-thread operations."""


class HeapError(ReproError):
    """Base class for allocator errors."""


class OutOfMemoryError(HeapError):
    """The simulated arena cannot satisfy the request."""

    def __init__(self, requested: int):
        self.requested = requested
        super().__init__(f"simulated heap exhausted: requested {requested} bytes")


class InvalidFreeError(HeapError):
    """free() was called with a pointer the allocator does not own."""

    def __init__(self, address: int, reason: str = "not an allocated block"):
        self.address = address
        self.reason = reason
        super().__init__(f"invalid free of {address:#x}: {reason}")


class DoubleFreeError(InvalidFreeError):
    """free() was called twice on the same block."""

    def __init__(self, address: int):
        super().__init__(address, reason="double free")


class CSODError(ReproError):
    """Base class for errors in the CSOD runtime itself."""


class WorkloadError(ReproError):
    """A workload was configured or driven incorrectly."""


class CampaignCancelled(ReproError):
    """A fleet campaign was stopped before all executions ran.

    Raised by :class:`repro.fleet.pool.FleetPool` when a stop request
    (client cancellation, service shutdown, Ctrl-C) interrupts a wave.
    The pool has cancelled or dropped the wave's chunks and released
    its lease before this propagates (terminating the shared workers
    when no other campaign holds them), so catching it never leaks
    work or workers.
    """


class ServiceError(ReproError):
    """A campaign service request was malformed or cannot be served."""


class ExperimentError(ReproError):
    """An experiment driver was configured incorrectly."""
