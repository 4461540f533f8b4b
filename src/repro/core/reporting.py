"""Overflow reports (Fig. 6).

A CSOD report carries *two* calling contexts: the context of the
overflowing access (collected by ``backtrace`` inside the signal
handler) and the allocation context of the overflowed object (retrieved
from the watchpoint's metadata).  When symbols are available, each level
prints as ``MODULE/file:line``; stripped modules print raw addresses —
exactly the behaviour of §III-D2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from repro.callstack.contexts import CallingContext
from repro.callstack.frames import Frame
from repro.callstack.symbols import SymbolTable

KIND_OVER_READ = "over-read"
KIND_OVER_WRITE = "over-write"
KIND_DOUBLE_FREE = "double-free"

SOURCE_WATCHPOINT = "watchpoint"
SOURCE_FREE_CANARY = "free-canary"
SOURCE_EXIT_CANARY = "exit-canary"
# Post-hoc diagnosis from the surviving 32-byte object header after
# the allocator aborts on an invalid free (double-free attribution).
SOURCE_HEADER_STATE = "header-state"

# Frames kept by the coarse (triage) signature.  Three levels is deep
# enough to separate allocation wrappers from their callers and shallow
# enough that per-execution stack jitter below the wrapper collapses.
COARSE_SIGNATURE_FRAMES = 3


def coarse_signature_of(
    kind: str,
    allocation_frames,
    access_frames=(),
    top_k: int = COARSE_SIGNATURE_FRAMES,
) -> str:
    """The clustering key shared by reports of one bug.

    Built from the *top-K symbolized frames of the allocation context*
    only: the allocation site identifies the overflowed object, while
    the access side varies with how the bug was caught (a watchpoint
    trap carries the faulting stack, canary evidence carries none) and
    with input-driven jitter deeper in the stack.  ``access_frames`` is
    accepted for signature parity but deliberately unused.
    """
    del access_frames  # identity comes from the allocation side only
    frames = tuple(str(frame) for frame in allocation_frames)[:top_k]
    return kind + "|alloc:" + (">".join(frames) if frames else "-")


@dataclass(frozen=True)
class OverflowReport:
    """One detected buffer overflow."""

    kind: str  # over-read / over-write
    source: str  # watchpoint / free-canary / exit-canary
    fault_address: int
    object_address: int
    object_size: int
    thread_id: int
    time_ns: int
    allocation_context: CallingContext
    access_return_addresses: Tuple[int, ...] = ()
    access_frames: Tuple[Frame, ...] = ()

    def render(self, symbols: Optional[SymbolTable] = None) -> str:
        """Render in the paper's Fig. 6 layout."""
        lines = [f"A buffer {self.kind} problem is detected at:"]
        lines.extend(self._render_access(symbols))
        lines.append("")
        lines.append("This object is allocated at:")
        lines.extend(self._render_context(self.allocation_context, symbols))
        return "\n".join(lines)

    def _render_access(self, symbols: Optional[SymbolTable]) -> list:
        if self.source != SOURCE_WATCHPOINT:
            # Canary evidence has no faulting statement — the overflow is
            # discovered after the fact, at free or exit time.
            return [f"(evidence: corrupted canary found at {self.source})"]
        if not self.access_return_addresses:
            return [f"(access at {self.fault_address:#x})"]
        if symbols is None:
            return [hex(ra) for ra in self.access_return_addresses]
        return symbols.symbolize(self.access_return_addresses)

    @staticmethod
    def _render_context(
        context: CallingContext, symbols: Optional[SymbolTable]
    ) -> list:
        if not context.return_addresses:
            return ["(unknown allocation context)"]
        if symbols is None:
            return [hex(ra) for ra in context.return_addresses]
        return symbols.symbolize(context.return_addresses)

    def signature(self) -> str:
        """A stable identity for fleet-wide deduplication.

        Two reports of the same bug raised by different executions (or
        different machines) must collapse to one signature, so it is
        built from (kind, allocation context, access context) only —
        never from addresses, thread ids, or timestamps, which vary per
        execution.  Source locations are preferred over synthetic
        return addresses for the same reason evidence persistence keys
        on them (see :func:`repro.core.sampling.context_signature`).
        """
        return "|".join(
            (
                self.kind,
                "alloc:" + self._stable_context_lines(
                    self.allocation_context.frames,
                    self.allocation_context.return_addresses,
                ),
                "access:" + self._stable_context_lines(
                    self.access_frames, self.access_return_addresses
                ),
            )
        )

    def coarse_signature(self, top_k: int = COARSE_SIGNATURE_FRAMES) -> str:
        """The triage clustering key: kind + top-K allocation frames.

        Where :meth:`signature` separates every distinct (allocation,
        access) pair — including the same bug caught by a watchpoint
        versus by a corrupted canary — the coarse signature keeps only
        the top-K symbolized allocation frames, so jittered stacks and
        different evidence sources for one bug collapse together.
        Falls back to raw return addresses for stripped modules, same
        as :meth:`signature`.
        """
        frames = self.allocation_context.frames
        if frames:
            return coarse_signature_of(self.kind, frames[:top_k], top_k=top_k)
        addresses = self.allocation_context.return_addresses[:top_k]
        tail = ">".join(hex(ra) for ra in addresses) if addresses else "-"
        return self.kind + "|alloc:" + tail

    @staticmethod
    def _stable_context_lines(frames, return_addresses) -> str:
        if frames:
            return ">".join(frame.site.location() for frame in frames)
        if return_addresses:
            return ">".join(hex(ra) for ra in return_addresses)
        return "-"

    def to_dict(self, symbols: Optional[SymbolTable] = None) -> dict:
        """A JSON-ready form (the crash-backend upload format)."""
        def lines(addresses):
            if symbols is None:
                return [hex(ra) for ra in addresses]
            return symbols.symbolize(addresses)

        return {
            "kind": self.kind,
            "source": self.source,
            "signature": self.signature(),
            "coarse_signature": self.coarse_signature(),
            "fault_address": self.fault_address,
            "object_address": self.object_address,
            "object_size": self.object_size,
            "thread_id": self.thread_id,
            "time_ns": self.time_ns,
            "access_context": lines(self.access_return_addresses),
            "allocation_context": lines(self.allocation_context.return_addresses),
        }

    def summary(self) -> str:
        """One-line form for logs and experiment tallies."""
        top = (
            str(self.access_frames[0])
            if self.access_frames
            else f"{self.fault_address:#x}"
        )
        return (
            f"{self.kind} via {self.source} at {top} "
            f"(object {self.object_address:#x}, {self.object_size}B, "
            f"thread {self.thread_id})"
        )


# Where a unit hands each report it builds (the runtime's report list).
ReportSink = Callable[[OverflowReport], None]
