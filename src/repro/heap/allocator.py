"""A first-fit free-list allocator over the simulated arena.

This is the "default Linux library" of the paper's evaluation — the
baseline allocator that applications use directly, and that CSOD/ASan
wrap.  It provides:

* 16-byte-aligned first-fit allocation with block splitting,
* address-ordered free list with coalescing of adjacent free blocks,
  indexed by its running maximum extent size, so first fit is one
  ``bisect`` instead of a walk past every hole too small to serve,
* ``memalign`` via internal alignment padding,
* double-free / invalid-free diagnosis, and
* footprint statistics (live bytes, peak live bytes, peak block count)
  that feed the Table V memory model.

Objects are packed contiguously, so the word past one object is
frequently the header or body of the next — exactly the adjacency that
makes heap overflows silently destructive and boundary watchpoints
informative.

The index, ``_reach``, runs parallel to the free list: ``_reach[j]`` is
the largest extent among ``_free[:j + 1]``.  It never decreases, so the
first index whose reach covers a request is the lowest-addressed extent
that fits — the extent a linear first-fit walk would take.  ``malloc``
recomputes only the entries after the taken extent that its old size
carried; ``free`` raises only the entries below the grown extent's size;
``memalign`` (a cold path) rebuilds the index in one pass.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Tuple

from repro.errors import DoubleFreeError, InvalidFreeError, OutOfMemoryError
from repro.heap.size_classes import MIN_ALIGNMENT, align_up, round_up_size


@dataclass
class HeapStats:
    """Footprint and traffic counters."""

    total_allocations: int = 0
    total_frees: int = 0
    live_bytes: int = 0
    live_blocks: int = 0
    peak_live_bytes: int = 0
    peak_live_blocks: int = 0

    def on_alloc(self, size: int) -> None:
        self.total_allocations += 1
        self.live_bytes += size
        self.live_blocks += 1
        self.peak_live_bytes = max(self.peak_live_bytes, self.live_bytes)
        self.peak_live_blocks = max(self.peak_live_blocks, self.live_blocks)

    def on_free(self, size: int) -> None:
        self.total_frees += 1
        self.live_bytes -= size
        self.live_blocks -= 1


class FreeListAllocator:
    """First-fit allocator with splitting and coalescing."""

    def __init__(self, arena_start: int, arena_size: int):
        if arena_size <= 0:
            raise ValueError(f"arena size must be positive, got {arena_size}")
        if arena_start % MIN_ALIGNMENT:
            raise ValueError(
                f"arena start {arena_start:#x} must be {MIN_ALIGNMENT}-byte aligned"
            )
        self.arena_start = arena_start
        self.arena_size = arena_size
        # Address-ordered list of (start, size) free extents, and its
        # prefix-maximum index (see the module docstring).
        self._free: List[Tuple[int, int]] = [(arena_start, arena_size)]
        self._reach: List[int] = [arena_size]
        # address -> block size for live blocks.
        self._live: Dict[int, int] = {}
        self._freed_once: set = set()
        self.stats = HeapStats()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the block address.

        The body inlines the take/record helpers: this is the innermost
        call of every interposed allocation, and the helper hops cost
        more than the list surgery they wrap.
        """
        # Inline rounding for the common case; round_up_size still
        # handles zero (-> minimum block) and rejects negatives.
        block_size = (size + 15) & -16 if size > 0 else round_up_size(size)
        free = self._free
        reach = self._reach
        index = bisect_left(reach, block_size)
        if index == len(reach):
            raise OutOfMemoryError(size)
        start, extent = free[index]
        # Every entry from ``index`` on that equals ``extent`` was
        # carried by the taken extent; recompute those, stop at the
        # first one a later, larger extent carries.
        high = reach[index - 1] if index else 0
        remainder = extent - block_size
        if remainder:
            free[index] = (start + block_size, remainder)
            if remainder > high:
                high = remainder
            reach[index] = high
            index += 1
        else:
            del free[index]
            del reach[index]
        n_extents = len(reach)
        while index < n_extents and reach[index] == extent:
            other = free[index][1]
            if other > high:
                high = other
            reach[index] = high
            index += 1
        self._live[start] = block_size
        self._freed_once.discard(start)
        stats = self.stats
        stats.total_allocations += 1
        live_bytes = stats.live_bytes + block_size
        stats.live_bytes = live_bytes
        live_blocks = stats.live_blocks + 1
        stats.live_blocks = live_blocks
        if live_bytes > stats.peak_live_bytes:
            stats.peak_live_bytes = live_bytes
        if live_blocks > stats.peak_live_blocks:
            stats.peak_live_blocks = live_blocks
        return start

    def memalign(self, alignment: int, size: int) -> int:
        """Allocate ``size`` bytes at an ``alignment``-aligned address."""
        block_size = round_up_size(size)
        for index, (start, extent) in enumerate(self._free):
            aligned = align_up(start, alignment)
            padding = aligned - start
            if extent >= padding + block_size:
                # Return the leading padding to the free list, then carve.
                del self._free[index]
                if padding:
                    self._free.insert(index, (start, padding))
                    index += 1
                remainder = extent - padding - block_size
                if remainder:
                    self._free.insert(index, (aligned + block_size, remainder))
                # In place: FastAllocDealloc's closures hold this list.
                self._reach[:] = accumulate((s for _, s in self._free), max)
                self._record_alloc(aligned, block_size)
                return aligned
        raise OutOfMemoryError(size)

    def _record_alloc(self, address: int, block_size: int) -> None:
        self._live[address] = block_size
        self._freed_once.discard(address)
        self.stats.on_alloc(block_size)

    # ------------------------------------------------------------------
    # Deallocation
    # ------------------------------------------------------------------
    def free(self, address: int) -> int:
        """Release a block; returns its size.  Diagnoses bad frees.

        Like :meth:`malloc`, the body inlines the free-list insertion and
        both-neighbour coalescing (one bisect + at most two merges).
        """
        size = self._live.pop(address, None)
        if size is None:
            if address in self._freed_once:
                raise DoubleFreeError(address)
            raise InvalidFreeError(address)
        self._freed_once.add(address)
        stats = self.stats
        stats.total_frees += 1
        stats.live_bytes -= size
        stats.live_blocks -= 1
        free = self._free
        reach = self._reach
        index = bisect_left(free, (address,))
        end = address + size
        # Coalesce into the predecessor (and through it the successor),
        # else into the successor, else insert; the extent at ``index``
        # ends up holding the freed bytes.
        predecessor = free[index - 1] if index else None
        if predecessor is not None and predecessor[0] + predecessor[1] == address:
            grown = predecessor[1] + size
            if index < len(free) and free[index][0] == end:
                grown += free[index][1]
                del free[index]
                del reach[index]
            index -= 1
            free[index] = (predecessor[0], grown)
        elif index < len(free) and free[index][0] == end:
            grown = size + free[index][1]
            free[index] = (address, grown)
        else:
            grown = size
            free.insert(index, (address, size))
            reach.insert(index, size)
        # The grown extent raises its own entry and every later entry
        # below its size; the first entry at or above it ends the run.
        high = reach[index - 1] if index else 0
        reach[index] = grown if grown > high else high
        index += 1
        n_extents = len(reach)
        while index < n_extents and reach[index] < grown:
            reach[index] = grown
            index += 1
        return size

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def usable_size(self, address: int) -> int:
        """Block size behind a live allocation (``malloc_usable_size``)."""
        size = self._live.get(address)
        if size is None:
            raise InvalidFreeError(address, reason="not a live allocation")
        return size

    def is_live(self, address: int) -> bool:
        return address in self._live

    def live_blocks(self) -> Dict[int, int]:
        """Snapshot of live (address -> size) blocks."""
        return dict(self._live)

    def free_extents(self) -> List[Tuple[int, int]]:
        return list(self._free)

    def check_invariants(self) -> None:
        """Assert the structural invariants (used by property tests).

        * free extents are address-ordered, non-overlapping, and never
          adjacent (adjacent extents must have been coalesced);
        * live blocks never overlap each other or any free extent;
        * live + free bytes never exceed the arena;
        * ``_reach`` is the running maximum of the extent sizes.
        """
        assert self._reach == list(
            accumulate((size for _, size in self._free), max)
        ), "first-fit index out of step with the free list"
        prev_end = None
        for start, size in self._free:
            assert size > 0, "empty free extent"
            if prev_end is not None:
                assert start > prev_end, "free list out of order or overlapping"
                assert start != prev_end, "uncoalesced adjacent extents"
            prev_end = start + size
            assert self.arena_start <= start
            assert prev_end <= self.arena_start + self.arena_size
        spans = sorted(
            [(a, a + s, "live") for a, s in self._live.items()]
            + [(a, a + s, "free") for a, s in self._free]
        )
        for (s1, e1, _), (s2, e2, _) in zip(spans, spans[1:]):
            assert e1 <= s2, f"overlapping spans [{s1:#x},{e1:#x}) and [{s2:#x},{e2:#x})"

    def __repr__(self) -> str:
        return (
            f"FreeListAllocator(live_blocks={self.stats.live_blocks}, "
            f"live_bytes={self.stats.live_bytes}, "
            f"free_extents={len(self._free)})"
        )
