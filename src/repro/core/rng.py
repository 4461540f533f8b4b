"""Per-thread random number generation.

The paper ports OpenBSD's allocator RNG and makes it *per-thread*,
because glibc's ``rand()`` and OpenBSD's global generator serialize
multithreaded allocation on a lock (§III-A1).  We reproduce the design: a
:class:`PerThreadRNG` front-end hands each thread its own
:class:`XorShiftStream`, seeded deterministically from (process seed,
tid), so no cross-thread state is shared on the allocation hot path and
every execution is reproducible from its seed.

The stream is xorshift64* — not OpenBSD's chacha20-based arc4random, but
the property the paper needs (cheap, uniform, lock-free per thread) is
preserved, and cryptographic quality is irrelevant to sampling.

A stream computes its values on demand, in blocks that start small and
double up to :data:`DRAW_BLOCK_SIZE`: an execution that draws twice
computes eight values, not a full block, while the sequence handed out
is the same whatever the block sizes.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.machine.syscall_cost import CostLedger, EVENT_RNG_DRAW

RNG_DRAW_COST_NS = 15

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 0x2545F4914F6CDD1D


# Draws are generated in blocks: the xorshift recurrence runs as one
# tight local loop per refill instead of paying Python call and
# attribute overhead on every draw.  A stream's first block holds
# FIRST_DRAW_BLOCK_SIZE values and each refill doubles the size up to
# DRAW_BLOCK_SIZE, so a short execution computes few values it never
# reads while a long one still draws from full blocks.  Keep the first
# block at two values or more: one allocation draws at most twice
# (revive, then sampling), and the fast-path spec test counts those
# draws assuming they cross at most one refill.
FIRST_DRAW_BLOCK_SIZE = 8
DRAW_BLOCK_SIZE = 256

_UNIFORM_SCALE = 1.0 / float(1 << 53)


class XorShiftStream:
    """One thread's xorshift64* stream, replenished in blocks.

    The draw-order contract: ``next_u64``/``uniform``/``below`` consume
    the *same* underlying u64 sequence, in call order, exactly as a
    draw-at-a-time implementation would — block replenishment, and the
    size of each block, are purely an amortization of the generation
    cost.  The conformance tests in ``tests/core/test_rng.py`` pin this
    against a serial reference.
    """

    __slots__ = ("_state", "_block", "_pos")

    def __init__(self, seed: int):
        # A zero state would be a fixed point; splitmix the seed once.
        state = (seed + 0x9E3779B97F4A7C15) & _MASK64
        state = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        state = ((state ^ (state >> 27)) * 0x94D049BB133111EB) & _MASK64
        self._state = (state ^ (state >> 31)) or 1
        self._block: list = []
        self._pos = 0

    def _refill(self) -> None:
        x = self._state
        size = min(
            max(2 * len(self._block), FIRST_DRAW_BLOCK_SIZE), DRAW_BLOCK_SIZE
        )
        block = []
        append = block.append
        mask = _MASK64
        mult = _MULTIPLIER
        for _ in range(size):
            x ^= (x >> 12) & mask
            x = (x ^ (x << 25)) & mask
            x ^= x >> 27
            append((x * mult) & mask)
        self._state = x
        self._block = block
        self._pos = 0

    def next_u64(self) -> int:
        pos = self._pos
        block = self._block
        if pos >= len(block):
            self._refill()
            pos = 0
            block = self._block
        self._pos = pos + 1
        return block[pos]

    def uniform(self) -> float:
        """A float in [0, 1) with 53 bits of precision."""
        pos = self._pos
        block = self._block
        if pos >= len(block):
            self._refill()
            pos = 0
            block = self._block
        self._pos = pos + 1
        return (block[pos] >> 11) * _UNIFORM_SCALE

    def below(self, bound: int) -> int:
        """An integer in [0, bound)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound


class PerThreadRNG:
    """Lock-free per-thread generators keyed by tid."""

    def __init__(self, process_seed: int, ledger: Optional[CostLedger] = None):
        self._process_seed = process_seed
        self._ledger = ledger or CostLedger()
        self._streams: Dict[int, XorShiftStream] = {}

    def _stream(self, tid: int) -> XorShiftStream:
        stream = self._streams.get(tid)
        if stream is None:
            # Mix the tid into the process seed; distinct tids get
            # decorrelated streams.
            stream = XorShiftStream(self._process_seed * 0x100000001B3 + tid)
            self._streams[tid] = stream
        return stream

    def uniform(self, tid: int) -> float:
        """One sampling draw by thread ``tid`` (charged to the ledger)."""
        self._ledger.record(EVENT_RNG_DRAW, nanos_each=RNG_DRAW_COST_NS)
        return self._stream(tid).uniform()

    def next_u64(self, tid: int) -> int:
        self._ledger.record(EVENT_RNG_DRAW, nanos_each=RNG_DRAW_COST_NS)
        return self._stream(tid).next_u64()

    def below(self, tid: int, bound: int) -> int:
        self._ledger.record(EVENT_RNG_DRAW, nanos_each=RNG_DRAW_COST_NS)
        return self._stream(tid).below(bound)

    def stream(self, tid: int) -> XorShiftStream:
        """Thread ``tid``'s stream (created on first use).

        The batched hot path holds the stream directly and charges the
        per-draw ledger cost itself, fused into its per-phase bundles;
        draw order is unaffected because every consumer goes through the
        same stream object.
        """
        return self._stream(tid)

    def streams_created(self) -> int:
        return len(self._streams)
