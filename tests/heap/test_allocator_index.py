"""The indexed first fit against a linear first-fit walk (hypothesis).

``FreeListAllocator`` finds its extent by bisecting a prefix-maximum
index instead of walking the free list.  The reference below is the
walk, written plainly; both must give the same addresses, the same free
extents and the same exceptions on every trace, including zero-size
requests, aligned requests, bad frees and exhaustion of a small arena.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import DoubleFreeError, InvalidFreeError, OutOfMemoryError
from repro.heap.allocator import FreeListAllocator
from repro.heap.size_classes import align_up, round_up_size

BASE = 0x2_0000
ARENA = 4096


class LinearFirstFit:
    """First fit by scanning every extent; coalescing by re-merging."""

    def __init__(self, start: int, size: int):
        self.extents = [(start, size)]
        self.live = {}
        self.freed_once = set()

    def _carve(self, index, start, extent, address, block):
        pieces = []
        if address > start:
            pieces.append((start, address - start))
        if start + extent > address + block:
            pieces.append((address + block, start + extent - address - block))
        self.extents[index : index + 1] = pieces
        self.live[address] = block
        self.freed_once.discard(address)
        return address

    def malloc(self, size: int) -> int:
        block = round_up_size(size)
        for index, (start, extent) in enumerate(self.extents):
            if extent >= block:
                return self._carve(index, start, extent, start, block)
        raise OutOfMemoryError(size)

    def memalign(self, alignment: int, size: int) -> int:
        block = round_up_size(size)
        for index, (start, extent) in enumerate(self.extents):
            aligned = align_up(start, alignment)
            if extent >= aligned - start + block:
                return self._carve(index, start, extent, aligned, block)
        raise OutOfMemoryError(size)

    def free(self, address: int) -> int:
        size = self.live.pop(address, None)
        if size is None:
            if address in self.freed_once:
                raise DoubleFreeError(address)
            raise InvalidFreeError(address)
        self.freed_once.add(address)
        merged = []
        for start, extent in sorted(self.extents + [(address, size)]):
            if merged and sum(merged[-1]) == start:
                merged[-1] = (merged[-1][0], merged[-1][1] + extent)
            else:
                merged.append((start, extent))
        self.extents = merged
        return size


def outcome(call, *args):
    try:
        return ("ok", call(*args))
    except (OutOfMemoryError, InvalidFreeError) as exc:
        return (type(exc).__name__, str(exc))


operations = st.lists(
    st.one_of(
        st.tuples(st.just("malloc"), st.integers(min_value=0, max_value=700)),
        st.tuples(
            st.just("memalign"),
            st.sampled_from((16, 32, 64, 256, 1024)),
            st.integers(min_value=0, max_value=300),
        ),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("double-free"), st.integers(min_value=0, max_value=63)),
        st.tuples(
            st.just("invalid-free"),
            st.integers(min_value=0, max_value=ARENA // 16 - 1),
        ),
    ),
    max_size=150,
)


@given(operations)
@settings(max_examples=300, deadline=None)
def test_indexed_first_fit_matches_the_linear_walk(ops):
    indexed = FreeListAllocator(BASE, ARENA)
    linear = LinearFirstFit(BASE, ARENA)
    live, freed = [], []
    for op in ops:
        if op[0] == "malloc":
            got = outcome(indexed.malloc, op[1])
            assert got == outcome(linear.malloc, op[1])
        elif op[0] == "memalign":
            got = outcome(indexed.memalign, op[1], op[2])
            assert got == outcome(linear.memalign, op[1], op[2])
        else:
            if op[0] == "free" and live:
                address = live.pop(op[1] % len(live))
                freed.append(address)
            elif op[0] == "double-free" and freed:
                address = freed[op[1] % len(freed)]
            else:
                # Any granule, live block starts included: those free
                # cleanly on both sides.
                address = BASE + 16 * op[1]
            got = outcome(indexed.free, address)
            assert got == outcome(linear.free, address)
            if got[0] == "ok" and address in live:
                live.remove(address)
                freed.append(address)
        if got[0] == "ok" and op[0] in ("malloc", "memalign"):
            live.append(got[1])
        assert indexed.free_extents() == linear.extents
        indexed.check_invariants()

