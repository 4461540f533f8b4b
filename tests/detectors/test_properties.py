"""Property tests: registry round-trips and slot-pool invariants."""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.detectors import (
    GwpAsanSlotPool,
    get,
    known_arms,
    normalize,
    resolve_arms,
)
from repro.detectors.gwp_asan import (
    GWP_REGION_BASE,
    STATE_FREE,
    STATE_LIVE,
    STATE_QUARANTINED,
)
from repro.machine.address_space import PAGE_SIZE

ARMS = known_arms()


# ----------------------------------------------------------------------
# Registry round-trips
# ----------------------------------------------------------------------
@settings(deadline=None)
@given(
    arm=st.sampled_from(ARMS),
    left=st.text(alphabet=" \t", max_size=3),
    right=st.text(alphabet=" \t", max_size=3),
    upper=st.booleans(),
)
def test_normalize_identity_under_case_and_whitespace(
    arm, left, right, upper
):
    spelled = left + (arm.upper() if upper else arm) + right
    canonical = normalize(spelled)
    assert canonical == arm
    # Lookup after normalize is the registered detector itself.
    assert get(canonical).name == canonical
    # normalize is idempotent on its own output.
    assert normalize(canonical) == canonical


@settings(deadline=None)
@given(subset=st.lists(st.sampled_from(ARMS), min_size=1, max_size=10))
def test_resolve_arms_round_trip(subset):
    resolved = resolve_arms(tuple(subset))
    # Canonical registry order, deduplicated, nothing invented.
    assert resolved == tuple(a for a in ARMS if a in set(subset))
    # Resolution is idempotent: feeding the result back is a no-op.
    assert resolve_arms(resolved) == resolved


# ----------------------------------------------------------------------
# GWP-ASan slot pool
# ----------------------------------------------------------------------
class TrackingMemory:
    """Records mapped page bases; faults double-maps like the real one."""

    def __init__(self):
        self.mapped = set()

    def map_region(self, base, size, name=""):
        assert base not in self.mapped, "double map"
        self.mapped.add(base)

    def unmap_region(self, base):
        assert base in self.mapped, "unmap of unmapped page"
        self.mapped.remove(base)


@settings(deadline=None, max_examples=60)
@given(
    slots=st.integers(min_value=1, max_value=8),
    cap=st.integers(min_value=0, max_value=8),
    ops=st.lists(st.booleans(), max_size=60),  # True=acquire, False=retire
)
def test_slot_pool_invariants(slots, cap, ops):
    cap = min(cap, slots)
    memory = TrackingMemory()
    pool = GwpAsanSlotPool(memory, slots=slots)
    live = []
    for is_acquire in ops:
        if is_acquire:
            slot = pool.acquire()
            if slot is not None:
                # A quarantined slot is never handed out while the
                # quarantine holds it: acquire only serves the free list.
                assert slot.index not in pool.quarantined_indexes()
                live.append(slot)
        elif live:
            pool.retire(live.pop(0), cap)

        free = set(pool.free_indexes())
        quarantined = set(pool.quarantined_indexes())
        alive = set(pool.live_indexes())
        # The three states partition the pool exactly.
        assert free | quarantined | alive == set(range(slots))
        assert not free & quarantined
        assert not free & alive
        assert not quarantined & alive
        # Retire enforces the cap on every transition.
        assert len(quarantined) <= cap
        # Only live slot pages are mapped; guard pages never are, so a
        # guard can never overlap a live slot.
        assert memory.mapped == {
            pool.slot(i).page_base for i in alive
        }
        guard_starts = {start for start, _ in pool.guard_ranges()}
        assert guard_starts.isdisjoint(memory.mapped)
        # Geometry: every slot page sits between two guard pages.
        for i in range(slots):
            page = pool.slot(i).page_base
            assert (page - PAGE_SIZE, page) in pool.guard_ranges()
            assert (page + PAGE_SIZE, page + 2 * PAGE_SIZE) in (
                pool.guard_ranges()
            )


class EagerSlotPool:
    """Reference model: every slot and page built up front.

    The free list is the eager ``deque(range(n))``, and every page of the
    layout is a row in a table, so lookups read the table instead of the
    pool's page arithmetic.
    """

    def __init__(self, slots):
        self.state = [STATE_FREE] * slots
        self.free = deque(range(slots))
        self.quarantine = deque()
        first = GWP_REGION_BASE // PAGE_SIZE
        self.pages = {}
        for i in range(slots):
            self.pages[first + 2 * i] = ("guard", i - 1 if i else None, i)
            self.pages[first + 2 * i + 1] = ("slot", i)
        self.pages[first + 2 * slots] = ("guard", slots - 1, None)

    def acquire(self):
        if not self.free:
            return None
        index = self.free.popleft()
        self.state[index] = STATE_LIVE
        return index

    def retire(self, index, cap):
        self.state[index] = STATE_QUARANTINED
        self.quarantine.append(index)
        recycled = []
        while len(self.quarantine) > cap:
            stale = self.quarantine.popleft()
            self.state[stale] = STATE_FREE
            self.free.append(stale)
            recycled.append(stale)
        return recycled

    def _described(self, index):
        return None if index is None else (index, self.state[index])

    def slot_at(self, address):
        row = self.pages.get(address // PAGE_SIZE)
        if row is None or row[0] != "slot":
            return None
        return self._described(row[1])

    def guard_neighbors(self, address):
        row = self.pages.get(address // PAGE_SIZE)
        if row is None or row[0] != "guard":
            return (None, None)
        return (self._described(row[1]), self._described(row[2]))


def _described(slot):
    return None if slot is None else (slot.index, slot.state)


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_lazy_slot_pool_matches_eager_model(data):
    slots = data.draw(
        st.one_of(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=1, max_value=4096),
        ),
        label="slots",
    )
    cap = data.draw(st.integers(min_value=0, max_value=min(slots, 8)))
    # Addresses anywhere from two pages below the pool to two above it.
    addresses = st.builds(
        lambda page, offset: GWP_REGION_BASE + page * PAGE_SIZE + offset,
        st.integers(min_value=-2, max_value=2 * slots + 2),
        st.integers(min_value=0, max_value=PAGE_SIZE - 1),
    )
    probes = data.draw(st.lists(addresses, min_size=1, max_size=4))
    ops = data.draw(
        st.lists(
            st.one_of(
                st.just(None),  # acquire
                st.integers(min_value=0, max_value=63),  # retire live[k]
            ),
            max_size=80,
        )
    )
    pool = GwpAsanSlotPool(TrackingMemory(), slots=slots)
    model = EagerSlotPool(slots)
    live = []
    for op in ops:
        if op is None:
            slot = pool.acquire()
            expected = model.acquire()
            assert _described(slot) == model._described(expected)
            if slot is not None:
                live.append(slot)
        elif live:
            slot = live.pop(op % len(live))
            recycled = pool.retire(slot, cap)
            assert [s.index for s in recycled] == model.retire(slot.index, cap)
        assert pool.free_indexes() == tuple(model.free)
        assert pool.quarantined_indexes() == tuple(model.quarantine)
        assert pool.live_indexes() == tuple(
            i for i, state in enumerate(model.state) if state == STATE_LIVE
        )
        for address in probes:
            assert _described(pool.slot_at(address)) == model.slot_at(address)
            assert tuple(
                _described(s) for s in pool.guard_neighbors(address)
            ) == model.guard_neighbors(address)
