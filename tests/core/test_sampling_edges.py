"""Edge-case regressions for the sampling rules.

Pins the fixes audited alongside the batched hot path:

* the spec's ``degrade``/``halve`` floor clamp and the evidence pin — a
  probability may land *exactly on* the floor but never below it, and a
  pinned (evidence) context's effective probability is 1.0 whatever its
  stored probability;
* the half-open throttle window ``[start, start + window)`` — an
  allocation arriving exactly at ``start + window`` opens the next
  window and is counted there, and a throttle whose expiry equals "now"
  no longer applies.

The batched driver inlines these rules; ``test_fastpath_spec.py`` and
the equivalence harness extend every behaviour pinned here to it.
"""

import pytest

from repro.callstack.contexts import ContextInterner
from repro.callstack.frames import CallSite, CallStack
from repro.core.config import CSODConfig
from repro.core.rng import PerThreadRNG
from repro.core.sampling import SamplingManagementUnit, effective, halve, observe
from repro.machine.clock import NANOS_PER_SECOND, VirtualClock


def make_unit(config=None, seed=0):
    clock = VirtualClock()
    unit = SamplingManagementUnit(
        config or CSODConfig(),
        clock,
        PerThreadRNG(seed),
        ContextInterner(),
    )
    return unit, clock


def stack(name="alloc"):
    s = CallStack()
    s.push(CallSite("APP", "main.c", 1, "main", frame_size=64))
    s.push(CallSite("APP", "a.c", 2, name, frame_size=48))
    return s


# ----------------------------------------------------------------------
# Floor behaviour of per-allocation degradation
# ----------------------------------------------------------------------
def test_degrade_clamps_to_floor_not_below():
    config = CSODConfig()
    unit, _ = make_unit(config)
    s = stack()
    record = unit.on_allocation(s)
    # Just above the floor by less than one degradation step: the next
    # allocation must land exactly on the floor, not underflow past it.
    record.probability = config.floor_probability + config.degradation_per_alloc / 2
    unit.on_allocation(s)
    assert record.probability == config.floor_probability


def test_degrade_at_floor_stays_at_floor():
    config = CSODConfig()
    unit, _ = make_unit(config)
    s = stack()
    record = unit.on_allocation(s)
    record.probability = config.floor_probability
    for _ in range(50):
        unit.on_allocation(s)
    assert record.probability == config.floor_probability


def test_watch_halving_clamps_to_floor():
    config = CSODConfig()
    unit, _ = make_unit(config)
    record = unit.on_allocation(stack())
    record.probability = config.floor_probability * 1.5
    unit.on_watched(record)  # half of 1.5x floor is below the floor
    assert record.probability == config.floor_probability


# ----------------------------------------------------------------------
# Pin (evidence) dominance and the [floor, 1.0] clamp in the spec
# ----------------------------------------------------------------------
def test_clamp_pinned_record_always_returns_one():
    config = CSODConfig()
    unit, clock = make_unit(config)
    record = unit.on_allocation(stack())
    observe(record)
    for stored in (0.0001, 0.0):
        record.probability = stored
        assert effective(record, True, clock.now_ns, config) == 1.0
        assert unit.effective_probability(record) == 1.0


def test_clamp_caps_at_one_from_above():
    config = CSODConfig()
    unit, _ = make_unit(config)
    record = unit.on_allocation(stack())
    record.probability = 3.4  # halves to 1.7
    halve(record, config)
    assert record.probability == 1.0


def test_pinned_record_survives_watch_halving():
    unit, _ = make_unit()
    record = unit.on_allocation(stack())
    observe(record)
    unit.on_watched(record)
    assert record.probability == 1.0
    assert record.watch_count == 1


def test_boost_clears_floor_bookkeeping_and_revive_draws():
    config = CSODConfig()
    unit, clock = make_unit(config)
    s = stack()
    record = unit.on_allocation(s)
    record.probability = config.floor_probability
    unit.on_allocation(s)  # floor_since_ns starts ticking
    assert record.floor_since_ns >= 0
    observe(record)
    assert record.floor_since_ns == -1
    assert record.throttled_until_ns == 0
    # A pinned record must not consume revive draws: the per-thread
    # stream position is part of the cross-path determinism contract.
    clock.advance(int(config.revive_period_seconds * NANOS_PER_SECOND) + 1)
    stream = unit._rng._stream(0)
    before = (stream._state, stream._pos)
    unit.on_allocation(s)
    assert (stream._state, stream._pos) == before


# ----------------------------------------------------------------------
# Half-open throttle window boundary
# ----------------------------------------------------------------------
def _fill_window(unit, s, count=5000):
    record = None
    for _ in range(count):
        record = unit.on_allocation(s)
    return record


def test_boundary_allocation_opens_next_window():
    config = CSODConfig()
    unit, clock = make_unit(config)
    s = stack()
    record = _fill_window(unit, s)  # exactly at the threshold, t = 0
    assert record.throttled_until_ns == 0
    window_ns = int(config.throttle_window_seconds * NANOS_PER_SECOND)
    # Exactly start + window: the window is half-open, so this
    # allocation belongs to the NEXT window — no throttle fires.
    clock.advance(window_ns)
    unit.on_allocation(s)
    assert record.window_start_ns == window_ns
    assert record.window_alloc_count == 1
    assert record.throttled_until_ns == 0


def test_allocation_one_tick_inside_window_still_throttles():
    config = CSODConfig()
    unit, clock = make_unit(config)
    s = stack()
    record = _fill_window(unit, s)
    window_ns = int(config.throttle_window_seconds * NANOS_PER_SECOND)
    clock.advance(window_ns - 1)  # still inside [0, window)
    unit.on_allocation(s)
    assert record.window_alloc_count == 5001
    assert record.throttled_until_ns == window_ns
    assert unit.effective_probability(record) == config.throttle_probability


def test_throttle_expiring_exactly_now_no_longer_applies():
    config = CSODConfig()
    unit, clock = make_unit(config)
    s = stack()
    record = _fill_window(unit, s)
    window_ns = int(config.throttle_window_seconds * NANOS_PER_SECOND)
    clock.advance(window_ns - 1)
    unit.on_allocation(s)  # throttles until window_ns
    assert unit.effective_probability(record) == config.throttle_probability
    clock.advance(1)  # now == throttled_until_ns: strict ">" comparison
    assert record.throttled_until_ns == clock.now_ns
    assert unit.effective_probability(record) == config.floor_probability


def test_boundary_throttle_covers_the_new_window():
    """A throttle raised by an in-window burst spans to start + window."""
    config = CSODConfig()
    unit, clock = make_unit(config)
    s = stack()
    window_ns = int(config.throttle_window_seconds * NANOS_PER_SECOND)
    clock.advance(window_ns)  # open a window at t = window_ns
    record = _fill_window(unit, s, 5001)
    assert record.window_start_ns == window_ns
    # The throttle expires when THIS window elapses, not the first one.
    assert record.throttled_until_ns == 2 * window_ns
