"""The Sampling Management Unit's adaptation rules (§III-B2, §IV-A)."""

import pytest

from repro.callstack.contexts import ContextInterner
from repro.callstack.frames import CallSite, CallStack
from repro.core.config import CSODConfig
from repro.core.rng import PerThreadRNG
from repro.core.sampling import (
    SamplingManagementUnit,
    context_signature,
    observe,
)
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


def stack(name="alloc", frame_size=48):
    s = CallStack()
    s.push(CallSite("APP", "main.c", 1, "main", frame_size=64))
    s.push(CallSite("APP", "a.c", 2, name, frame_size=frame_size))
    return s


def test_new_context_starts_at_50_percent():
    unit, _ = make_unit()
    record = unit.on_allocation(stack())
    # One degradation step is applied on the very first allocation.
    assert record.probability == pytest.approx(0.5 - 1e-5)


def test_degradation_per_allocation():
    unit, _ = make_unit()
    s = stack()
    record = unit.on_allocation(s)
    for _ in range(9):
        unit.on_allocation(s)
    assert record.allocation_count == 10
    assert record.probability == pytest.approx(0.5 - 10 * 1e-5)


def test_same_stack_same_record():
    unit, _ = make_unit()
    s = stack()
    assert unit.on_allocation(s) is unit.on_allocation(s)
    assert unit.context_count() == 1


def test_different_stacks_different_records():
    unit, _ = make_unit()
    a = unit.on_allocation(stack("a"))
    b = unit.on_allocation(stack("b"))
    assert a is not b
    assert unit.context_count() == 2


def test_watch_halves_probability():
    unit, _ = make_unit()
    record = unit.on_allocation(stack())
    before = record.probability
    unit.on_watched(record)
    assert record.probability == pytest.approx(before / 2)
    assert record.watch_count == 1


def test_probability_never_below_floor():
    unit, _ = make_unit()
    record = unit.on_allocation(stack())
    for _ in range(40):
        unit.on_watched(record)
    assert record.probability == CSODConfig().floor_probability


def test_should_watch_is_probability_draw():
    unit, _ = make_unit()
    record = unit.on_allocation(stack())
    observe(record)
    assert unit.should_watch(record, tid=1)


def test_should_watch_statistics():
    unit, _ = make_unit(seed=123)
    record = unit.on_allocation(stack())
    record.probability = 0.25
    hits = sum(unit.should_watch(record, tid=1) for _ in range(4000))
    assert 0.21 < hits / 4000 < 0.29


def test_boost_to_certain_pins():
    unit, _ = make_unit()
    record = unit.on_allocation(stack())
    observe(record)
    assert record.probability == 1.0
    assert record.pinned()
    # Pinned records never degrade again.
    unit.on_allocation(stack())
    unit.on_watched(record)
    assert unit.effective_probability(record) == 1.0


def test_throttle_engages_after_5000_allocs_in_window():
    unit, clock = make_unit()
    s = stack()
    record = None
    for _ in range(5001):
        record = unit.on_allocation(s)
    assert record.throttled_until_ns > clock.now_ns
    assert unit.effective_probability(record) == CSODConfig().throttle_probability


def test_throttle_expires_with_window():
    config = CSODConfig()
    unit, clock = make_unit(config)
    s = stack()
    for _ in range(5001):
        record = unit.on_allocation(s)
    clock.advance(int(config.throttle_window_seconds * NANOS_PER_SECOND) + 1)
    # Back to (at least) the floor once the window has elapsed.
    assert unit.effective_probability(record) == config.floor_probability


def test_no_throttle_when_allocations_are_slow():
    config = CSODConfig()
    unit, clock = make_unit(config)
    s = stack()
    for _ in range(6000):
        record = unit.on_allocation(s)
        clock.advance(int(0.01 * NANOS_PER_SECOND))  # 100 allocs/s
    assert record.throttled_until_ns <= clock.now_ns


def test_revive_boosts_floor_contexts():
    config = CSODConfig(revive_chance=1.0, revive_period_seconds=1.0)
    unit, clock = make_unit(config)
    s = stack()
    record = unit.on_allocation(s)
    record.probability = config.floor_probability
    unit.on_allocation(s)  # starts the floor timer
    clock.advance(2 * NANOS_PER_SECOND)
    unit.on_allocation(s)
    assert record.probability == config.revive_probability


def test_revive_respects_chance_zero():
    config = CSODConfig(revive_chance=0.0, revive_period_seconds=1.0)
    unit, clock = make_unit(config)
    s = stack()
    record = unit.on_allocation(s)
    record.probability = config.floor_probability
    unit.on_allocation(s)
    clock.advance(2 * NANOS_PER_SECOND)
    unit.on_allocation(s)
    assert record.probability == config.floor_probability


def test_revive_draws_from_allocating_threads_stream():
    # Regression: the revive draw used ``uniform(tid=0)`` no matter which
    # thread allocated, corrupting thread 0's stream and leaving the
    # allocating thread's untouched.
    config = CSODConfig(revive_period_seconds=1.0)
    clock = VirtualClock()
    rng = PerThreadRNG(7)
    unit = SamplingManagementUnit(config, clock, rng, ContextInterner())
    reference = PerThreadRNG(7)
    first_tid0 = reference.uniform(0)
    reference.uniform(1)  # the draw the revive below must consume
    second_tid1 = reference.uniform(1)

    s = stack()
    record = unit.on_allocation(s, tid=1)
    record.probability = config.floor_probability
    unit.on_allocation(s, tid=1)  # starts the floor timer
    clock.advance(2 * NANOS_PER_SECOND)
    unit.on_allocation(s, tid=1)  # revive draw fires

    assert rng.uniform(0) == first_tid0  # tid-0 stream untouched
    assert rng.uniform(1) == second_tid1  # exactly one tid-1 draw consumed


def test_thread_streams_are_isolated_under_revive():
    # Thread 0's revive outcomes must be identical whether or not thread 1
    # allocates (and revives) in between.
    def thread0_probs(with_thread1):
        config = CSODConfig(revive_chance=0.5, revive_period_seconds=1.0)
        clock = VirtualClock()
        unit = SamplingManagementUnit(
            config, clock, PerThreadRNG(11), ContextInterner()
        )
        a, b = stack("a"), stack("b")
        record_a = unit.on_allocation(a, tid=0)
        record_a.probability = config.floor_probability
        record_b = None
        if with_thread1:
            record_b = unit.on_allocation(b, tid=1)
            record_b.probability = config.floor_probability
        probs = []
        for _ in range(30):
            clock.advance(2 * NANOS_PER_SECOND)
            if record_b is not None:
                unit.on_allocation(b, tid=1)
                record_b.probability = config.floor_probability
            unit.on_allocation(a, tid=0)
            probs.append(record_a.probability)
            record_a.probability = config.floor_probability
        return probs

    assert thread0_probs(True) == thread0_probs(False)


def test_throttle_window_starting_at_time_zero():
    # A record created at clock 0 has window_start_ns == 0; its first
    # window must accumulate and throttle like any other.
    config = CSODConfig(throttle_alloc_threshold=10)
    unit, clock = make_unit(config)
    s = stack()
    assert clock.now_ns == 0
    for _ in range(11):
        record = unit.on_allocation(s)
    assert record.window_start_ns == 0
    assert record.throttled_until_ns == int(
        config.throttle_window_seconds * NANOS_PER_SECOND
    )
    assert unit.effective_probability(record) == config.throttle_probability


def test_rethrottle_after_window_elapses():
    config = CSODConfig(throttle_alloc_threshold=10)
    unit, clock = make_unit(config)
    s = stack()
    for _ in range(11):
        record = unit.on_allocation(s)
    assert unit.effective_probability(record) == config.throttle_probability
    window_ns = int(config.throttle_window_seconds * NANOS_PER_SECOND)
    clock.advance(window_ns + 1)
    assert unit.effective_probability(record) == config.floor_probability
    # A second burst in the fresh window must throttle again.
    for _ in range(11):
        unit.on_allocation(s)
    assert record.throttled_until_ns > clock.now_ns
    assert unit.effective_probability(record) == config.throttle_probability


def test_pinned_context_never_throttled():
    config = CSODConfig(throttle_alloc_threshold=10)
    unit, clock = make_unit(config)
    s = stack()
    record = unit.on_allocation(s)
    observe(record)
    for _ in range(50):
        unit.on_allocation(s)
    assert record.throttled_until_ns == 0
    assert unit.effective_probability(record) == 1.0


def test_preloaded_bad_signature_pins_new_context():
    unit, _ = make_unit()
    s = stack()
    probe_unit, _ = make_unit()
    signature = context_signature(probe_unit.on_allocation(s).context)
    unit.preload_known_bad({signature})
    record = unit.on_allocation(s)
    assert record.pinned()
    assert record.probability == 1.0


def test_signature_is_stable_across_processes():
    a, _ = make_unit()
    b, _ = make_unit()
    sig_a = context_signature(a.on_allocation(stack()).context)
    sig_b = context_signature(b.on_allocation(stack()).context)
    assert sig_a == sig_b


def test_records_iteration():
    unit, _ = make_unit()
    unit.on_allocation(stack("a"))
    unit.on_allocation(stack("b"))
    assert len(list(unit.records())) == 2


def test_total_allocations_counter():
    unit, _ = make_unit()
    s = stack()
    for _ in range(7):
        unit.on_allocation(s)
    assert unit.total_allocations_seen == 7
