"""Parity between the pure transition model and the live sampler.

The adversarial solver (``repro.oracle.adversarial``) searches over the
pure ``SamplerState`` transitions instead of instantiating a runtime;
every witness it emits is only as trustworthy as this file.  Each test
drives the live :class:`SamplingManagementUnit` and the pure model
through the same schedule and asserts the snapshots agree exactly —
probabilities bit-for-bit, window bookkeeping field-by-field.
"""

import random

import pytest

from repro.callstack.contexts import ContextInterner
from repro.callstack.frames import CallSite, CallStack
from repro.core.config import CSODConfig
from repro.core.rng import PerThreadRNG
from repro.core.sampling import (
    SamplerState,
    SamplingManagementUnit,
    allocation_transition,
    allocations_to_floor,
    degrade_transition,
    initial_state,
    revive_period_ns,
    revive_transition,
    throttle_transition,
    throttle_window_ns,
    watch_transition,
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


def snapshot(record):
    """The live record projected onto the pure state's fields."""
    return SamplerState.of(record)


def test_initial_state_matches_fresh_record_pre_rules():
    config = CSODConfig()
    assert initial_state(config).probability == config.initial_probability


def test_single_allocation_parity():
    config = CSODConfig()
    unit, _ = make_unit(config)
    record = unit.on_allocation(stack())
    model, _ = allocation_transition(initial_state(config), 0, config)
    assert snapshot(record) == model


def test_watched_allocation_parity():
    config = CSODConfig()
    unit, _ = make_unit(config)
    record = unit.on_allocation(stack())
    unit.on_watched(record)
    model, _ = allocation_transition(
        initial_state(config), 0, config, watched=True
    )
    assert snapshot(record) == model


def test_lockstep_parity_over_random_schedules():
    """200 random (watched?, advance?) steps, three seeds, exact match."""
    config = CSODConfig()
    for seed in (0, 1, 2):
        unit, clock = make_unit(config)
        # Pin the revive draw to "failed" so the live unit's probability
        # stays model-predictable (the model treats the draw as a free
        # variable); the draw *sites* are still compared below.
        unit._rng.uniform = lambda tid: 1.0
        schedule = random.Random(seed)
        s = stack()
        model = initial_state(config)
        record = None
        draws = []
        for step in range(200):
            if schedule.random() < 0.2:
                clock.advance(
                    schedule.choice(
                        (1, 1_000_000, NANOS_PER_SECOND, 31 * NANOS_PER_SECOND)
                    )
                )
            watched = schedule.random() < 0.5
            record = unit.on_allocation(s)
            if watched:
                unit.on_watched(record)
            model, draw_made = allocation_transition(
                model, clock.now_ns, config, watched=watched
            )
            draws.append(draw_made)
            assert snapshot(record) == model, f"seed {seed} step {step}"
        assert record.allocation_count == 200
        # The long-advance branch makes at least one revive draw
        # reachable, so the lockstep run was not vacuous.
        assert any(draws)


def test_degrade_transition_is_floor_clamped():
    config = CSODConfig()
    state = SamplerState(probability=config.floor_probability)
    assert (
        degrade_transition(state, config).probability
        == config.floor_probability
    )


def test_throttle_transition_boundary_rolls_window():
    """An allocation exactly at start + window is counted in the next
    half-open window and is not throttled — the corner the solver's
    throttle-edge witness lands on."""
    config = CSODConfig()
    window = throttle_window_ns(config)
    state = initial_state(config)
    for _ in range(config.throttle_alloc_threshold + 1):
        state = throttle_transition(state, 0, config)
    assert state.throttled_until_ns == window  # engaged
    state = throttle_transition(state, window, config)
    assert state.window_start_ns == window
    assert state.window_alloc_count == 1
    assert state.throttled_until_ns <= window  # strict >: expired


def test_throttle_live_parity_at_boundary():
    config = CSODConfig()
    unit, clock = make_unit(config)
    s = stack()
    model = initial_state(config)
    for _ in range(config.throttle_alloc_threshold + 1):
        record = unit.on_allocation(s)
        model, _ = allocation_transition(model, clock.now_ns, config)
    assert snapshot(record) == model
    assert record.throttled_until_ns == throttle_window_ns(config)
    clock.advance(throttle_window_ns(config))
    record = unit.on_allocation(s)
    model, _ = allocation_transition(model, clock.now_ns, config)
    assert snapshot(record) == model
    assert unit.effective_probability(record) == record.probability


def test_revive_transition_draw_sites_match_live_unit():
    config = CSODConfig()
    unit, clock = make_unit(config)
    drawn = []
    unit._rng.uniform = lambda tid: drawn.append(tid) or 1.0
    s = stack()
    model = initial_state(config)
    floor_count = allocations_to_floor(config)
    for _ in range(floor_count):
        unit.on_watched(unit.on_allocation(s))
        model, draw = allocation_transition(
            model, clock.now_ns, config, watched=True
        )
        assert not draw
    assert model.probability == config.floor_probability
    # The floor was reached by the watch halving, which runs *after*
    # the revive rule — so the floor timer is not started yet; the next
    # allocation (seeing the floor pre-watch) starts it.
    assert model.floor_since_ns == -1
    unit.on_allocation(s)
    model, draw = allocation_transition(model, clock.now_ns, config)
    assert not draw
    assert model.floor_since_ns == clock.now_ns
    assert not drawn
    clock.advance(revive_period_ns(config))
    unit.on_allocation(s)
    model, draw = allocation_transition(model, clock.now_ns, config)
    assert draw  # the model predicts the draw...
    assert drawn == [0]  # ...and the live unit consumed exactly one


def test_watch_transition_clamps_to_unit_interval():
    config = CSODConfig()
    high = SamplerState(probability=1.0)
    assert watch_transition(high, config).probability == pytest.approx(0.5)
    low = SamplerState(probability=config.floor_probability)
    assert (
        watch_transition(low, config).probability == config.floor_probability
    )


def test_revive_transition_resets_timer_above_floor():
    config = CSODConfig()
    state = SamplerState(probability=0.25, floor_since_ns=123)
    state, draw = revive_transition(state, 456, config)
    assert not draw
    assert state.floor_since_ns == -1


def test_allocations_to_floor_matches_live_unit():
    config = CSODConfig()
    count = allocations_to_floor(config)
    assert count == 15  # the paper's constants
    unit, _ = make_unit(config)
    s = stack()
    record = None
    for step in range(count):
        record = unit.on_allocation(s)
        unit.on_watched(record)
        if step < count - 1:
            assert record.probability > config.floor_probability
    assert record.probability == config.floor_probability
