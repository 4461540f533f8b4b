"""The abstract model's sampling rules must track the real unit exactly.

Both the abstract detector and the live unit run ``repro.core.sampling``'s
§III-B2/§IV-A rules; these tests drive both with identical operation
sequences — exact throttle-window and revive-period boundaries included —
and require bit-identical probabilities, window bookkeeping, and draw
streams.  Any drift between them would silently invalidate every
abstract-model result.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.abstract_model import AbstractDetector
from repro.callstack.contexts import ContextInterner
from repro.callstack.frames import CallSite, CallStack
from repro.core.config import CSODConfig
from repro.core.rng import PerThreadRNG
from repro.core.sampling import (
    SamplingManagementUnit,
    allocations_to_floor,
    revive_period_ns,
    throttle_window_ns,
)
from repro.machine.clock import VirtualClock
from repro.workloads.base import BuggyAppSpec


def _real_unit(config):
    clock = VirtualClock()
    unit = SamplingManagementUnit(
        config, clock, PerThreadRNG(0), ContextInterner()
    )
    stacks = []
    for i in range(5):
        stack = CallStack()
        stack.push(CallSite("EQ", "m.c", 1, "main"))
        stack.push(CallSite("EQ", "a.c", 10 + i, f"ctx{i}"))
        stacks.append(stack)
    return unit, clock, stacks


def _abstract_unit(config):
    spec = BuggyAppSpec(
        name="eq",
        bug_kind="over-write",
        vuln_module="EQ",
        reference="eq",
        total_contexts=1,
        total_allocations=1,
        before_contexts=1,
        before_allocations=1,
        victim_alloc_index=1,
    )
    return AbstractDetector(spec, config, seed=0)


# (context index, watched?, clock advance ns); revive_chance is pinned
# to the deterministic extremes so no RNG enters the comparison.  The
# exact throttle-window and revive-period lengths are drawn often, so
# allocations land on the boundary nanosecond, where a closed window or
# an off-by-one revive check would diverge.
_DEFAULT = CSODConfig()
advances = st.one_of(
    st.sampled_from(
        (0, throttle_window_ns(_DEFAULT), revive_period_ns(_DEFAULT))
    ),
    st.integers(min_value=0, max_value=40_000_000_000),
)
operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.booleans(),
        advances,
    ),
    max_size=120,
)


@given(operations, st.sampled_from([0.0, 1.0]))
@settings(max_examples=80, deadline=None)
def test_probability_evolution_identical(ops, revive_chance):
    config = CSODConfig(
        replacement_policy="random", revive_chance=revive_chance
    )
    real, clock, stacks = _real_unit(config)
    abstract = _abstract_unit(config)

    for index, watched, advance in ops:
        clock.advance(advance)
        abstract._now_ns += advance
        real_record = real.on_allocation(stacks[index])
        abstract_ctx = abstract._on_allocation(index)
        if watched:
            real.on_watched(real_record)
            abstract._on_watched(abstract_ctx)
        assert abstract_ctx.probability == real_record.probability, (
            index,
            watched,
        )
        assert abstract._effective(abstract_ctx) == real.effective_probability(
            real_record
        )
        assert abstract_ctx.allocation_count == real_record.allocation_count


@given(operations)
@settings(max_examples=40, deadline=None)
def test_throttle_state_identical(ops):
    config = CSODConfig(
        replacement_policy="random",
        revive_chance=0.0,
        throttle_alloc_threshold=10,  # engage it quickly
    )
    real, clock, stacks = _real_unit(config)
    abstract = _abstract_unit(config)
    for index, _watched, advance in ops:
        clock.advance(advance)
        abstract._now_ns += advance
        record = real.on_allocation(stacks[index])
        ctx = abstract._on_allocation(index)
        assert ctx.throttled_until_ns == record.throttled_until_ns
        assert ctx.window_alloc_count == record.window_alloc_count


def test_window_boundary_schedule_identical():
    """5,001 allocations 2 ms apart: the last lands exactly on the end of
    the first window, so it opens a fresh window instead of throttling."""
    config = CSODConfig(replacement_policy="random")
    real, clock, stacks = _real_unit(config)
    abstract = _abstract_unit(config)
    spacing = 2_000_000
    for i in range(5001):
        if i:
            clock.advance(spacing)
            abstract._now_ns += spacing
        record = real.on_allocation(stacks[0])
        ctx = abstract._on_allocation(0)
    assert clock.now_ns == throttle_window_ns(config)
    assert record.window_alloc_count == 1
    assert ctx.window_alloc_count == record.window_alloc_count
    assert ctx.throttled_until_ns == record.throttled_until_ns
    assert ctx.probability == record.probability
    assert abstract._effective(ctx) == real.effective_probability(record)


def test_revive_draws_come_from_the_main_thread_stream():
    """Revive draws consume the allocating thread's stream: the abstract
    model is the main thread (tid 1) and never touches stream 0."""
    config = CSODConfig(replacement_policy="random", revive_chance=0.5)
    real, clock, stacks = _real_unit(config)
    abstract = _abstract_unit(config)
    main_tid = 1
    period = revive_period_ns(config)
    # Watched allocations pin the context to the floor; one more starts
    # the floor timer.
    for _ in range(allocations_to_floor(config) + 1):
        record = real.on_allocation(stacks[0], tid=main_tid)
        real.on_watched(record)
        ctx = abstract._on_allocation(0)
        abstract._on_watched(ctx)
    revived = 0
    for _ in range(40):
        clock.advance(period)
        abstract._now_ns += period
        record = real.on_allocation(stacks[0], tid=main_tid)
        ctx = abstract._on_allocation(0)
        assert ctx.probability == record.probability
        assert ctx.floor_since_ns == record.floor_since_ns
        revived += record.probability == config.revive_probability
        # Back to the floor so the next period owes another draw.
        real.on_watched(record)
        abstract._on_watched(ctx)
    assert 0 < revived < 40  # both outcomes of the draw were exercised
    assert 0 not in abstract._rng._streams
