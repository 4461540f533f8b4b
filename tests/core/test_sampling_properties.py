"""Property-based invariants of the sampling algorithm (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.callstack.contexts import ContextInterner
from repro.callstack.frames import CallSite, CallStack
from repro.core.config import CSODConfig
from repro.core.rng import PerThreadRNG
from repro.core.sampling import SamplingManagementUnit, observe
from repro.machine.clock import VirtualClock


def make_unit():
    return SamplingManagementUnit(
        CSODConfig(), VirtualClock(), PerThreadRNG(0), ContextInterner()
    )


def stacks(n):
    out = []
    for i in range(n):
        s = CallStack()
        s.push(CallSite("APP", "m.c", 1, "main"))
        s.push(CallSite("APP", "a.c", 10 + i, f"ctx{i}"))
        out.append(s)
    return out


# Each action: (context index, watched?, clock advance ns)
actions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.booleans(),
        st.integers(min_value=0, max_value=2_000_000_000),
    ),
    max_size=150,
)


@given(actions)
@settings(max_examples=100, deadline=None)
def test_probability_always_within_bounds(action_list):
    unit = make_unit()
    config = CSODConfig()
    context_stacks = stacks(5)
    for index, watched, advance in action_list:
        unit._clock.advance(advance)
        record = unit.on_allocation(context_stacks[index])
        if watched:
            unit.on_watched(record)
        for r in unit.records():
            assert config.floor_probability <= r.probability <= 1.0
            assert 0.0 < unit.effective_probability(r) <= 1.0


@given(actions)
@settings(max_examples=60, deadline=None)
def test_allocation_counts_conserved(action_list):
    unit = make_unit()
    context_stacks = stacks(5)
    for index, watched, advance in action_list:
        unit._clock.advance(advance)
        unit.on_allocation(context_stacks[index])
    total = sum(r.allocation_count for r in unit.records())
    assert total == len(action_list) == unit.total_allocations_seen


@given(actions)
@settings(max_examples=60, deadline=None)
def test_pinned_records_stay_pinned(action_list):
    unit = make_unit()
    context_stacks = stacks(5)
    pinned = unit.on_allocation(context_stacks[0])
    observe(pinned)
    for index, watched, advance in action_list:
        unit._clock.advance(advance)
        record = unit.on_allocation(context_stacks[index])
        if watched:
            unit.on_watched(record)
        assert pinned.probability == 1.0
        assert unit.effective_probability(pinned) == 1.0


@given(st.integers(min_value=1, max_value=30))
@settings(max_examples=30, deadline=None)
def test_watch_halving_is_monotone_decreasing(watches):
    unit = make_unit()
    record = unit.on_allocation(stacks(1)[0])
    previous = record.probability
    for _ in range(watches):
        unit.on_watched(record)
        assert record.probability <= previous
        previous = record.probability
