"""The slot decision spec (§III-C2): repro.core.policies' functions."""

from types import SimpleNamespace

import pytest

from repro.core.config import (
    CSODConfig,
    POLICY_NAIVE,
    POLICY_NEAR_FIFO,
    POLICY_RANDOM,
)
from repro.core.policies import (
    SLOTS,
    choose_slot,
    choose_victim,
    free_slot,
    next_pointer,
    slot_probability,
)
from repro.core.rng import PerThreadRNG
from repro.core.sampling import SamplerState
from repro.machine.clock import NANOS_PER_SECOND

FULL = [0.25, 0.25, 0.25, 0.25]


@pytest.fixture
def rng():
    return PerThreadRNG(7)


def _stream_position(rng, tid=1):
    stream = rng.stream(tid)
    return stream._block, stream._pos


def test_naive_never_preempts(rng):
    before = _stream_position(rng)
    assert choose_victim(POLICY_NAIVE, FULL, 0.99, 0, rng, tid=1) == -1
    assert _stream_position(rng) == before  # and makes no draw


def test_random_declines_when_all_stronger(rng):
    assert choose_victim(POLICY_RANDOM, FULL, 0.1, 0, rng, tid=1) == -1


def test_random_finds_the_single_weak_slot(rng):
    probabilities = [0.9, 0.9, 0.05, 0.9]
    for _ in range(20):
        assert choose_victim(POLICY_RANDOM, probabilities, 0.5, 0, rng, 1) == 2


def test_random_spreads_over_equal_slots(rng):
    chosen = {
        choose_victim(POLICY_RANDOM, FULL, 0.5, 0, rng, tid=1) for _ in range(200)
    }
    assert chosen == {0, 1, 2, 3}


def test_random_starts_at_the_allocating_threads_draw(rng):
    """The probe starts at below(tid, 4) from the caller's stream and
    walks forward (wrapping) to the first weaker slot."""
    twin = PerThreadRNG(7)
    probabilities = [0.05, 0.9, 0.05, 0.9]
    for _ in range(50):
        start = twin.below(3, SLOTS)
        expected = start if probabilities[start] < 0.5 else (start + 1) % SLOTS
        assert choose_victim(POLICY_RANDOM, probabilities, 0.5, 0, rng, 3) == expected
    assert rng.stream(1)._block == []  # thread 1's stream untouched


def test_random_empty_slots():
    """A free slot is taken before any probe: lowest-numbered first."""
    assert free_slot([None] * SLOTS) == 0
    assert free_slot(["w", None, None, "w"]) == 1
    assert free_slot(["w"] * SLOTS) == -1


def test_near_fifo_starts_at_pointer(rng):
    assert choose_victim(POLICY_NEAR_FIFO, FULL, 0.5, 0, rng, tid=1) == 0
    assert choose_victim(POLICY_NEAR_FIFO, FULL, 0.5, 2, rng, tid=1) == 2


def test_near_fifo_pointer_advances_on_replacement(rng):
    victim = choose_victim(POLICY_NEAR_FIFO, FULL, 0.5, 0, rng, tid=1)
    pointer = next_pointer(victim)
    assert choose_victim(POLICY_NEAR_FIFO, FULL, 0.5, pointer, rng, tid=1) == 1


def test_near_fifo_wraps(rng):
    pointer = 0
    for expected in (0, 1, 2, 3, 0):
        victim = choose_victim(POLICY_NEAR_FIFO, FULL, 0.5, pointer, rng, tid=1)
        assert victim == expected
        pointer = next_pointer(victim)


def test_near_fifo_skips_stronger_slots(rng):
    probabilities = [0.9, 0.9, 0.1, 0.9]
    assert choose_victim(POLICY_NEAR_FIFO, probabilities, 0.5, 0, rng, 1) == 2
    # The walk wraps past the last slot back to the first.
    probabilities = [0.1, 0.9, 0.9, 0.9]
    assert choose_victim(POLICY_NEAR_FIFO, probabilities, 0.5, 1, rng, 1) == 0


def test_near_fifo_declines_when_all_stronger(rng):
    before = _stream_position(rng)
    assert choose_victim(POLICY_NEAR_FIFO, FULL, 0.2, 0, rng, tid=1) == -1
    assert _stream_position(rng) == before


def test_near_fifo_handles_holes(rng):
    """Deallocations leave holes: the next candidate fills the lowest
    one, and only a replacement moves the pointer."""
    slots = ["a", None, "c", None]
    assert free_slot(slots) == 1
    pointer = next_pointer(2)
    slots[1] = "b"
    assert free_slot(slots) == 3
    slots[3] = "d"
    assert free_slot(slots) == -1
    assert choose_victim(POLICY_NEAR_FIFO, FULL, 0.5, pointer, rng, tid=1) == 3


def test_equal_probability_does_not_evict(rng):
    """Replacement needs strictly greater probability (§III-C2)."""
    assert choose_victim(POLICY_RANDOM, FULL, 0.25, 0, rng, tid=1) == -1
    assert choose_victim(POLICY_NEAR_FIFO, FULL, 0.25, 0, rng, tid=1) == -1


def test_next_pointer_wraps():
    assert [next_pointer(victim) for victim in range(SLOTS)] == [1, 2, 3, 0]


def _record(probability, pinned=False):
    return SimpleNamespace(
        **vars(SamplerState(probability)), overflow_observed=pinned
    )


def _slot(probability, install_time_ns=0, pinned=False):
    return SimpleNamespace(
        record=_record(probability, pinned), install_time_ns=install_time_ns
    )


def _choose(slots, record, passed, now_ns=0, policy=POLICY_NEAR_FIFO):
    config = CSODConfig(replacement_policy=policy)
    return choose_slot(slots, record, passed, now_ns, config, 0, PerThreadRNG(7), 1)


def test_choose_slot_takes_a_free_slot_whatever_the_draw():
    slots = [_slot(0.25), None, _slot(0.25), None]
    for passed in (False, True):
        assert _choose(slots, _record(0.0), passed) == 1


def test_choose_slot_preempts_only_after_a_passed_draw():
    slots = [_slot(0.25) for _ in range(SLOTS)]
    assert _choose(slots, _record(0.5), passed=False) == -1
    assert _choose(slots, _record(0.5), passed=True) == 0
    for policy in (POLICY_NAIVE, POLICY_RANDOM, POLICY_NEAR_FIFO):
        assert _choose(slots, _record(0.25), True, policy=policy) == -1


def test_choose_slot_reads_every_probability_at_now():
    config = CSODConfig()
    period = int(config.watchpoint_age_seconds * NANOS_PER_SECOND)
    slots = [_slot(1.0, pinned=True) for _ in range(3)] + [_slot(0.4)]
    candidate = _record(0.3)
    assert _choose(slots, candidate, True, now_ns=period - 1) == -1
    assert _choose(slots, candidate, True, now_ns=period) == 3  # 0.2 < 0.3
    candidate.throttled_until_ns = period + 1  # the candidate's, at now
    assert _choose(slots, candidate, True, now_ns=period) == -1


def test_slot_probability_ages_the_effective_probability():
    config = CSODConfig()
    period = int(config.watchpoint_age_seconds * NANOS_PER_SECOND)
    slot = _slot(0.2)
    assert slot_probability(slot, period - 1, config) == 0.2
    assert slot_probability(slot, period, config) == 0.1
    assert slot_probability(_slot(0.2, 5), 5 + 2 * period, config) == 0.05
    # A pinned context is 1.0 before ageing; an engaged throttle wins
    # over the stored probability.
    assert slot_probability(_slot(0.2, pinned=True), period, config) == 0.5
    slot.record.throttled_until_ns = period + 1
    assert slot_probability(slot, period, config) == (
        config.throttle_probability / 2
    )
