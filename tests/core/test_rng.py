"""Per-thread RNG streams."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rng import DRAW_BLOCK_SIZE, PerThreadRNG, XorShiftStream
from repro.machine.syscall_cost import CostLedger, EVENT_RNG_DRAW


def test_stream_deterministic():
    a = XorShiftStream(seed=5)
    b = XorShiftStream(seed=5)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_different_seeds_differ():
    a = XorShiftStream(seed=1)
    b = XorShiftStream(seed=2)
    assert [a.next_u64() for _ in range(5)] != [b.next_u64() for _ in range(5)]


def test_zero_seed_not_stuck():
    stream = XorShiftStream(seed=0)
    values = {stream.next_u64() for _ in range(100)}
    assert len(values) == 100


def test_uniform_in_unit_interval():
    stream = XorShiftStream(seed=3)
    for _ in range(1000):
        value = stream.uniform()
        assert 0.0 <= value < 1.0


def test_uniform_mean_reasonable():
    stream = XorShiftStream(seed=9)
    mean = sum(stream.uniform() for _ in range(20_000)) / 20_000
    assert 0.48 < mean < 0.52


def test_below_bounds():
    stream = XorShiftStream(seed=4)
    for _ in range(500):
        assert 0 <= stream.below(7) < 7


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        XorShiftStream(seed=1).below(0)


def test_per_thread_streams_are_independent():
    rng = PerThreadRNG(process_seed=11)
    seq1 = [rng.next_u64(tid=1) for _ in range(5)]
    seq2 = [rng.next_u64(tid=2) for _ in range(5)]
    assert seq1 != seq2
    assert rng.streams_created() == 2


def test_same_process_seed_reproducible():
    a = PerThreadRNG(process_seed=11)
    b = PerThreadRNG(process_seed=11)
    assert [a.uniform(1) for _ in range(10)] == [b.uniform(1) for _ in range(10)]


def test_different_process_seeds_differ():
    a = PerThreadRNG(process_seed=1)
    b = PerThreadRNG(process_seed=2)
    assert [a.uniform(1) for _ in range(5)] != [b.uniform(1) for _ in range(5)]


def test_draws_charged_to_ledger():
    ledger = CostLedger()
    rng = PerThreadRNG(0, ledger)
    rng.uniform(1)
    rng.below(1, 10)
    assert ledger.count(EVENT_RNG_DRAW) == 2


@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_below_always_in_range(seed, bound):
    assert 0 <= XorShiftStream(seed).below(bound) < bound


@given(st.integers(min_value=0, max_value=2**63))
@settings(max_examples=100, deadline=None)
def test_uniform_always_in_unit_interval(seed):
    stream = XorShiftStream(seed)
    for _ in range(20):
        assert 0.0 <= stream.uniform() < 1.0


# ----------------------------------------------------------------------
# Draw-order conformance: block replenishment is pure amortization
# ----------------------------------------------------------------------
# An independent serial reimplementation of the generator — splitmix
# seeding plus the xorshift64* recurrence, one draw at a time, no
# buffering.  If block replenishment (or the batched hot path's primed
# buffers) ever reordered, dropped, or duplicated a draw, these
# conformance tests break.
_MASK64 = (1 << 64) - 1


def _serial_reference(seed, count):
    state = (seed + 0x9E3779B97F4A7C15) & _MASK64
    state = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    state = ((state ^ (state >> 27)) * 0x94D049BB133111EB) & _MASK64
    x = (state ^ (state >> 31)) or 1
    out = []
    for _ in range(count):
        x ^= (x >> 12) & _MASK64
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        out.append((x * 0x2545F4914F6CDD1D) & _MASK64)
    return out


def test_block_replenished_draws_match_serial_order():
    # 600 draws cross every block boundary: the growing blocks of 8, 16,
    # 32, 64 and 128 values, then two full blocks of 256.
    stream = XorShiftStream(seed=42)
    assert [stream.next_u64() for _ in range(600)] == _serial_reference(42, 600)


def test_uniform_matches_serial_reference():
    stream = XorShiftStream(seed=7)
    expected = [(u >> 11) * (1.0 / (1 << 53)) for u in _serial_reference(7, 300)]
    assert [stream.uniform() for _ in range(300)] == expected


def test_mixed_draw_kinds_consume_one_sequence():
    """next_u64/uniform/below all consume the same u64 stream in order."""
    stream = XorShiftStream(seed=13)
    reference = _serial_reference(13, 300)
    for i in range(300):
        kind = i % 3
        if kind == 0:
            assert stream.next_u64() == reference[i]
        elif kind == 1:
            assert stream.uniform() == (reference[i] >> 11) * (1.0 / (1 << 53))
        else:
            assert stream.below(1000) == reference[i] % 1000


def test_priming_a_stream_does_not_change_its_draws():
    """Where the block boundaries fall is invisible.

    A stream refilled before its first draw computes its blocks one
    refill ahead of a stream that refills on demand; both must hand out
    the same draws.
    """
    lazy = XorShiftStream(seed=99)
    primed = XorShiftStream(seed=99)
    primed._refill()  # an eager refill before any draw
    assert [primed.uniform() for _ in range(300)] == [
        lazy.uniform() for _ in range(300)
    ]


def test_first_block_is_small_and_blocks_double_to_full_size():
    """A stream computes only a few values more than a short run reads."""
    stream = XorShiftStream(seed=21)
    assert stream._block == []  # nothing computed before the first draw
    stream.uniform()
    assert 2 <= len(stream._block) <= 8
    sizes = [len(stream._block)]
    for _ in range(1500):
        stream.next_u64()
        if len(stream._block) != sizes[-1] or stream._pos == 1:
            sizes.append(len(stream._block))
    assert sizes[-1] == DRAW_BLOCK_SIZE
    for smaller, larger in zip(sizes, sizes[1:]):
        assert larger == min(2 * smaller, DRAW_BLOCK_SIZE)


def test_interleaved_tids_keep_per_thread_serial_order():
    """A multithreaded draw trace: each tid sees its own serial stream."""
    rng = PerThreadRNG(process_seed=5)
    trace = [1, 2, 1, 3, 3, 2, 1, 2, 3, 1, 1, 2] * 60  # 720 interleaved draws
    observed = {1: [], 2: [], 3: []}
    for tid in trace:
        observed[tid].append(rng.next_u64(tid))
    for tid, draws in observed.items():
        solo = PerThreadRNG(process_seed=5)
        assert draws == [solo.next_u64(tid) for _ in range(len(draws))]
