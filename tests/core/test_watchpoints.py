"""The Watchpoint Management Unit."""

import pytest

from repro.callstack.contexts import ContextInterner
from repro.callstack.frames import CallSite, CallStack
from repro.core.config import CSODConfig, POLICY_NAIVE, POLICY_RANDOM
from repro.core.policies import slot_probability
from repro.core.rng import RNG_DRAW_COST_NS, PerThreadRNG
from repro.core.sampling import SamplingManagementUnit, observe
from repro.core.watchpoints import WatchpointManagementUnit
from repro.machine.clock import NANOS_PER_SECOND
from repro.machine.machine import Machine

BASE = 0x7F00_0000_0000


class Harness:
    def __init__(self, policy=POLICY_RANDOM, config=None):
        self.machine = Machine(seed=5)
        self.machine.map_heap_arena()
        self.config = config or CSODConfig(replacement_policy=policy)
        self.rng = PerThreadRNG(5, self.machine.ledger)
        self.sampling = SamplingManagementUnit(
            self.config, self.machine.clock, self.rng, ContextInterner()
        )
        self.wmu = WatchpointManagementUnit(
            self.config,
            self.machine.perf,
            self.machine.threads,
            self.machine.clock,
            self.sampling,
            self.rng,
            self.machine.ledger,
        )
        self._next = BASE

    def record(self, name="ctx"):
        stack = CallStack()
        stack.push(CallSite("APP", "m.c", 1, "main"))
        stack.push(CallSite("APP", "a.c", 2, name))
        return self.sampling.on_allocation(stack)

    def watch(self, record=None, size=64, checked=True):
        record = record or self.record()
        address = self._next
        self._next += 256
        return self.wmu.try_watch(
            self.machine.main_thread,
            address,
            size,
            address + size,
            record,
            probability_checked=checked,
        )


def test_free_slot_install_regardless_of_probability():
    h = Harness()
    record = h.record()
    record.probability = 0.0  # would never pass a draw
    watched = h.watch(record, checked=False)
    assert watched is not None  # "installation due to availability"


def test_install_arms_all_alive_threads():
    h = Harness()
    h.machine.threads.create("w1")
    h.machine.threads.create("w2")
    watched = h.watch()
    assert set(watched.fds) == {t.tid for t in h.machine.threads.alive_threads()}
    for thread in h.machine.threads.alive_threads():
        assert thread.debug_registers.free_slots() == 3


def test_install_halves_context_probability():
    h = Harness()
    record = h.record()
    before = record.probability
    h.watch(record)
    assert record.probability == pytest.approx(before / 2)


def test_install_captures_install_probability():
    h = Harness()
    record = h.record()
    before = h.sampling.effective_probability(record)
    watched = h.watch(record)
    assert watched.install_probability == pytest.approx(before)


def test_four_slots_then_replacement():
    h = Harness()
    for _ in range(4):
        assert h.watch() is not None
    assert h.wmu.free_slots() == 0
    # A fifth candidate with a strong record preempts a halved slot.
    strong = h.record("fresh")
    watched = h.watch(strong)
    assert watched is not None
    assert h.wmu.replace_count == 1


def test_replacement_requires_probability_check():
    h = Harness()
    for _ in range(4):
        h.watch()
    blocked = h.watch(h.record("fresh"), checked=False)
    assert blocked is None


def test_naive_policy_never_replaces():
    h = Harness(policy=POLICY_NAIVE)
    for _ in range(4):
        h.watch()
    assert h.watch(h.record("fresh")) is None
    assert h.wmu.declined_count == 1


def test_weak_candidate_declined():
    h = Harness()
    for _ in range(4):
        h.watch()
    weak = h.record("weak")
    weak.probability = 1e-5
    assert h.watch(weak) is None


def test_deallocation_removes_watch():
    h = Harness()
    watched = h.watch()
    assert h.wmu.on_deallocation(watched.object_address)
    assert h.wmu.free_slots() == 4
    assert h.machine.main_thread.debug_registers.free_slots() == 4


def test_deallocation_of_unwatched_is_noop():
    h = Harness()
    h.watch()
    assert not h.wmu.on_deallocation(0xDEAD)


def test_find_by_object_address():
    h = Harness()
    watched = h.watch()
    assert h.wmu.find_by_object_address(watched.object_address) is watched
    assert h.wmu.find_by_object_address(0x1) is None


def test_find_by_fd_matches_one_by_one():
    h = Harness()
    watched = h.watch()
    fd = next(iter(watched.fds.values()))
    assert h.wmu.find_by_fd(fd) is watched
    assert h.wmu.fd_comparisons >= 1
    assert h.wmu.find_by_fd(999999) is None


def test_new_thread_gets_existing_watchpoints():
    h = Harness()
    watched = h.watch()
    late = h.machine.threads.create("late")
    assert late.tid in watched.fds
    assert late.debug_registers.free_slots() == 3


def test_thread_exit_drops_fd():
    h = Harness()
    worker = h.machine.threads.create("w")
    watched = h.watch()
    assert worker.tid in watched.fds
    h.machine.threads.exit(worker.tid)
    assert worker.tid not in watched.fds


def test_ageing_halves_slot_probability():
    h = Harness()
    watched = h.watch()

    def probability():
        return slot_probability(watched, h.machine.clock.now_ns, h.config)

    base = probability()
    h.machine.clock.advance(int(10.5 * NANOS_PER_SECOND))
    assert probability() == pytest.approx(base / 2)
    h.machine.clock.advance(int(10 * NANOS_PER_SECOND))
    assert probability() == pytest.approx(base / 4)


def test_probabilities_are_read_before_the_random_draw():
    """One unpinned slot reaches its ageing period inside the draw's
    15 ns charge: read before the draw it is still as strong as the
    candidate, so the candidate declines."""
    h = Harness(policy=POLICY_RANDOM)  # a charging clock
    slots = [h.watch(h.record(f"slot{i}")) for i in range(4)]
    for watched in slots[:3]:
        observe(watched.record)  # never below a candidate
    quiet = slots[3]
    quiet.record.probability = 0.4
    candidate = h.record("candidate")
    candidate.probability = 0.3

    period = int(h.config.watchpoint_age_seconds * NANOS_PER_SECOND)
    before = quiet.install_time_ns + period - RNG_DRAW_COST_NS // 2
    after = before + RNG_DRAW_COST_NS
    assert slot_probability(quiet, before, h.config) == 0.4
    assert slot_probability(quiet, after, h.config) == 0.2
    h.machine.clock.advance(before - h.machine.clock.now_ns)
    assert h.watch(candidate) is None
    assert h.machine.clock.now_ns == after  # the draw was made and charged
    assert (h.wmu.declined_count, h.wmu.replace_count) == (1, 0)
    assert h.wmu.watched_objects() == slots


def test_remove_all():
    h = Harness()
    for _ in range(3):
        h.watch()
    h.wmu.remove_all()
    assert h.wmu.free_slots() == 4
    assert h.machine.perf.enabled_event_count() == 0


def test_install_counts_per_thread_syscalls():
    h = Harness()
    h.machine.threads.create("w")
    before = h.machine.ledger.count("syscall")
    h.watch()
    # open + 4 fcntl + 1 ioctl = 6 syscalls per thread, two threads.
    assert h.machine.ledger.count("syscall") - before == 12
