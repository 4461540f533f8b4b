"""The batched driver's inlined rules, checked against the specs.

``FastAllocDealloc`` inlines the §III-B2/§IV-A/§IV-B rules for speed
instead of calling ``repro.core.sampling``'s rule functions, and the
§III-C2 free-slot scan instead of calling ``repro.core.policies``'.
This Hypothesis state machine drives its compiled ``malloc``/``free``
through a :class:`CSODRuntime`, once per replacement policy, and keeps
a model of every context and of the four watchpoint slots that runs
only the spec functions.  After every malloc, free, canary-corrupting
free and clock advance it compares with the model each context
record's five sampler fields and its evidence pin, the object in each
of the unit's four slots, its near-FIFO pointer, and its replacement
and decline counts.  It also checks the install-time probability of
every install, and that every malloc consumes exactly one draw per
decision (revive, sampling, then the random policy's probe start) from
the allocating thread's stream.

The machine charges no time (``Machine(charge_time=False)``), so the
rules observe only the clock advances the test makes — which include
the exact end of a context's throttle window and the exact instant its
revive draw falls due.
"""

from types import SimpleNamespace

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.callstack.frames import CallSite
from repro.core import CSODConfig, CSODRuntime
from repro.core.config import POLICY_NAIVE, POLICY_NEAR_FIFO, POLICY_RANDOM
from repro.core.fastpath import FastAllocDealloc
from repro.core.policies import SLOTS, choose_slot, next_pointer
from repro.core.rng import XorShiftStream, _UNIFORM_SCALE
from repro.core.sampling import (
    SamplerState,
    allocate,
    effective,
    halve,
    pin,
    revive,
    revive_period_ns,
    throttle_window_ns,
)
from repro.heap.allocator import FreeListAllocator
from repro.heap.interpose import LibraryInterposer, RawHeap
from repro.machine.clock import NANOS_PER_SECOND
from repro.machine.machine import Machine

N_CONTEXTS = 3
N_THREADS = 2
SITES = [CallSite("SPEC", "spec.c", 10 + i, f"ctx{i}") for i in range(N_CONTEXTS)]
_CONFIG = CSODConfig()
_WINDOW_NS = throttle_window_ns(_CONFIG)
_REVIVE_NS = revive_period_ns(_CONFIG)

contexts = st.integers(min_value=0, max_value=N_CONTEXTS - 1)
threads = st.integers(min_value=0, max_value=N_THREADS - 1)
sizes = st.sampled_from((16, 48, 64, 200))


def _drawn(block: list, pos: int, stream: XorShiftStream) -> list:
    """The u64s a call drew, given the stream's block and read position
    before the call, assuming fewer than a block.  A refill replaces the
    block object, so the old one still holds its draws; an exhausted (or
    unprimed) block means the call's first draw opened a fresh one."""
    if stream._block is block:
        return block[pos : stream._pos]
    return block[pos:] + stream._block[: stream._pos]


def _uniform(value: int) -> float:
    return (value >> 11) * _UNIFORM_SCALE


class _Replay:
    """An RNG whose ``below`` replays the draws a call made."""

    def __init__(self, tid: int, values: list):
        self.tid = tid
        self.values = values

    def below(self, tid: int, bound: int) -> int:
        assert tid == self.tid  # the allocating thread's stream
        return self.values.pop(0) % bound


class FastpathSpecMachine(RuleBasedStateMachine):
    policy = POLICY_NEAR_FIFO  # the default config's

    @initialize(seed=st.integers(min_value=0, max_value=3))
    def setup(self, seed) -> None:
        machine = Machine(seed=seed, charge_time=False)
        arena = machine.map_heap_arena()
        interposer = LibraryInterposer(
            RawHeap(machine, FreeListAllocator(arena.start, arena.size))
        )
        self.config = _CONFIG.with_policy(self.policy)
        self.runtime = CSODRuntime(machine, interposer, self.config, seed=seed)
        assert isinstance(self.runtime.monitor, FastAllocDealloc)
        self.monitor = self.runtime.monitor
        self.canary = self.runtime.canary
        self.wmu = self.runtime.wmu
        self.clock = machine.clock
        self.memory = machine.memory
        self.threads = [machine.main_thread] + [
            machine.threads.create(f"w{i}") for i in range(1, N_THREADS)
        ]
        # context index -> live record / spec model (five fields + pin)
        self.records = {}
        self.models = {}
        self.live = []  # (object address, size, context index)
        # The model slot file (each slot's object address, context model
        # and install time), near-FIFO's pointer, replacements, declines.
        self.slots = [None] * SLOTS
        self.pointer = 0
        self.replaced = 0
        self.declined = 0

    # ------------------------------------------------------------------
    # Driving the compiled drivers
    # ------------------------------------------------------------------
    def _malloc(self, ctx: int, thread_index: int, size: int) -> int:
        thread = self.threads[thread_index]
        stream = self.runtime.rng.stream(thread.tid)
        block, pos = stream._block, stream._pos
        now = self.clock.now_ns
        with thread.call_stack.calling(SITES[ctx]):
            address = self.monitor.malloc(thread, size)
        self.live.append((address, size, ctx))
        record = self.canary.slot_view(self.canary.slot_of(address)).record
        assert self.records.setdefault(ctx, record) is record
        drawn = _drawn(block, pos, stream)

        # The sampler spec's step: degrade, throttle, revive timer (+ its
        # draw), the effective probability and the sampling draw.
        model = self.models.get(ctx)
        if model is None:
            model = self.models[ctx] = SimpleNamespace(
                **vars(SamplerState(_CONFIG.initial_probability)),
                overflow_observed=False,
            )
        pinned = model.overflow_observed
        if not pinned and allocate(model, now, _CONFIG):
            revive(model, _uniform(drawn.pop(0)), _CONFIG)
        probability = effective(model, pinned, now, _CONFIG)
        passed = probability >= 1.0 or _uniform(drawn.pop(0)) < probability

        # The slot spec's step, observed at ``now`` (the random policy's
        # probe start is the call's next draw).
        index = choose_slot(
            self.slots,
            model,
            passed,
            now,
            self.config,
            self.pointer,
            _Replay(thread.tid, drawn),
            thread.tid,
        )
        assert drawn == []  # no draw more or fewer than the specs'
        if index < 0 and passed:
            self.declined += 1
        elif index >= 0:
            if self.slots[index] is not None:
                self.replaced += 1
                self.pointer = next_pointer(index)
            self.slots[index] = SimpleNamespace(
                address=address, record=model, install_time_ns=now
            )
            watched = self.wmu.find_by_object_address(address)
            assert watched.install_probability == probability
            if not pinned:
                halve(model, _CONFIG)
        self._check()
        return address

    def _free(self, index: int, corrupt: bool) -> None:
        address, size, ctx = self.live.pop(index % len(self.live))
        if corrupt:
            # A raw write (no CPU access, so no trap): the free-time
            # canary check finds it and pins the context.
            self.memory.write_word(address + size, 0xDEAD)
        reports = len(self.runtime.reports)
        self.monitor.free(self.threads[0], address)
        self.slots = [
            None if slot is not None and slot.address == address else slot
            for slot in self.slots
        ]
        if corrupt:
            assert len(self.runtime.reports) == reports + 1
            model = self.models[ctx]
            model.overflow_observed = True
            pin(model)
        self._check()

    def _check(self) -> None:
        for ctx, record in self.records.items():
            model = self.models[ctx]
            assert SamplerState.of(record) == SamplerState.of(model), ctx
            assert record.overflow_observed == model.overflow_observed, ctx
        wmu = self.wmu
        assert [w and w.object_address for w in wmu._slots] == [
            slot and slot.address for slot in self.slots
        ]
        assert (wmu.replace_count, wmu.declined_count, wmu._pointer) == (
            self.replaced,
            self.declined,
            self.pointer,
        )

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(ctx=contexts, thread=threads, size=sizes)
    def malloc(self, ctx, thread, size) -> None:
        self._malloc(ctx, thread, size)

    @rule(ctx=contexts, thread=threads, size=sizes)
    def malloc_free(self, ctx, thread, size) -> None:
        self._malloc(ctx, thread, size)
        self._free(len(self.live) - 1, corrupt=False)

    @rule(ctxs=st.lists(contexts, min_size=SLOTS + 1, max_size=SLOTS + 1))
    def fill(self, ctxs) -> None:
        # More live objects than slots: the last ones find every slot
        # busy and replace or decline.
        for i, ctx in enumerate(ctxs):
            self._malloc(ctx, i % N_THREADS, 32)

    @rule(ctx=contexts)
    def burst(self, ctx) -> None:
        # One past the throttle threshold within one window.
        for _ in range(_CONFIG.throttle_alloc_threshold + 1):
            self._malloc(ctx, 0, 16)
            self._free(len(self.live) - 1, corrupt=False)

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(min_value=0, max_value=63))
    def free(self, pick) -> None:
        self._free(pick, corrupt=False)

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(min_value=0, max_value=63))
    def corrupting_free(self, pick) -> None:
        self._free(pick, corrupt=True)

    @rule(
        delta=st.sampled_from(
            (1, 2_000_000, NANOS_PER_SECOND, _WINDOW_NS - 1, _WINDOW_NS, _REVIVE_NS)
        )
    )
    def advance(self, delta) -> None:
        self.clock.advance(delta)

    @rule(ctx=contexts)
    def advance_to_window_end(self, ctx) -> None:
        record = self.records.get(ctx)
        if record is not None:
            delta = record.window_start_ns + _WINDOW_NS - self.clock.now_ns
            if delta > 0:
                self.clock.advance(delta)

    @rule(ctx=contexts)
    def advance_to_revive(self, ctx) -> None:
        record = self.records.get(ctx)
        if record is not None and record.floor_since_ns >= 0:
            delta = record.floor_since_ns + _REVIVE_NS - self.clock.now_ns
            if delta > 0:
                self.clock.advance(delta)

    @invariant()
    def unit_matches_spec(self) -> None:
        self._check()


class NaiveSpecMachine(FastpathSpecMachine):
    policy = POLICY_NAIVE


class RandomSpecMachine(FastpathSpecMachine):
    policy = POLICY_RANDOM


for _machine in (FastpathSpecMachine, NaiveSpecMachine, RandomSpecMachine):
    _machine.TestCase.settings = settings(
        max_examples=30, stateful_step_count=30, deadline=None
    )
TestFastpathSpecMachine = FastpathSpecMachine.TestCase
TestFastpathSpecMachineNaive = NaiveSpecMachine.TestCase
TestFastpathSpecMachineRandom = RandomSpecMachine.TestCase
