"""The batched driver's inlined sampler rules, checked against the spec.

``FastAllocDealloc`` inlines the §III-B2/§IV-A/§IV-B rules for speed
instead of calling ``repro.core.sampling``'s rule functions.  This
Hypothesis state machine drives its compiled ``malloc``/``free`` through
a default-config :class:`CSODRuntime` and keeps a model of every
context that runs only the spec functions.  After every malloc, free,
canary-corrupting free and clock advance it compares each context
record's five sampler fields and its evidence pin with the model.  It
also checks the install-time probability of every availability install,
and that such a malloc consumes exactly one draw per decision (revive,
then sampling) from the allocating thread's stream.

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
from repro.core.fastpath import FastAllocDealloc
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


def _first_draw(stream: XorShiftStream, block: list, pos: int) -> float:
    """The first ``uniform()`` a call drew, given the stream's block and
    read position before the call.  A refill replaces the block object,
    so the old one still holds its draws; an exhausted (or unprimed)
    block means the call's first draw opened a fresh one."""
    if pos < len(block):
        return (block[pos] >> 11) * _UNIFORM_SCALE
    return (stream._block[0] >> 11) * _UNIFORM_SCALE


def _draws_between(block: list, pos: int, stream: XorShiftStream) -> int:
    """Draws consumed since (block, pos), assuming fewer than a block."""
    if stream._block is block:
        return stream._pos - pos
    return len(block) - pos + stream._pos


class FastpathSpecMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(min_value=0, max_value=3))
    def setup(self, seed) -> None:
        machine = Machine(seed=seed, charge_time=False)
        arena = machine.map_heap_arena()
        interposer = LibraryInterposer(
            RawHeap(machine, FreeListAllocator(arena.start, arena.size))
        )
        self.runtime = CSODRuntime(machine, interposer, _CONFIG, seed=seed)
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

    # ------------------------------------------------------------------
    # Driving the compiled drivers
    # ------------------------------------------------------------------
    def _malloc(self, ctx: int, thread_index: int, size: int) -> int:
        thread = self.threads[thread_index]
        stream = self.runtime.rng.stream(thread.tid)
        block, pos = stream._block, stream._pos
        free_before = self.wmu.free_slots()
        now = self.clock.now_ns
        with thread.call_stack.calling(SITES[ctx]):
            address = self.monitor.malloc(thread, size)
        self.live.append((address, size, ctx))
        record = self.canary.slot_view(self.canary.slot_of(address)).record
        assert self.records.setdefault(ctx, record) is record

        # The spec's step: degrade, throttle, revive timer (+ the draw the
        # driver made first), the effective probability, the halving.
        model = self.models.get(ctx)
        if model is None:
            model = self.models[ctx] = SimpleNamespace(
                **vars(SamplerState(_CONFIG.initial_probability)), pinned=False
            )
        draws = 0
        if not model.pinned and allocate(model, now, _CONFIG):
            revive(model, _first_draw(stream, block, pos), _CONFIG)
            draws += 1
        probability = effective(model, model.pinned, now, _CONFIG)
        watched = self.wmu.find_by_object_address(address)
        if free_before:
            # Installation due to availability: draw or no draw, and at
            # the probability the spec gives before the halving.
            assert watched is not None
            assert watched.install_probability == probability
            draws += probability < 1.0
            assert _draws_between(block, pos, stream) == draws
        if watched is not None and not model.pinned:
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
        if corrupt:
            assert len(self.runtime.reports) == reports + 1
            model = self.models[ctx]
            model.pinned = True
            pin(model)
        self._check()

    def _check(self) -> None:
        for ctx, record in self.records.items():
            model = self.models[ctx]
            assert SamplerState.of(record) == SamplerState.of(model), ctx
            assert record.overflow_observed == model.pinned, ctx

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
    def records_match_spec(self) -> None:
        self._check()


FastpathSpecMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestFastpathSpecMachine = FastpathSpecMachine.TestCase
