"""The batched driver's inlined rules, checked against the specs.

``FastAllocDealloc`` inlines the §III-B2/§IV-A rules for speed instead
of calling ``repro.core.sampling``'s rule functions, the §III-C2
free-slot scan instead of calling ``repro.core.policies``', and §IV-B's
corruption test at free (a page-direct read of the header identifier
and canary words) instead of calling ``repro.core.evidence.corrupted``.
This Hypothesis state machine drives its compiled ``malloc``/``free``,
the shared realloc and the exit sweep through a :class:`CSODRuntime`,
once per replacement policy, and keeps a model of every context, of the
four watchpoint slots and of each live object's evidence words that
runs only the spec functions.  After every step it compares with the
model each context record's five sampler fields and its evidence pin,
the object in each of the unit's four slots, its near-FIFO pointer, and
its replacement and decline counts.  It also checks the install-time
probability of every install, and that every sampling decision consumes
exactly one draw per decision (revive, sampling, then the random
policy's probe start) from the deciding thread's stream.

Evidence: a raw write corrupts a live object's canary word or its
header identifier, as the previous object's overrun would.  A free, a
realloc shrink (which verifies before it abandons the old canary) and
the exit sweep must report exactly the corrupted objects, as the
evidence spec builds the report, and pin their contexts.  A free may
first read another mapped region, which moves the address space's hot
region off the heap, so its corruption test takes the fallback read
instead of the page-direct one.  The exit sweep persists, and the
machine then starts a second runtime over the same file, whose contexts
must start pinned exactly when their signatures were persisted.

The machine charges no time (``Machine(charge_time=False)``), so the
rules observe only the clock advances the test makes — which include
the exact end of a context's throttle window and the exact instant its
revive draw falls due.
"""

import os
import shutil
import tempfile
from dataclasses import fields, replace
from operator import attrgetter
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
from repro.core.evidence import load_persisted
from repro.core.fastpath import FastAllocDealloc
from repro.core.policies import SLOTS, choose_slot, next_pointer
from repro.core.reporting import (
    KIND_OVER_WRITE,
    SOURCE_EXIT_CANARY,
    SOURCE_FREE_CANARY,
)
from repro.core.rng import XorShiftStream, _UNIFORM_SCALE
from repro.core.sampling import (
    SamplerState,
    allocate,
    context_signature,
    effective,
    halve,
    observe,
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

# A mapped page away from the heap: reading it moves the hot region.
_OTHER_BASE = 0x1000_0000
# A context's five sampler fields and its evidence pin, as one tuple.
_STATE = attrgetter(*(f.name for f in fields(SamplerState)), "overflow_observed")

contexts = st.integers(min_value=0, max_value=N_CONTEXTS - 1)
threads = st.integers(min_value=0, max_value=N_THREADS - 1)
sizes = st.sampled_from((16, 48, 64, 200))
picks = st.integers(min_value=0, max_value=63)
words = st.sampled_from(("canary", "identifier"))


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
        assert tid == self.tid  # the deciding thread's stream
        return self.values.pop(0) % bound


class FastpathSpecMachine(RuleBasedStateMachine):
    policy = POLICY_NEAR_FIFO  # the default config's

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="fastpath-spec-")

    def teardown(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    @initialize(seed=st.integers(min_value=0, max_value=3))
    def setup(self, seed) -> None:
        self.config = replace(
            _CONFIG.with_policy(self.policy),
            persistence_path=os.path.join(self.dir, "evidence.json"),
        )
        # The signatures the persistence file must hold, and each
        # context's signature once seen.
        self.persisted = set()
        self.signatures = {}
        self._start(seed)

    def _start(self, seed: int) -> None:
        """A fresh process and runtime over the persistence file."""
        self.seed = seed
        machine = Machine(seed=seed, charge_time=False)
        arena = machine.map_heap_arena()
        machine.memory.map_region(_OTHER_BASE, 4096, name="other")
        interposer = LibraryInterposer(
            RawHeap(machine, FreeListAllocator(arena.start, arena.size))
        )
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
        # Live objects in allocation (= registry) order, each with the
        # evidence words a raw write has corrupted.
        self.live = []
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
        self.live.append(
            SimpleNamespace(address=address, size=size, ctx=ctx, bad=set())
        )
        record = self.canary.slot_view(self.canary.slot_of(address)).record
        assert self.records.setdefault(ctx, record) is record
        drawn = _drawn(block, pos, stream)

        # The sampler spec's step: degrade, throttle, revive timer (+ its
        # draw); a context persisted by an earlier run starts observed.
        model = self.models.get(ctx)
        if model is None:
            model = self.models[ctx] = SimpleNamespace(
                **vars(SamplerState(_CONFIG.initial_probability)),
                overflow_observed=False,
            )
            signature = context_signature(record.context)
            if self.signatures.setdefault(ctx, signature) in self.persisted:
                observe(model)
        if not model.overflow_observed and allocate(model, now, _CONFIG):
            revive(model, _uniform(drawn.pop(0)), _CONFIG)
        self._watch(model, address, thread.tid, now, drawn)
        return address

    def _watch(self, model, address: int, tid: int, now: int, drawn: list) -> None:
        """The effective probability, the sampling draw and the slot
        spec's step, observed at ``now`` (the random policy's probe start
        is the call's next draw)."""
        pinned = model.overflow_observed
        probability = effective(model, pinned, now, _CONFIG)
        passed = probability >= 1.0 or _uniform(drawn.pop(0)) < probability
        index = choose_slot(
            self.slots,
            model,
            passed,
            now,
            self.config,
            self.pointer,
            _Replay(tid, drawn),
            tid,
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

    def _corrupt(self, entry, word: str) -> None:
        # A raw write (no CPU access, so no trap): only the evidence
        # check can find it.
        if word == "canary":
            self.memory.write_word(entry.address + entry.size, 0xDEAD)
        else:  # the header identifier, as the previous object's overrun
            self.memory.write_word(entry.address - 8, 0)
        entry.bad.add(word)

    def _free(self, index: int, off_hot: bool) -> None:
        entry = self.live.pop(index % len(self.live))
        if off_hot:
            # The hot region leaves the heap, so the free's corruption
            # test takes its fallback read, not the page-direct one.
            self.memory.read_word(_OTHER_BASE)
            assert self.memory._hot_start == _OTHER_BASE
        before = len(self.runtime.reports)
        self.monitor.free(self.threads[0], entry.address)
        self._vacate(entry.address)
        self._expect(before, [entry], SOURCE_FREE_CANARY, self.threads[0].tid)
        self._check()

    def _vacate(self, address: int) -> None:
        self.slots = [
            None if slot is not None and slot.address == address else slot
            for slot in self.slots
        ]

    def _expect(self, before: int, entries, source: str, tid: int) -> None:
        """The reports since ``before`` are the evidence spec's, one per
        corrupted entry in order, and each reported context is observed."""
        bad = [entry for entry in entries if entry.bad]
        reports = self.runtime.reports[before:]
        assert len(reports) == len(bad)
        for report, entry in zip(reports, bad):
            assert (
                report.kind,
                report.source,
                report.thread_id,
                report.object_address,
                report.object_size,
                report.fault_address,
                report.time_ns,
            ) == (
                KIND_OVER_WRITE,
                source,
                tid,
                entry.address,
                entry.size,
                entry.address + entry.size,
                self.clock.now_ns,
            )
            assert report.allocation_context is self.records[entry.ctx].context
            observe(self.models[entry.ctx])

    def _check(self) -> None:
        for ctx, record in self.records.items():
            assert _STATE(record) == _STATE(self.models[ctx]), ctx
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
        self._free(len(self.live) - 1, off_hot=False)

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
            self._free(len(self.live) - 1, off_hot=False)

    @precondition(lambda self: self.live)
    @rule(pick=picks, off_hot=st.booleans())
    def free(self, pick, off_hot) -> None:
        self._free(pick, off_hot)

    @precondition(lambda self: self.live)
    @rule(pick=picks, word=words, off_hot=st.booleans())
    def corrupting_free(self, pick, word, off_hot) -> None:
        self._corrupt(self.live[pick % len(self.live)], word)
        self._free(pick, off_hot)

    @precondition(lambda self: self.live)
    @rule(pick=picks, word=words)
    def corrupt(self, pick, word) -> None:
        self._corrupt(self.live[pick % len(self.live)], word)

    @precondition(lambda self: self.live)
    @rule(pick=picks, thread=threads, new_size=st.sampled_from((8, 16, 40, 200)))
    def realloc_shrink(self, pick, thread, new_size) -> None:
        entry = self.live[pick % len(self.live)]
        new_size = min(new_size, entry.size)
        thread = self.threads[thread]
        stream = self.runtime.rng.stream(thread.tid)
        block, pos = stream._block, stream._pos
        now = self.clock.now_ns
        before = len(self.runtime.reports)
        assert self.monitor.realloc(thread, entry.address, new_size) == entry.address
        # Verified before the shrink abandons the old canary; then the
        # watch moves to the new boundary with one sampling decision and
        # no allocation step.
        self._expect(before, [entry], SOURCE_FREE_CANARY, thread.tid)
        self._vacate(entry.address)
        entry.size = new_size
        entry.bad.discard("canary")  # a fresh canary at the new end
        self._watch(
            self.models[entry.ctx],
            entry.address,
            thread.tid,
            now,
            _drawn(block, pos, stream),
        )

    @rule()
    def exit_and_rerun(self) -> None:
        # The exit sweep reports every corrupted live object in registry
        # order and then persists; the next process preloads the file.
        before = len(self.runtime.reports)
        self.runtime.shutdown()
        self._expect(before, self.live, SOURCE_EXIT_CANARY, -1)
        self.slots = [None] * SLOTS  # shutdown removes every watchpoint
        self._check()
        self.persisted |= {
            self.signatures[ctx]
            for ctx, model in self.models.items()
            if model.overflow_observed
        }
        assert load_persisted(self.config.persistence_path) == self.persisted
        self._start(self.seed + 1)

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
