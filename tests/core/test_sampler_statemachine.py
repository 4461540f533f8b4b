"""Stateful (rule-based) exploration of the sampling + watchpoint units.

Hypothesis drives arbitrary interleavings of allocations, watch
attempts, clock advances, frees, and evidence boosts against a live
``SamplingManagementUnit`` + ``WatchpointManagementUnit`` pair, checking
after every step that

* every context's probability stays inside ``[floor, 1.0]``,
* evidence-pinned contexts stay pinned at exactly 1.0,
* at most ``NUM_USABLE_DEBUG_REGISTERS`` watchpoints are ever armed,
* each un-pinned context tracks the pure ``SamplerState`` transition
  model (``repro.core.sampling``) field-for-field — the same model the
  adversarial solver searches, so any divergence Hypothesis can reach
  would invalidate its witnesses.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.callstack.contexts import ContextInterner
from repro.callstack.frames import CallSite, CallStack
from repro.core.config import CSODConfig
from repro.core.rng import PerThreadRNG
from repro.core.sampling import (
    SamplerState,
    SamplingManagementUnit,
    allocation_transition,
    initial_state,
    observe,
    watch_transition,
)
from repro.core.watchpoints import WatchpointManagementUnit
from repro.machine.clock import NANOS_PER_SECOND
from repro.machine.debug_registers import NUM_USABLE_DEBUG_REGISTERS
from repro.machine.machine import Machine

BASE = 0x7F00_0000_0000
N_CONTEXTS = 3

# A fixed draw: revive draws fail (0.75 >= revive_chance) and the
# replacement policy stays deterministic, so the pure model — which
# treats the draw as a free variable — predicts the live unit exactly.
_FIXED_DRAW = 0.75

contexts = st.integers(min_value=0, max_value=N_CONTEXTS - 1)


class SamplerMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.machine = Machine(seed=11)
        self.machine.map_heap_arena()
        self.config = CSODConfig()
        self.rng = PerThreadRNG(11, self.machine.ledger)
        self.rng.uniform = lambda tid: _FIXED_DRAW
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
        self.stacks = []
        for i in range(N_CONTEXTS):
            s = CallStack()
            s.push(CallSite("APP", "m.c", 1, "main"))
            s.push(CallSite("APP", "a.c", 10 + i, f"ctx{i}"))
            self.stacks.append(s)
        self.records = {}
        self.models = {i: initial_state(self.config) for i in range(N_CONTEXTS)}
        self.pinned = set()
        self.armed_addresses = []
        self.next_address = BASE

    def _allocate(self, ctx: int, watched: bool) -> None:
        record = self.sampling.on_allocation(self.stacks[ctx])
        self.records[ctx] = record
        if watched:
            self.sampling.on_watched(record)
        if ctx not in self.pinned:
            self.models[ctx], _ = allocation_transition(
                self.models[ctx],
                self.machine.clock.now_ns,
                self.config,
                watched=watched,
            )

    @rule(ctx=contexts)
    def allocate(self, ctx) -> None:
        self._allocate(ctx, watched=False)

    @rule(ctx=contexts)
    def allocate_watched(self, ctx) -> None:
        self._allocate(ctx, watched=True)

    @rule(ctx=contexts, checked=st.booleans())
    def try_watch(self, ctx, checked) -> None:
        self._allocate(ctx, watched=False)
        address = self.next_address
        self.next_address += 256
        watched = self.wmu.try_watch(
            self.machine.main_thread,
            address,
            64,
            address + 64,
            self.records[ctx],
            probability_checked=checked,
        )
        if watched is not None:
            # Replacement may silently evict entries later; a stale
            # address just makes on_deallocation a no-op, which is fine.
            self.armed_addresses.append(address)
            # Installation halves the context's probability (the WMU
            # calls on_watched itself); mirror it.
            if ctx not in self.pinned:
                self.models[ctx] = watch_transition(
                    self.models[ctx], self.config
                )

    @rule(
        delta=st.sampled_from(
            (1, 1_000_000, NANOS_PER_SECOND, 10 * NANOS_PER_SECOND,
             31 * NANOS_PER_SECOND)
        )
    )
    def advance_clock(self, delta) -> None:
        self.machine.clock.advance(delta)

    @rule(pick=st.integers(min_value=0, max_value=7))
    def free_watched(self, pick) -> None:
        if not self.armed_addresses:
            return
        address = self.armed_addresses.pop(pick % len(self.armed_addresses))
        self.wmu.on_deallocation(address)

    @rule(ctx=contexts)
    def observe(self, ctx) -> None:
        if ctx not in self.records:
            self._allocate(ctx, watched=False)
        observe(self.records[ctx])
        self.pinned.add(ctx)

    @invariant()
    def probabilities_bounded(self) -> None:
        floor = self.config.floor_probability
        for record in self.records.values():
            assert floor <= record.probability <= 1.0

    @invariant()
    def pinned_stay_pinned(self) -> None:
        for ctx in self.pinned:
            record = self.records[ctx]
            assert record.probability == 1.0
            assert self.sampling.effective_probability(record) == 1.0

    @invariant()
    def armed_within_register_budget(self) -> None:
        armed = sum(1 for slot in self.wmu._slots if slot is not None)
        assert armed <= NUM_USABLE_DEBUG_REGISTERS

    @invariant()
    def model_parity(self) -> None:
        for ctx, record in self.records.items():
            if ctx in self.pinned:
                continue
            assert SamplerState.of(record) == self.models[ctx]


SamplerMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
TestSamplerMachine = SamplerMachine.TestCase
