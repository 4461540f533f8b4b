"""The abstract detection model.

Replays a :class:`~repro.workloads.base.BuggyAppSpec` schedule against
*only* the sampling mathematics: per-context probabilities under
``repro.core.sampling``'s §III-B2/§IV-A rules and four abstract
watchpoint slots under ``repro.core.policies``' §III-C2 slot decision
(the same functions the live units run), and the victim's fate at the
overflow access.  No heap, no syscalls, no canaries — which makes it
roughly an order of magnitude faster than the full simulation while
agreeing with its detection rates (the test suite cross-checks this).

Every draw comes from the main thread's stream (tid 1), as in a live
single-threaded run.  Statistical agreement is the contract: individual
executions use their own RNG stream and will not match the full
simulation run-for-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import CSODConfig
from repro.core.policies import SLOTS, choose_slot, next_pointer
from repro.core.rng import PerThreadRNG
from repro.core.sampling import allocate, effective, halve, observe, revive
from repro.workloads.base import BuggyAppSpec, SyntheticBuggyApp

# The live main thread's tid: the stream every abstract draw consumes.
_MAIN_TID = 1


@dataclass(slots=True)
class _AbstractContext:
    probability: float
    allocation_count: int = 0
    watch_count: int = 0
    window_start_ns: int = 0
    window_alloc_count: int = 0
    throttled_until_ns: int = 0
    floor_since_ns: int = -1
    overflow_observed: bool = False  # pinned by a trap (§IV-B)


@dataclass
class _AbstractSlot:
    record: _AbstractContext
    event_index: int
    install_time_ns: int


class AbstractDetector:
    """One abstract execution of one buggy application."""

    def __init__(
        self,
        spec: BuggyAppSpec,
        config: Optional[CSODConfig] = None,
        seed: int = 0,
        _app: Optional[SyntheticBuggyApp] = None,
    ):
        self.spec = spec
        self.config = config or CSODConfig()
        self.seed = seed
        self._app = _app or SyntheticBuggyApp(spec)
        self._rng = PerThreadRNG(seed)
        self._pointer = 0  # near-FIFO's (repro.core.policies.next_pointer)
        self._contexts: Dict[int, _AbstractContext] = {}
        self._slots: List[Optional[_AbstractSlot]] = [None] * SLOTS
        self._now_ns = 0
        self.watched_times = 0

    # ------------------------------------------------------------------
    # Sampling rules (repro.core.sampling's spec)
    # ------------------------------------------------------------------
    def _context(self, context_id: int) -> _AbstractContext:
        ctx = self._contexts.get(context_id)
        if ctx is None:
            ctx = _AbstractContext(probability=self.config.initial_probability)
            self._contexts[context_id] = ctx
        return ctx

    def _on_allocation(self, context_id: int) -> _AbstractContext:
        ctx = self._context(context_id)
        ctx.allocation_count += 1
        if not ctx.overflow_observed and allocate(ctx, self._now_ns, self.config):
            revive(ctx, self._rng.uniform(tid=_MAIN_TID), self.config)
        return ctx

    def _effective(self, ctx: _AbstractContext) -> float:
        return effective(ctx, ctx.overflow_observed, self._now_ns, self.config)

    def _on_watched(self, ctx: _AbstractContext) -> None:
        ctx.watch_count += 1
        self.watched_times += 1
        if not ctx.overflow_observed:
            halve(ctx, self.config)

    # ------------------------------------------------------------------
    # The abstract execution
    # ------------------------------------------------------------------
    def run(self) -> bool:
        """True iff the overflow access would fire a watchpoint."""
        events = self._app._events_for_run(self.seed)
        victim_index = next(i for i, e in enumerate(events) if e.is_victim)
        pending_frees: Dict[int, List[int]] = {}
        detected = False
        work_ns = self.spec.work_ns_per_alloc

        for event in events:
            for index in pending_frees.pop(event.index, ()):
                self._free_slot_for(index)
            ctx = self._on_allocation(event.context_id)
            draw = self._rng.uniform(tid=_MAIN_TID) < self._effective(ctx)
            self._try_watch(event.index, ctx, draw)
            if event.free_after is not None:
                pending_frees.setdefault(event.free_after, []).append(event.index)
            self._now_ns += work_ns
            if event.index + 1 == self.spec.before_allocations:
                detected = self._victim_watched(victim_index)
                if detected:
                    # A real trap pins the context (§IV-B persistence).
                    observe(self._contexts[0])
        return detected

    def _victim_watched(self, victim_index: int) -> bool:
        return any(
            slot is not None and slot.event_index == victim_index
            for slot in self._slots
        )

    def _free_slot_for(self, event_index: int) -> None:
        for i, slot in enumerate(self._slots):
            if slot is not None and slot.event_index == event_index:
                self._slots[i] = None
                return

    def _try_watch(self, event_index, ctx, draw_passed) -> None:
        slots = self._slots
        index = choose_slot(
            slots,
            ctx,
            draw_passed,
            self._now_ns,
            self.config,
            self._pointer,
            self._rng,
            _MAIN_TID,
        )
        if index < 0:
            return
        if slots[index] is not None:
            self._pointer = next_pointer(index)
        self._install(index, event_index, ctx)

    def _install(self, slot_index, event_index, ctx) -> None:
        self._slots[slot_index] = _AbstractSlot(
            record=ctx,
            event_index=event_index,
            install_time_ns=self._now_ns,
        )
        self._on_watched(ctx)


def estimate_detection_rate(
    spec: BuggyAppSpec,
    config: Optional[CSODConfig] = None,
    runs: int = 200,
    seed_base: int = 0,
) -> float:
    """Monte-Carlo detection-rate estimate over ``runs`` abstract runs."""
    app = SyntheticBuggyApp(spec)
    hits = 0
    for seed in range(seed_base, seed_base + runs):
        detector = AbstractDetector(spec, config, seed=seed, _app=app)
        hits += detector.run()
    return hits / runs
