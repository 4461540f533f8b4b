"""The Sampling Management Unit (§III-B, §IV-A) and its executable spec.

Every allocation calling context carries a watch probability that the
unit adapts online:

* **initialization** — every new context starts at 50%;
* **degradation on each allocation** — minus 0.001 percentage points per
  allocation, so high-traffic contexts fade;
* **degradation after each watch** — halved every time an object from
  the context is watched, so scarce watchpoints rotate toward contexts
  with fewer allocations (the SWAT insight the paper cites);
* **floor** — never below 0.001%, so every context keeps some chance;
* **throttle** — more than 5,000 allocations within a 10-second window
  drop the context to 0.0001% until the window elapses;
* **reviving** (§IV-A) — floor-bound contexts are randomly boosted back
  to 0.01% after a period, partially handling input-dependent bugs;
* **evidence boost** (§IV-B) — a context with observed overflow evidence
  is pinned at 100% (:func:`observe`); what counts as evidence is
  ``repro.core.evidence``'s spec, which builds on this module.

Each rule is written exactly once, below, as a function that updates in
place any object carrying the five sampler fields (``probability``,
``window_start_ns``, ``window_alloc_count``, ``throttled_until_ns``,
``floor_since_ns``).  :class:`SamplingManagementUnit`, the slot
decision's ageing (``repro.core.policies``),
``repro.analysis.AbstractDetector`` and the adversarial solver all run
these functions; the frozen :class:`SamplerState` is only
the solver's hashable snapshot of them.  The batched driver
(``repro.core.fastpath``) inlines the same arithmetic for speed, and
``tests/core/test_fastpath_spec.py`` checks it against these functions
step by step.

``on_allocation`` runs on *every* interposed allocation, so the unit
keeps a one-entry per-thread (key → record) cache: repeated allocations
from the same site skip the global hash-table walk entirely while still
charging the simulated lookup cost.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.callstack.contexts import CallingContext, ContextInterner, ContextKey
from repro.core.config import CSODConfig
from repro.core.context_key import ContextHashTable
from repro.core.rng import PerThreadRNG
from repro.machine.clock import NANOS_PER_SECOND, VirtualClock


# ----------------------------------------------------------------------
# The spec: §III-B2 / §IV-A / §IV-B, one function per rule
# ----------------------------------------------------------------------
def throttle_window_ns(config: CSODConfig) -> int:
    return int(config.throttle_window_seconds * NANOS_PER_SECOND)


def revive_period_ns(config: CSODConfig) -> int:
    return int(config.revive_period_seconds * NANOS_PER_SECOND)


def degrade(state, config: CSODConfig) -> None:
    """Degradation on each allocation: minus one step, floor-clamped."""
    floor = config.floor_probability
    probability = state.probability - config.degradation_per_alloc
    state.probability = floor if probability < floor else probability


def throttle(state, now_ns: int, config: CSODConfig) -> None:
    """Count the allocation in its throttle window; engage past the limit.

    Windows are half-open [start, start + window): an allocation landing
    exactly at start + window opens the next window and is counted
    there, consistent with :func:`throttled`, under which a throttle
    expiring at that same instant no longer applies.
    """
    window_ns = throttle_window_ns(config)
    if now_ns - state.window_start_ns >= window_ns:
        state.window_start_ns = now_ns
        state.window_alloc_count = 0
    state.window_alloc_count += 1
    if state.window_alloc_count > config.throttle_alloc_threshold and not throttled(
        state, now_ns
    ):
        # Throttle until the current window elapses; afterwards the
        # probability returns to the lower bound (§III-B2).
        state.throttled_until_ns = state.window_start_ns + window_ns
        state.probability = config.floor_probability


def revive_due(state, now_ns: int, config: CSODConfig) -> bool:
    """The revive timer (§IV-A); True when this allocation owes a draw.

    The caller makes the draw from the *allocating* thread's stream and
    hands it to :func:`revive`.
    """
    if state.probability > config.floor_probability:
        state.floor_since_ns = -1
        return False
    if state.floor_since_ns < 0:
        state.floor_since_ns = now_ns
        return False
    if now_ns - state.floor_since_ns < revive_period_ns(config):
        return False
    state.floor_since_ns = now_ns
    return True


def revive(state, draw: float, config: CSODConfig) -> None:
    """A due revive draw: a fraction of floor-bound contexts come back."""
    if draw < config.revive_chance:
        state.probability = config.revive_probability


def halve(state, config: CSODConfig) -> None:
    """Degradation after each watch, clamped to [floor, 1.0]."""
    probability = state.probability * config.watch_degradation_factor
    floor = config.floor_probability
    if probability < floor:
        probability = floor
    elif probability > 1.0:
        probability = 1.0
    state.probability = probability


def pin(state) -> None:
    """Evidence observed: pin at 100% (§IV-B).

    The context is no longer floor-bound or throttled; stale floor
    bookkeeping must not make it eligible for a revive draw (which would
    waste a random number and perturb per-thread draw order).
    """
    state.probability = 1.0
    state.throttled_until_ns = 0
    state.floor_since_ns = -1


def observe(record) -> None:
    """Evidence observed (§IV-B): flag the context and pin it for good.

    A flagged context is never degraded again, and its signature joins
    the persisted set (``repro.core.evidence``).
    """
    record.overflow_observed = True
    pin(record)


def throttled(state, now_ns: int) -> bool:
    """Does an engaged throttle still apply at ``now_ns``?"""
    return state.throttled_until_ns > now_ns


def effective(state, pinned: bool, now_ns: int, config: CSODConfig) -> float:
    """The probability a draw is made against: the pin, then the throttle."""
    if pinned:
        return 1.0
    if throttled(state, now_ns):
        return config.throttle_probability
    return state.probability


def aged(probability: float, age_ns: int, config: CSODConfig) -> float:
    """A watched object's probability, halved per full ageing period.

    Long-watched, quiet objects become progressively easier to evict
    (§III-C2).
    """
    period_ns = int(config.watchpoint_age_seconds * NANOS_PER_SECOND)
    if period_ns <= 0 or age_ns < period_ns:
        return probability
    return probability * (0.5 ** min(age_ns // period_ns, 60))


def allocate(state, now_ns: int, config: CSODConfig, watched: bool = False) -> bool:
    """One un-pinned allocation step: degrade, throttle, revive timer,
    then (when the object ends up watched) the watch halving.

    Returns whether the step owes a revive draw; the draw itself happens
    between the timer and the halving.
    """
    degrade(state, config)
    throttle(state, now_ns, config)
    due = revive_due(state, now_ns, config)
    if watched:
        halve(state, config)
    return due


@dataclass(slots=True)
class ContextRecord:
    """Mutable per-context sampling state."""

    key: ContextKey
    context: CallingContext
    probability: float
    allocation_count: int = 0
    watch_count: int = 0
    # Throttle window bookkeeping.
    window_start_ns: int = 0
    window_alloc_count: int = 0
    throttled_until_ns: int = 0
    # Reviving bookkeeping.
    floor_since_ns: int = -1
    # Evidence: once an overflow is observed for this context, the
    # probability is pinned to 1.0 and never degraded again.
    overflow_observed: bool = False

    def pinned(self) -> bool:
        return self.overflow_observed


class SamplingManagementUnit:
    """Owns the probability table and runs the spec's rules over it."""

    def __init__(
        self,
        config: CSODConfig,
        clock: VirtualClock,
        rng: PerThreadRNG,
        interner: ContextInterner,
        table: Optional[ContextHashTable] = None,
    ):
        self._config = config
        self._clock = clock
        self._rng = rng
        self._interner = interner
        self._table: ContextHashTable[ContextRecord] = (
            table if table is not None else ContextHashTable()
        )
        # Stable signatures of contexts known (from persisted evidence)
        # to overflow; applied when the context is first seen.
        self._known_bad_signatures: Set[str] = set()
        self.total_allocations_seen = 0
        # One-entry (key → record) cache per thread, as
        # (first_ra, stack_offset, record, context_depth) tuples.  A
        # key's record is created exactly once and never replaced, so
        # entries can never go stale; the cache only short-circuits the
        # Python-level table walk — the simulated lookup cost is still
        # charged.  The cached depth lets the batched driver's collision
        # accounting skip the CallingContext property hop.
        self._thread_cache: Dict[int, Tuple[int, int, ContextRecord, int]] = {}

    # ------------------------------------------------------------------
    # Persisted evidence
    # ------------------------------------------------------------------
    def preload_known_bad(self, signatures: Set[str]) -> None:
        """Install signatures persisted by a previous execution."""
        self._known_bad_signatures |= signatures

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def on_allocation(self, stack, tid: int = 0) -> ContextRecord:
        """Intern the current context and apply per-allocation rules.

        Called by the monitoring unit on *every* allocation, watched or
        not.  ``tid`` is the allocating thread; it selects the one-entry
        cache slot and the RNG stream the revive draw consumes.
        """
        interner = self._interner
        # The cheap key (§III-A1): one return-address peek + the live
        # stack offset.  Decomposed into its two ints so a cache hit
        # never constructs a ContextKey object.
        frame = interner.charge_peek(stack)
        first_ra = frame.return_address if frame is not None else 0
        offset = stack.stack_offset
        cached = self._thread_cache.get(tid)
        if (
            cached is not None
            and cached[0] == first_ra
            and cached[1] == offset
        ):
            record = cached[2]
            interner.note_hit(record.context, stack)
            self._table.charge_hit()
        else:
            key = ContextKey(first_level_ra=first_ra, stack_offset=offset)
            context = interner.intern_keyed(key, stack)
            record = self._table.get(key)
            if record is None:
                record = self._new_record(key, context)
                self._table.put(key, record)
            self._thread_cache[tid] = (
                first_ra,
                offset,
                record,
                len(record.context.return_addresses),
            )
        self.total_allocations_seen += 1
        record.allocation_count += 1
        if not record.overflow_observed:
            degrade(record, self._config)
            self._update_throttle(record)
            self._maybe_revive(record, tid)
        return record

    def should_watch(self, record: ContextRecord, tid: int) -> bool:
        """One probabilistic draw against the context's probability."""
        probability = self.effective_probability(record)
        if probability >= 1.0:
            return True
        return self._rng.uniform(tid) < probability

    def on_watched(self, record: ContextRecord) -> None:
        """Degradation after each watch: halve the probability."""
        record.watch_count += 1
        if not record.overflow_observed:
            halve(record, self._config)

    def effective_probability(self, record: ContextRecord) -> float:
        """The probability a draw is made against, honouring throttles."""
        return effective(
            record, record.overflow_observed, self._clock.now_ns, self._config
        )

    # ------------------------------------------------------------------
    # Rules (the oracle's corner probes spy on the last two)
    # ------------------------------------------------------------------
    def _new_record(self, key: ContextKey, context: CallingContext) -> ContextRecord:
        record = ContextRecord(
            key=key, context=context, probability=self._config.initial_probability
        )
        if context_signature(context) in self._known_bad_signatures:
            observe(record)
        return record

    def _update_throttle(self, record: ContextRecord) -> None:
        throttle(record, self._clock.now_ns, self._config)

    def _maybe_revive(self, record: ContextRecord, tid: int = 0) -> None:
        # The draw comes from the *allocating thread's* stream —
        # consuming thread 0's stream here would corrupt per-thread
        # determinism.
        if revive_due(record, self._clock.now_ns, self._config):
            revive(record, self._rng.uniform(tid), self._config)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def records(self) -> Iterator[ContextRecord]:
        return self._table.values()

    def context_count(self) -> int:
        return len(self._table)

    @property
    def table(self) -> ContextHashTable:
        return self._table

    @property
    def interner(self) -> ContextInterner:
        return self._interner


# ----------------------------------------------------------------------
# Frozen snapshots (the adversarial solver's search space)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SamplerState:
    """A hashable snapshot of one context's five sampler fields.

    The adversarial solver (``repro.oracle.adversarial``) searches
    allocation sequences over these snapshots without instantiating a
    runtime.  Each ``*_transition`` below copies a snapshot, applies the
    in-place rule above, and freezes the result, so the solver searches
    the very rules the live unit runs.
    """

    probability: float
    window_start_ns: int = 0
    window_alloc_count: int = 0
    throttled_until_ns: int = 0
    floor_since_ns: int = -1

    @classmethod
    def of(cls, carrier) -> "SamplerState":
        """Freeze the five sampler fields of any carrier."""
        return cls(*(getattr(carrier, name) for name in _SAMPLER_FIELDS))

    def thaw(self) -> SimpleNamespace:
        """A mutable copy for the in-place rules."""
        return SimpleNamespace(**vars(self))


_SAMPLER_FIELDS = tuple(f.name for f in fields(SamplerState))


def _on_snapshot(rule):
    """Lift an in-place rule to a transition over frozen snapshots; a
    rule's return value (a due revive draw) rides along as
    ``(state', value)``."""

    def transition(state: SamplerState, *args, **kwargs):
        scratch = state.thaw()
        value = rule(scratch, *args, **kwargs)
        frozen = SamplerState.of(scratch)
        return frozen if value is None else (frozen, value)

    transition.__doc__ = f":func:`{rule.__name__}` on a frozen snapshot."
    return transition


degrade_transition = _on_snapshot(degrade)
throttle_transition = _on_snapshot(throttle)
revive_transition = _on_snapshot(revive_due)
watch_transition = _on_snapshot(halve)
allocation_transition = _on_snapshot(allocate)


def initial_state(config: CSODConfig) -> SamplerState:
    """A context on first sight (no evidence preloaded)."""
    return SamplerState(probability=config.initial_probability)


def allocations_to_floor(config: CSODConfig, bound: int = 4096) -> int:
    """Minimal watched-allocation count pinning a fresh context at the
    floor *exactly* (no clock advance between allocations), or -1 if
    ``bound`` steps do not reach it.

    With the paper's constants this is 15: the halving dominates the
    linear degradation, and the clamp lands on the floor exactly.
    """
    scratch = initial_state(config).thaw()
    for count in range(1, bound + 1):
        allocate(scratch, 0, config, watched=True)
        if scratch.probability <= config.floor_probability:
            return count
    return -1


def context_signature(context: CallingContext) -> str:
    """A signature stable across executions (for evidence persistence).

    Synthetic return addresses differ between runs, so persistence keys
    on source locations — the analogue of the paper writing calling
    contexts to a file and matching them in future executions.
    """
    if context.frames:
        return "|".join(frame.site.location() for frame in context.frames)
    return "|".join(hex(ra) for ra in context.return_addresses)
