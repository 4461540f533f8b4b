"""The watchpoint slot decision (§III-C2), written once.

CSOD has four debug registers (``SLOTS``).  A candidate object takes the
lowest-numbered free slot whether or not its sampling draw passed
("installation due to availability").  With every slot busy it does
nothing unless its draw passed; then it preempts the first slot, in its
policy's probe order, whose aged effective probability
(:func:`slot_probability`) is *strictly* below its own effective
probability, or declines:

* **naive** always declines: a watchpoint lives until its object is
  freed, so only bugs among the first four watched objects are caught;
* **random** probes from ``rng.below(tid, 4)``, a draw from the
  allocating thread's stream;
* **near-FIFO** probes from a circular pointer that moves to one past
  the victim on a replacement (:func:`next_pointer`, a single atomic
  update in the paper) and never on a free, so deallocations perturb
  the order — hence "near"-FIFO.

A decision observes one instant: every probability is read at the
clock's value before the random policy's draw, which charges
``RNG_DRAW_COST_NS`` to the virtual clock.

A slot is ``None`` or an object with ``record`` and ``install_time_ns``;
a record carries the five sampler fields and ``overflow_observed``.
:func:`choose_slot` is the whole decision.
``WatchpointManagementUnit.try_watch`` (which both hot paths reach) and
``repro.analysis.AbstractDetector`` call it, and
``tests/core/test_fastpath_spec.py`` checks the batched driver's inlined
free-slot scan, its replacements and its declines against it under
every policy.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import POLICY_NAIVE, POLICY_RANDOM, CSODConfig
from repro.core.rng import PerThreadRNG
from repro.core.sampling import aged, effective
from repro.machine.debug_registers import NUM_USABLE_DEBUG_REGISTERS

SLOTS = NUM_USABLE_DEBUG_REGISTERS


def free_slot(slots: Sequence[Optional[object]]) -> int:
    """The lowest-numbered free (``None``) slot, or -1 when all are busy."""
    for index, slot in enumerate(slots):
        if slot is None:
            return index
    return -1


def slot_probability(slot, now_ns: int, config: CSODConfig) -> float:
    """A watched slot's victim-selection probability at ``now_ns``.

    Its context's live effective probability (already watch-halved),
    halved per full ageing period since installation: long-watched,
    quiet objects become progressively easier to evict.
    """
    record = slot.record
    return aged(
        effective(record, record.overflow_observed, now_ns, config),
        now_ns - slot.install_time_ns,
        config,
    )


def choose_victim(
    policy: str,
    probabilities: Sequence[float],
    candidate: float,
    pointer: int,
    rng: PerThreadRNG,
    tid: int,
) -> int:
    """The busy slot a drawn candidate preempts, or -1 to decline.

    ``probabilities`` holds every slot's :func:`slot_probability` and
    ``candidate`` the candidate's effective probability, all read before
    this call's draw.  ``pointer`` is near-FIFO's.
    """
    if policy == POLICY_NAIVE:
        return -1
    start = rng.below(tid, SLOTS) if policy == POLICY_RANDOM else pointer
    for step in range(SLOTS):
        index = (start + step) % SLOTS
        if probabilities[index] < candidate:
            return index
    return -1


def next_pointer(victim: int) -> int:
    """Near-FIFO's pointer after replacing ``victim``: one past it."""
    return (victim + 1) % SLOTS


def choose_slot(
    slots: Sequence[Optional[object]],
    record,
    passed: bool,
    now_ns: int,
    config: CSODConfig,
    pointer: int,
    rng: PerThreadRNG,
    tid: int,
) -> int:
    """Where a candidate goes: a free slot, a busy slot to preempt, or -1.

    ``passed`` says whether the candidate's sampling draw passed, and
    ``now_ns`` is the instant every probability is read at.  -1 after a
    passed draw is a decline.  A busy slot is a replacement: the caller
    removes its object and moves the pointer to :func:`next_pointer`.
    """
    index = free_slot(slots)
    if index >= 0 or not passed:
        return index
    return choose_victim(
        config.replacement_policy,
        [slot_probability(slot, now_ns, config) for slot in slots],
        effective(record, record.overflow_observed, now_ns, config),
        pointer,
        rng,
        tid,
    )
