"""§IV-B's evidence mechanism, as an executable spec.

In evidence mode every object sits in Fig. 5's layout
(``repro.heap.layout``): a 32-byte header ending in a magic identifier,
the object, then an 8-byte canary holding the process's secret.  An
over-write that escapes the four watchpoints still corrupts one of the
two words.  Each rule is written once, below:

* **corruption** (:func:`corrupted`) — the identifier word first (a
  wrong one means the *previous* object overran into this header),
  then the canary word;
* **the boost and the report** — the context is observed
  (:func:`repro.core.sampling.observe`: flagged and pinned at 100%),
  then reported as an over-write: ``free-canary`` at a free and at a
  realloc shrink, with the freeing thread (:func:`report_at_free`), and
  ``exit-canary`` from the exit and crash sweeps, with thread −1;
* **the sweep** (:func:`sweep`) — every live object is checked in
  registry order, each corrupted one is boosted and reported, and only
  then is the signature set persisted, so the file holds this
  execution's evidence;
* **the persisted signature set** (:func:`observed_signatures`) — kept
  in one versioned document (:func:`load_persisted`,
  :func:`write_persisted`, :func:`persist`) that the termination unit
  and the fleet's ``EvidenceStore`` share.

Every driver calls these functions.  Only the batched free
(``repro.core.fastpath``) inlines the corruption test, as a page-direct
read of the two words, and ``tests/core/test_fastpath_spec.py`` checks
it against this module step by step.  DoubleTake's epoch sweep
(``repro.detectors.doubletake``) keeps its own code: its raw canary
words on both sides of a block, its fill pattern and its per-fault
dedupe share no rule with Fig. 5.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List, Optional, Set, Tuple

from repro.core.reporting import (
    KIND_OVER_WRITE,
    OverflowReport,
    ReportSink,
    SOURCE_EXIT_CANARY,
    SOURCE_FREE_CANARY,
)
from repro.core.sampling import ContextRecord, context_signature, observe
from repro.heap.layout import HEADER_IDENTIFIER

PERSIST_VERSION = 1


def corrupted(memory, address: int, size: int, canary_value: int) -> bool:
    """Fig. 5's corruption test: the header identifier, then the canary."""
    if memory.read_word(address - 8) != HEADER_IDENTIFIER:
        return True
    return memory.read_word(address + size) != canary_value


def _found(sink, source, record, address, size, thread_id, now_ns) -> OverflowReport:
    """Boost a corrupted object's context, then report it."""
    observe(record)
    report = OverflowReport(
        kind=KIND_OVER_WRITE,  # only writes can corrupt a canary
        source=source,
        fault_address=address + size,
        object_address=address,
        object_size=size,
        thread_id=thread_id,
        time_ns=now_ns,
        allocation_context=record.context,
    )
    sink(report)
    return report


def report_at_free(sink: ReportSink, record, address, size, thread_id, now_ns) -> None:
    """A corrupted object found at its free or at a realloc shrink."""
    _found(sink, SOURCE_FREE_CANARY, record, address, size, thread_id, now_ns)


def sweep(registry, clock, sink: ReportSink, persist_fn) -> List[OverflowReport]:
    """The exit and crash sweeps over a
    :class:`~repro.core.canary.CanaryManagementUnit`'s live objects."""
    live = registry.live_slots()
    bad = [registry.slot_view(s) for s in live if registry.check_slot(s)]
    reports = [
        _found(
            sink, SOURCE_EXIT_CANARY, entry.record, entry.object_address,
            entry.object_size, -1, clock.now_ns,
        )
        for entry in bad
    ]
    persist_fn()
    return reports


def observed_signatures(records: Iterable[ContextRecord]) -> Tuple[str, ...]:
    """The signatures of every overflow-observed context, sorted."""
    return tuple(
        sorted(
            context_signature(record.context)
            for record in records
            if record.overflow_observed
        )
    )


def load_persisted(path: Optional[str]) -> Set[str]:
    """Signatures recorded by previous executions.

    A missing, unreadable or malformed file reads as empty: only a
    version-1 object whose ``contexts`` is a list counts, and only its
    string entries.
    """
    if path is None or not os.path.exists(path):
        return set()
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return set()
    if not isinstance(payload, dict) or payload.get("version") != PERSIST_VERSION:
        return set()
    contexts = payload.get("contexts", [])
    if not isinstance(contexts, list):
        return set()
    return {s for s in contexts if isinstance(s, str)}


def write_persisted(path: str, contexts: List[str]) -> None:
    """Write sorted signatures atomically (a temp file, then a rename);
    I/O errors propagate."""
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as handle:
        json.dump({"version": PERSIST_VERSION, "contexts": contexts}, handle, indent=1)
    os.replace(tmp_path, path)


def persist(path: Optional[str], records: Iterable[ContextRecord]) -> int:
    """Merge this execution's observed signatures into the file.

    Returns the merged count (0 without a file).  I/O failures are
    swallowed, returning -1: CSOD runs inside arbitrary production
    processes and must never turn a full disk or a read-only mount into
    an application crash at exit.
    """
    if path is None:
        return 0
    merged = sorted(load_persisted(path) | set(observed_signatures(records)))
    try:
        write_persisted(path, merged)
    except OSError:
        return -1
    return len(merged)
