"""§IV-B's evidence spec (``repro.core.evidence``), rule by rule.

The drivers are checked against these functions elsewhere (the batched
free in ``test_fastpath_spec.py``, the legacy units in
``test_canary.py``, ``test_monitor.py`` and ``test_termination.py``);
these tests pin the rules themselves: the order of the corruption
test's two reads, the report each source builds, the boost before the
report, the sweep's order, and the persisted document.
"""

import json
import os
from types import SimpleNamespace

import pytest

from repro.callstack.contexts import CallingContext
from repro.callstack.frames import CallSite
from repro.core import CSODConfig, CSODRuntime, evidence
from repro.core.fastpath import FastAllocDealloc
from repro.core.reporting import (
    KIND_OVER_WRITE,
    SOURCE_EXIT_CANARY,
    SOURCE_FREE_CANARY,
)
from repro.heap.layout import HEADER_IDENTIFIER
from repro.workloads.base import SimProcess

CANARY = 0x1234_5678


class WordMemory:
    """Words by address; logs every read."""

    def __init__(self, words):
        self.words = dict(words)
        self.reads = []

    def read_word(self, address):
        self.reads.append(address)
        return self.words.get(address, 0)


def record(ra=0x40):
    return SimpleNamespace(
        context=CallingContext(return_addresses=(ra,)),
        probability=0.25,
        throttled_until_ns=7,
        floor_since_ns=3,
        overflow_observed=False,
    )


def test_corrupted_reads_the_identifier_then_the_canary():
    clean = {0x1000 - 8: HEADER_IDENTIFIER, 0x1000 + 64: CANARY}
    memory = WordMemory(clean)
    assert not evidence.corrupted(memory, 0x1000, 64, CANARY)
    assert memory.reads == [0x1000 - 8, 0x1000 + 64]

    memory = WordMemory({**clean, 0x1000 + 64: 0})
    assert evidence.corrupted(memory, 0x1000, 64, CANARY)

    # A smashed identifier (the previous object's overrun) decides on
    # its own; the canary is not read.
    memory = WordMemory({**clean, 0x1000 - 8: 0})
    assert evidence.corrupted(memory, 0x1000, 64, CANARY)
    assert memory.reads == [0x1000 - 8]


def test_a_free_report_carries_the_freeing_thread_after_the_boost():
    rec = record()
    seen = []
    evidence.report_at_free(
        lambda report: seen.append((report, rec.overflow_observed)),
        rec, 0x1000, 64, 3, 999,
    )
    [(report, observed_first)] = seen
    assert observed_first  # boosted before the report went out
    assert (rec.probability, rec.throttled_until_ns, rec.floor_since_ns) == (
        1.0, 0, -1
    )
    assert (
        report.kind,
        report.source,
        report.thread_id,
        report.object_address,
        report.object_size,
        report.fault_address,
        report.time_ns,
    ) == (KIND_OVER_WRITE, SOURCE_FREE_CANARY, 3, 0x1000, 64, 0x1040, 999)
    assert report.allocation_context is rec.context


class Registry:
    """A live-object registry whose checks and views are logged."""

    def __init__(self, objects, bad):
        self.objects = objects  # slot -> (address, size, record)
        self.bad = bad
        self.log = []

    def live_slots(self):
        return list(self.objects)

    def check_slot(self, slot):
        self.log.append(("check", slot))
        return slot in self.bad

    def slot_view(self, slot):
        address, size, rec = self.objects[slot]
        return SimpleNamespace(
            object_address=address, object_size=size, record=rec
        )


def test_the_sweep_checks_every_object_reports_in_order_then_persists():
    records = {slot: record(0x40 + slot) for slot in range(3)}
    registry = Registry(
        {2: (0x3000, 16, records[2]), 0: (0x1000, 32, records[0]),
         1: (0x2000, 48, records[1])},
        bad={2, 1},
    )
    sink = []

    def persist():
        # Every corrupted context is observed and reported by now.
        registry.log.append(("persist", len(sink)))
        assert records[2].overflow_observed and records[1].overflow_observed

    clock = SimpleNamespace(now_ns=55)
    reports = evidence.sweep(
        registry, clock, lambda r: (sink.append(r), registry.log.append("report")),
        persist,
    )
    assert reports == sink
    assert [r.object_address for r in reports] == [0x3000, 0x2000]  # registry order
    assert {(r.source, r.thread_id, r.time_ns) for r in reports} == {
        (SOURCE_EXIT_CANARY, -1, 55)
    }
    assert registry.log == [
        ("check", 2), ("check", 0), ("check", 1), "report", "report",
        ("persist", 2),
    ]
    assert not records[0].overflow_observed


def test_observed_signatures_are_the_flagged_contexts_sorted():
    flagged = [record(0x90), record(0x20)]
    for rec in flagged:
        rec.overflow_observed = True
    assert evidence.observed_signatures(flagged + [record(0x55)]) == (
        "0x20", "0x90"
    )


def test_the_document_round_trips_and_persist_merges(tmp_path):
    path = str(tmp_path / "evidence.json")
    evidence.write_persisted(path, ["a", "b"])
    assert json.load(open(path)) == {"version": 1, "contexts": ["a", "b"]}
    assert not os.path.exists(path + ".tmp")
    assert evidence.load_persisted(path) == {"a", "b"}

    rec = record(0x30)
    rec.overflow_observed = True
    assert evidence.persist(path, [rec, record(0x31)]) == 3
    assert evidence.load_persisted(path) == {"a", "b", "0x30"}


def test_persist_without_a_file_or_with_a_failing_one(tmp_path):
    assert evidence.persist(None, [record()]) == 0
    missing_dir = str(tmp_path / "no" / "such" / "dir" / "evidence.json")
    assert evidence.persist(missing_dir, [record()]) == -1


@pytest.mark.parametrize("off_hot", [False, True], ids=["page-direct", "fallback"])
@pytest.mark.parametrize("word", ["identifier", "canary"])
def test_the_batched_free_finds_either_word_on_either_read(word, off_hot):
    process = SimProcess(seed=3)
    runtime = CSODRuntime(process.machine, process.heap, CSODConfig(), seed=3)
    assert isinstance(runtime.monitor, FastAllocDealloc)
    memory = process.machine.memory
    other = memory.map_region(0x1000_0000, 4096, name="other")
    thread = process.main_thread
    with thread.call_stack.calling(CallSite("APP", "e.c", 1, "alloc")):
        address = process.heap.malloc(thread, 48)
    if word == "identifier":  # the previous object's overrun
        memory.write_word(address - 8, 0)
    else:
        memory.write_word(address + 48, 0)
    if off_hot:
        memory.read_word(other.start)  # the free must read through the fallback
        assert memory._hot_start == other.start
    process.heap.free(thread, address)
    [report] = runtime.reports
    assert (report.source, report.object_address, report.thread_id) == (
        SOURCE_FREE_CANARY, address, thread.tid
    )
