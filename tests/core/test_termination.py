"""The Termination Handling Unit: exit sweeps, crash sweeps, persistence."""

import json
import os

import pytest

from repro.callstack.frames import CallSite
from repro.core import CSODConfig, CSODRuntime
from repro.core.reporting import SOURCE_EXIT_CANARY
from repro.core.evidence import load_persisted
from repro.errors import SegmentationFault
from repro.workloads.base import SimProcess


def make(tmp_path, seed=4):
    path = str(tmp_path / "evidence.json")
    process = SimProcess(seed=seed)
    runtime = CSODRuntime(
        process.machine, process.heap, CSODConfig(persistence_path=path), seed=seed
    )
    return process, runtime, path


def leak_corrupted_object(process):
    site = CallSite("APP", "leak.c", 7, "leaky_alloc")
    process.symbols.add(site)
    with process.main_thread.call_stack.calling(site):
        address = process.heap.malloc(process.main_thread, 64)
    # Corrupt without going through the CPU (no watchpoint detection) —
    # purely evidence-based discovery.
    process.machine.memory.write_bytes(address + 64, b"\x00" * 8)
    return address


def test_exit_sweep_finds_leaked_corruption(tmp_path):
    process, runtime, path = make(tmp_path)
    leak_corrupted_object(process)
    reports = runtime.shutdown()
    assert any(r.source == SOURCE_EXIT_CANARY for r in reports)
    assert runtime.detected


def test_exit_sweep_runs_once(tmp_path):
    process, runtime, path = make(tmp_path)
    leak_corrupted_object(process)
    first = runtime.termination.on_exit()
    second = runtime.termination.on_exit()
    assert first and not second


def test_persistence_written_on_exit(tmp_path):
    process, runtime, path = make(tmp_path)
    leak_corrupted_object(process)
    runtime.shutdown()
    persisted = load_persisted(path)
    assert len(persisted) == 1
    assert "leak.c:7" in next(iter(persisted))


def test_clean_exit_persists_nothing(tmp_path):
    process, runtime, path = make(tmp_path)
    site = CallSite("APP", "ok.c", 1, "fine")
    with process.main_thread.call_stack.calling(site):
        address = process.heap.malloc(process.main_thread, 32)
    process.heap.free(process.main_thread, address)
    runtime.shutdown()
    assert load_persisted(path) == set()


def test_crash_sweep_on_sigsegv(tmp_path):
    process, runtime, path = make(tmp_path)
    leak_corrupted_object(process)
    with pytest.raises(SegmentationFault):
        process.machine.cpu.load(process.main_thread, 0x10, 8)
    # The common handler ran the sweep and persisted before the death.
    assert runtime.termination.crash_sweeps == 1
    assert load_persisted(path)


def test_persisted_evidence_merges_across_runs(tmp_path):
    process, runtime, path = make(tmp_path, seed=4)
    leak_corrupted_object(process)
    runtime.shutdown()
    first = load_persisted(path)
    process2, runtime2, _ = make(tmp_path, seed=5)
    site = CallSite("APP", "leak2.c", 8, "other_leak")
    with process2.main_thread.call_stack.calling(site):
        address = process2.heap.malloc(process2.main_thread, 32)
    process2.machine.memory.write_bytes(address + 32, b"\x00" * 8)
    runtime2.shutdown()
    merged = load_persisted(path)
    assert first < merged


def test_load_persisted_missing_file():
    assert load_persisted("/nonexistent/file.json") == set()
    assert load_persisted(None) == set()


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[]",
        '"x"',
        "5",
        '{"version": 1, "contexts": 5}',
        '{"version": 1, "contexts": "abc"}',
    ],
    ids=[
        "not-json",
        "list",
        "string",
        "number",
        "number-contexts",
        "string-contexts",
    ],
)
def test_load_persisted_garbage_file(tmp_path, text):
    path = tmp_path / "garbage.json"
    path.write_text(text)
    assert load_persisted(str(path)) == set()


def test_runtime_and_store_over_a_non_object_file(tmp_path):
    from repro.fleet.evidence_store import EvidenceStore

    path = tmp_path / "evidence.json"
    path.write_text("[]")
    process = SimProcess(seed=1)
    runtime = CSODRuntime(
        process.machine,
        process.heap,
        CSODConfig(persistence_path=str(path)),
        seed=1,
    )
    leak_corrupted_object(process)
    runtime.shutdown()
    assert len(load_persisted(str(path))) == 1  # rewritten as a document
    path.write_text("[]")
    store = EvidenceStore(str(path))
    assert len(store) == 0
    assert store.merge(["a"]) == 1
    assert load_persisted(str(path)) == {"a"}


def test_load_persisted_wrong_version(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"version": 99, "contexts": ["x"]}))
    assert load_persisted(str(path)) == set()


def test_second_run_starts_pinned(tmp_path):
    process, runtime, path = make(tmp_path, seed=4)
    leak_corrupted_object(process)
    runtime.shutdown()

    process2, runtime2, _ = make(tmp_path, seed=99)
    site = CallSite("APP", "leak.c", 7, "leaky_alloc")
    with process2.main_thread.call_stack.calling(site):
        process2.heap.malloc(process2.main_thread, 64)
    # Same source location => preloaded as known-bad => pinned at 100%.
    records = list(runtime2.sampling.records())
    assert any(r.pinned() for r in records)
