"""The fleet evidence store and its termination-unit interoperability."""

import json
import os

from repro.core.evidence import load_persisted
from repro.fleet.evidence_store import EvidenceStore, TemporaryEvidenceStore


def test_merge_counts_only_new(tmp_path):
    store = EvidenceStore(str(tmp_path / "ev.json"))
    assert store.merge({"a", "b"}) == 2
    assert store.merge({"b", "c"}) == 1
    assert store.merge({"a"}) == 0
    assert store.snapshot() == {"a", "b", "c"}
    assert "b" in store and len(store) == 3


def test_store_survives_reload(tmp_path):
    path = str(tmp_path / "ev.json")
    EvidenceStore(path).merge({"sig1", "sig2"})
    reloaded = EvidenceStore(path)
    assert reloaded.snapshot() == {"sig1", "sig2"}


def test_file_format_matches_termination_persistence(tmp_path):
    path = str(tmp_path / "ev.json")
    EvidenceStore(path).merge({"LIB/a.c:1|LIB/main.c:9"})
    # The termination unit can read a store file directly...
    assert load_persisted(path) == {"LIB/a.c:1|LIB/main.c:9"}
    payload = json.load(open(path))
    assert payload["version"] == 1
    assert payload["contexts"] == ["LIB/a.c:1|LIB/main.c:9"]


def test_no_write_when_nothing_new(tmp_path):
    path = str(tmp_path / "ev.json")
    store = EvidenceStore(path)
    store.merge({"a"})
    before = os.stat(path).st_mtime_ns
    os.utime(path, ns=(before - 10_000_000, before - 10_000_000))
    store.merge({"a"})
    assert os.stat(path).st_mtime_ns < before


def test_in_memory_store():
    store = EvidenceStore()
    assert store.merge({"a"}) == 1
    assert store.path is None
    assert store.snapshot() == {"a"}


def test_temporary_store_cleans_up():
    with TemporaryEvidenceStore() as store:
        directory = os.path.dirname(store.path)
        store.merge({"a"})
        assert os.path.exists(store.path)
    assert not os.path.exists(directory)


# ----------------------------------------------------------------------
# Incremental merge + concurrent writers/readers
# ----------------------------------------------------------------------
def test_flush_keeps_contexts_sorted_incrementally(tmp_path):
    path = str(tmp_path / "ev.json")
    store = EvidenceStore(path)
    store.absorb({"m", "c"})
    store.absorb({"z", "a"})
    store.absorb({"k"})
    payload = json.load(open(path))
    assert payload["contexts"] == ["a", "c", "k", "m", "z"]
    assert store.snapshot() == {"a", "c", "k", "m", "z"}


def test_absorb_returns_exactly_the_new_signatures(tmp_path):
    store = EvidenceStore(str(tmp_path / "ev.json"))
    assert store.absorb({"a", "b"}) == {"a", "b"}
    assert store.absorb({"b", "c"}) == {"c"}
    assert store.absorb({"a"}) == frozenset()


def test_external_writer_is_unioned_in(tmp_path):
    path = str(tmp_path / "ev.json")
    ours = EvidenceStore(path)
    ours.absorb({"ours-1"})
    theirs = EvidenceStore(path)  # a second coordinator, same file
    new = theirs.absorb({"theirs-1"})
    assert new == {"theirs-1"}  # ours-1 was already on disk
    assert theirs.snapshot() == {"ours-1", "theirs-1"}
    # Our next merge notices the file moved underneath us and unions
    # the other writer's signatures in before flushing.
    ours.absorb({"ours-2"})
    assert ours.snapshot() == {"ours-1", "ours-2", "theirs-1"}
    payload = json.load(open(path))
    assert payload["contexts"] == sorted(["ours-1", "ours-2", "theirs-1"])


def test_external_union_never_drops_either_side(tmp_path):
    path = str(tmp_path / "ev.json")
    left = EvidenceStore(path)
    right = EvidenceStore(path)
    for i in range(10):
        left.absorb({f"left-{i}"})
        right.absorb({f"right-{i}"})
    # right always refreshed before writing, so nothing left wrote is
    # lost; left needs one more refresh to see right's final batch.
    left.absorb({"left-final"})
    expected = (
        {f"left-{i}" for i in range(10)}
        | {f"right-{i}" for i in range(10)}
        | {"left-final"}
    )
    assert left.snapshot() == expected
    assert set(load_persisted(path)) == expected


def test_atomic_writes_under_concurrent_reader(tmp_path):
    """A reader polling the file mid-merge must only ever see a complete,
    valid document (the write-temp+rename contract), and no .tmp file
    may survive."""
    import threading

    path = str(tmp_path / "ev.json")
    store = EvidenceStore(path)
    store.absorb({"seed"})
    failures = []
    done = threading.Event()

    def reader():
        while not done.is_set():
            try:
                payload = json.load(open(path))
            except FileNotFoundError:
                failures.append("file vanished")
                break
            except json.JSONDecodeError as exc:
                failures.append(f"partial write observed: {exc}")
                break
            if payload.get("version") != 1 or "contexts" not in payload:
                failures.append(f"malformed payload: {payload!r}")
                break

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for batch in range(200):
            store.absorb({f"sig-{batch}-{j}" for j in range(5)})
    finally:
        done.set()
        thread.join(timeout=30)
    assert failures == []
    assert len(store) == 1 + 200 * 5
    assert not os.path.exists(path + ".tmp")
