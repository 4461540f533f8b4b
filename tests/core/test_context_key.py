"""The bucketed calling-context hash table."""

import tracemalloc

import pytest

from repro.callstack.contexts import ContextKey
from repro.core.context_key import ContextHashTable, LOOKUP_COST_NS
from repro.machine.syscall_cost import CostLedger, EVENT_CONTEXT_LOOKUP


def key(ra=0x400100, offset=96):
    return ContextKey(first_level_ra=ra, stack_offset=offset)


def test_get_missing_returns_none():
    assert ContextHashTable().get(key()) is None


def test_put_then_get():
    table = ContextHashTable()
    table.put(key(), "record")
    assert table.get(key()) == "record"


def test_put_replaces():
    table = ContextHashTable()
    table.put(key(), "a")
    table.put(key(), "b")
    assert table.get(key()) == "b"
    assert len(table) == 1


def test_distinct_keys_coexist():
    table = ContextHashTable()
    table.put(key(ra=0x1), "a")
    table.put(key(ra=0x2), "b")
    assert table.get(key(ra=0x1)) == "a"
    assert table.get(key(ra=0x2)) == "b"
    assert len(table) == 2


def test_contains():
    table = ContextHashTable()
    table.put(key(), 1)
    assert key() in table
    assert key(ra=0x999) not in table


def test_items_and_values():
    table = ContextHashTable()
    table.put(key(ra=1), "a")
    table.put(key(ra=2), "b")
    assert dict(table.items()) == {key(ra=1): "a", key(ra=2): "b"}
    assert sorted(table.values()) == ["a", "b"]


def test_chaining_under_forced_conflicts():
    table = ContextHashTable(bucket_count=1)  # everything collides
    for i in range(20):
        table.put(key(ra=i), i)
    assert len(table) == 20
    assert all(table.get(key(ra=i)) == i for i in range(20))
    assert table.conflicted_buckets() == 1
    assert table.max_chain_length() == 20


def test_large_table_has_few_conflicts():
    table = ContextHashTable()
    for i in range(1200):  # MySQL-scale context count
        table.put(key(ra=0x400000 + i * 0x20, offset=i * 16), i)
    assert table.conflicted_buckets() <= 2


def test_lock_acquisitions_counted():
    table = ContextHashTable()
    table.put(key(), 1)
    table.get(key())
    assert table.lock_acquisitions == 2


def test_lookup_cost_charged():
    ledger = CostLedger()
    table = ContextHashTable(ledger=ledger)
    table.get(key())
    assert ledger.nanos(EVENT_CONTEXT_LOOKUP) == LOOKUP_COST_NS


def test_invalid_bucket_count():
    with pytest.raises(ValueError):
        ContextHashTable(bucket_count=0)


def test_empty_table_statistics():
    table = ContextHashTable()
    assert len(table) == 0
    assert table.conflicted_buckets() == 0
    assert table.max_chain_length() == 0


def test_items_ascend_by_bucket_then_insertion_order():
    # The order records() yields: the termination sweep, the fleet's
    # new_evidence and diagnostics all read it.
    table = ContextHashTable(bucket_count=4)
    keys = [key(ra=ra) for ra in range(12)]
    inserted = sorted(
        keys, key=lambda k: (-table._bucket_index(k), -k.first_level_ra)
    )
    for position, k in enumerate(inserted):
        table.put(k, position)
    assert table.max_chain_length() > 1
    assert len({table._bucket_index(k) for k in keys}) > 1
    expected = sorted(inserted, key=table._bucket_index)  # stable sort
    assert [k for k, _ in table.items()] == expected
    assert list(table.values()) == [inserted.index(k) for k in expected]


def test_fresh_table_and_missed_lookups_allocate_little():
    # The paper's fixed bucket array is a modelled cost: neither
    # construction nor a lookup may allocate Python buckets.
    keys = [key(ra=0x400000 + i * 0x20, offset=i * 16) for i in range(2000)]
    tracemalloc.start()
    try:
        table = ContextHashTable()
        for k in keys:
            assert table.get(k) is None
            assert k not in table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
