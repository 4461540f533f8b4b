"""The global calling-context hash table (§III-B1).

The paper's table is keyed by (first-level return address, stack offset),
sized "to a large number to reduce hash conflicts", with a linked list
per bucket protected by its own lock.  Python dicts would hide all of
that, so this module models the structure explicitly: bucket indexing
over the paper's fixed array, chaining, per-bucket lock acquisition
counted in the ledger, and bucket-conflict statistics.

The fixed array is a modelled cost (Table V's ``CSOD_FIXED_KB`` in
``repro.perfmodel.memory``), not a Python allocation: only the chains a
run touches are stored, each created by the first ``put`` to its bucket.
Every charge and statistic is that of the full array, because an absent
chain is an empty bucket.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.callstack.contexts import ContextKey
from repro.machine.syscall_cost import CostLedger, EVENT_CONTEXT_LOOKUP

# The paper sets the size "to a large number"; 65536 buckets keeps the
# expected chain length << 1 even for MySQL-scale context counts.
DEFAULT_BUCKET_COUNT = 65536

# Calibrated cost of one hash + bucket walk + (uncontended) lock pair.
LOOKUP_COST_NS = 120

V = TypeVar("V")


class ContextHashTable(Generic[V]):
    """Fixed-bucket chained hash table keyed by :class:`ContextKey`.

    Charges and statistics are those of ``bucket_count`` buckets; Python
    holds only the non-empty chains, keyed by bucket index.  A lookup
    never creates a chain.
    """

    def __init__(
        self,
        bucket_count: int = DEFAULT_BUCKET_COUNT,
        ledger: Optional[CostLedger] = None,
    ):
        if bucket_count <= 0:
            raise ValueError(f"bucket count must be positive, got {bucket_count}")
        self._chains: Dict[int, List[Tuple[ContextKey, V]]] = {}
        self._bucket_count = bucket_count
        self._ledger = ledger or CostLedger()
        self._size = 0
        self.lock_acquisitions = 0
        self.chain_walk_steps = 0

    def _bucket_index(self, key: ContextKey) -> int:
        # Mix both key components; the stack offset alone clusters badly.
        h = (key.first_level_ra * 0x9E3779B1) ^ (key.stack_offset * 0x85EBCA77)
        return (h >> 4) % self._bucket_count

    def _find(self, bucket: Sequence[Tuple[ContextKey, V]], key: ContextKey) -> int:
        for i, (existing, _) in enumerate(bucket):
            self.chain_walk_steps += 1
            if existing == key:
                return i
        return -1

    def get(self, key: ContextKey) -> Optional[V]:
        """Look up a key; charges one hot-path lookup to the ledger."""
        self._ledger.record(EVENT_CONTEXT_LOOKUP, nanos_each=LOOKUP_COST_NS)
        self.lock_acquisitions += 1  # the per-bucket list lock
        bucket = self._chains.get(self._bucket_index(key), ())
        index = self._find(bucket, key)
        return bucket[index][1] if index >= 0 else None

    def get_uncharged(self, key: ContextKey) -> Optional[V]:
        """Look up a key whose simulated cost the caller already charged.

        The batched hot path folds the lookup cost into a fused bundle;
        the structural bookkeeping (lock acquisition, chain walk) is
        still performed here so the table's statistics are identical to
        an equivalent :meth:`get`.
        """
        self.lock_acquisitions += 1
        bucket = self._chains.get(self._bucket_index(key), ())
        index = self._find(bucket, key)
        return bucket[index][1] if index >= 0 else None

    def charge_hit(self) -> None:
        """Charge a lookup that a cache above the table answered.

        The real CSOD still pays the hash + lock + one chain step on
        every allocation; a caller that short-circuits the Python-level
        walk must keep the simulated cost model (and the clock it
        drives) identical, so the same ledger event and bookkeeping are
        recorded here.
        """
        self._ledger.record(EVENT_CONTEXT_LOOKUP, nanos_each=LOOKUP_COST_NS)
        self.lock_acquisitions += 1
        self.chain_walk_steps += 1

    def put(self, key: ContextKey, value: V) -> None:
        """Insert or replace under the bucket lock."""
        self.lock_acquisitions += 1
        bucket = self._chains.setdefault(self._bucket_index(key), [])
        index = self._find(bucket, key)
        if index >= 0:
            bucket[index] = (key, value)
        else:
            bucket.append((key, value))
            self._size += 1

    def items(self) -> Iterator[Tuple[ContextKey, V]]:
        """Ascending bucket index, then insertion order within a chain."""
        for bucket_index in sorted(self._chains):
            yield from self._chains[bucket_index]

    def values(self) -> Iterator[V]:
        for _, value in self.items():
            yield value

    def conflicted_buckets(self) -> int:
        """Buckets holding more than one context (hash conflicts)."""
        return sum(1 for bucket in self._chains.values() if len(bucket) > 1)

    def max_chain_length(self) -> int:
        return max((len(bucket) for bucket in self._chains.values()), default=0)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: ContextKey) -> bool:
        bucket = self._chains.get(self._bucket_index(key), ())
        return self._find(bucket, key) >= 0
