"""The fleet-wide evidence store (DoubleTake's insight, fleet-scale).

CSOD's evidence-based canary makes over-write detection certain by the
*second execution of one process* (§IV-B, §V-A2).  A fleet generalises
that: any execution that observed an overflow uploads the allocation
context's signature, the coordinator merges it here, and every
execution dispatched afterwards preloads the merged set — so the whole
fleet converges after *one* detection anywhere, not one per process.

The on-disk format is exactly the termination unit's persistence file
(``{"version": 1, "contexts": [...]}``), so a store file can be handed
straight to ``CSODConfig(persistence_path=...)`` and vice versa; writes
are atomic (write-temp + rename), and only the coordinator writes, so
workers can never race on it.
"""

from __future__ import annotations

import heapq
import json
import os
import tempfile
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.termination import _PERSIST_VERSION, load_persisted


class EvidenceStore:
    """A file-backed, merge-only set of overflowing context signatures.

    Merges are **incremental**: the store keeps its signatures as a
    sorted list maintained by merging each (sorted) batch of new
    signatures in, so a flush serialises without re-sorting the whole
    set — the steady-state cost of absorbing *k* new signatures into a
    store of *n* is O(n + k log k), not O((n + k) log (n + k)).

    The store also tolerates a **concurrent external writer** (another
    coordinator sharing the same evidence file): before merging, the
    file's stat identity (mtime_ns, size, inode) is compared against
    the last state this store wrote or read, and a changed file is
    re-read and unioned in first.  Merge-only semantics make that safe
    — signatures are never removed, so a union can only converge.
    """

    def __init__(self, path: Optional[str] = None):
        """``path=None`` keeps the store purely in memory."""
        self.path = path
        self._signatures: Set[str] = set(load_persisted(path))
        self._sorted: List[str] = sorted(self._signatures)
        self._stamp = self._stat_stamp()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def snapshot(self) -> FrozenSet[str]:
        """The current merged signature set (safe to share with specs)."""
        return frozenset(self._signatures)

    def __len__(self) -> int:
        return len(self._signatures)

    def __contains__(self, signature: str) -> bool:
        return signature in self._signatures

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def merge(self, signatures: Iterable[str]) -> int:
        """Fold in new signatures; returns how many were actually new.

        The file is rewritten only when the set grew, keeping the
        no-detection steady state write-free.
        """
        return len(self.absorb(signatures))

    def absorb(self, signatures: Iterable[str]) -> FrozenSet[str]:
        """Fold in new signatures; returns exactly the new ones.

        The returned set is what a coordinator adds to the evidence its
        next wave's chunks carry (:meth:`FleetPool.advance_evidence`).
        """
        incoming = set(signatures)
        self._refresh_external()
        new = frozenset(incoming - self._signatures)
        if not new:
            return new
        self._absorb_sorted(sorted(new))
        self._flush()
        return new

    def _absorb_sorted(self, batch: List[str]) -> None:
        """Merge an already-sorted batch of novel signatures in."""
        self._signatures.update(batch)
        self._sorted = list(heapq.merge(self._sorted, batch))

    # ------------------------------------------------------------------
    # File identity (concurrent-writer tolerance)
    # ------------------------------------------------------------------
    def _stat_stamp(self) -> Optional[Tuple[int, int, int]]:
        if self.path is None:
            return None
        try:
            info = os.stat(self.path)
        except OSError:
            return None
        return (info.st_mtime_ns, info.st_size, info.st_ino)

    def _refresh_external(self) -> None:
        """Union in signatures another writer persisted since we looked.

        Writers are atomic (temp + rename), so a reader only ever sees
        a complete file; a stamp mismatch means someone else renamed a
        new version into place.
        """
        if self.path is None:
            return
        stamp = self._stat_stamp()
        if stamp == self._stamp:
            return
        external = set(load_persisted(self.path)) - self._signatures
        if external:
            self._absorb_sorted(sorted(external))
        self._stamp = stamp

    def _flush(self) -> None:
        if self.path is None:
            return
        payload = {
            "version": _PERSIST_VERSION,
            "contexts": self._sorted,
        }
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "w") as handle:
            json.dump(payload, handle, indent=1)
        os.replace(tmp_path, self.path)
        self._stamp = self._stat_stamp()


class TemporaryEvidenceStore(EvidenceStore):
    """An EvidenceStore in a self-cleaning temporary directory.

    Replaces the campaign driver's old ad-hoc ``tempfile.mkdtemp``
    plumbing, which leaked its directory on every run (and its evidence
    file whenever an execution raised).  Use as a context manager, or
    call :meth:`cleanup` from a ``finally`` block.
    """

    def __init__(self, prefix: str = "csod-fleet-"):
        self._tmpdir = tempfile.TemporaryDirectory(prefix=prefix)
        super().__init__(os.path.join(self._tmpdir.name, "evidence.json"))

    def cleanup(self) -> None:
        self._tmpdir.cleanup()

    def __enter__(self) -> "TemporaryEvidenceStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cleanup()
