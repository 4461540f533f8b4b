"""Defect taxonomy and the per-program ground-truth manifest.

Every generated program injects exactly one *defect* — one access whose
legality is known by construction.  The manifest records where that
access lands relative to the victim object and, for every detector arm,
what the detector can do about it **by design**:

``deterministic``
    The arm catches this access on every execution (ASan redzones, a
    guard page right behind the object, CSOD's free-time canary check
    for boundary-word writes).
``sampled``
    The arm catches it only when its sampler armed the right watchpoint
    (CSOD reads).  Misses are expected; an all-runs miss must still be
    *attributable to sampling* by a pinned re-run.
``incidental``
    The arm may catch the access via a neighbouring object's metadata
    (an underflow read trapping the previous object's boundary word
    under watchpoint-only CSOD).  Detections are true positives with
    displaced attribution; misses are not false negatives.
``none``
    The arm cannot see the access (uninstrumented library, alignment
    slack, in-bounds access...).  Any report here is a false positive.

The capability matrix below is derived from the exact constants of the
three runtimes: CSOD watches the 8-byte boundary word at
``object + size`` and wraps every allocation with an 8-byte canary in
evidence mode; ASan places 16-byte redzones on both sides and
quarantines frees; guard pages right-align objects subject to 16-byte
alignment, leaving ``(-size) % 16`` bytes of slack before the guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.detectors import (
    ARM_DOUBLETAKE,
    ARM_GWP_ASAN,
    fleet_arms,
    known_arms,
)
from repro.errors import WorkloadError

# Defect classes the grammar can inject.
DEFECT_OVER_READ = "over-read"
DEFECT_OVER_WRITE = "over-write"
DEFECT_OFF_BY_N = "off-by-n"
DEFECT_UNDERFLOW = "underflow"
DEFECT_UAF = "uaf"
DEFECT_BENIGN = "benign"
# Appended last: _genome_seed keys defects by ALL_DEFECTS position, so
# new classes must extend the tuple, never reorder it.
DEFECT_DOUBLE_FREE = "double-free"
# The victim is realloc'd down in place and the read runs past the NEW
# end: the manifest's geometry (victim_size, slack, redzone position)
# is evaluated at the post-shrink size.
DEFECT_REALLOC_SHRINK = "realloc-shrink-over-read"
# The allocating thread frees the victim while a second thread
# dereferences it — a UAF whose free and access consume different
# per-thread RNG streams and key caches.
DEFECT_CROSS_THREAD_UAF = "cross-thread-uaf"

ALL_DEFECTS: Tuple[str, ...] = (
    DEFECT_OVER_READ,
    DEFECT_OVER_WRITE,
    DEFECT_OFF_BY_N,
    DEFECT_UNDERFLOW,
    DEFECT_UAF,
    DEFECT_BENIGN,
    DEFECT_DOUBLE_FREE,
    DEFECT_REALLOC_SHRINK,
    DEFECT_CROSS_THREAD_UAF,
)

# Defects whose access dereferences an already-freed victim: the
# expectation rows below treat them identically — what differs is which
# thread frees, which the detectors cannot observe.
_UAF_DEFECTS: Tuple[str, ...] = (DEFECT_UAF, DEFECT_CROSS_THREAD_UAF)

# Detector arms of the differential harness (canonical order matches
# the repro.detectors registry: fleet trio first, then baselines).
ARM_CSOD = "csod"  # evidence + watchpoints, near-FIFO replacement
ARM_CSOD_RANDOM = "csod-random"  # evidence + watchpoints, random replacement
ARM_CSOD_NOEVIDENCE = "csod-noevidence"  # watchpoints only, no canary
ARM_ASAN = "asan"
ARM_GUARDPAGE = "guardpage"

ALL_ARMS: Tuple[str, ...] = known_arms()
CSOD_ARMS: Tuple[str, ...] = fleet_arms()

# Capability levels.
CAP_DETERMINISTIC = "deterministic"
CAP_SAMPLED = "sampled"
CAP_INCIDENTAL = "incidental"
CAP_NONE = "none"

# Geometry constants mirrored from the runtimes (asserted against the
# real ones in the oracle tests, so drift fails loudly).
WATCH_WORD_BYTES = 8  # CSOD debug-register watch length
CANARY_BYTES = 8  # repro.heap.layout.CANARY_SIZE
MIN_REDZONE_BYTES = 16  # repro.asan.redzones.MIN_REDZONE
GUARD_ALIGNMENT = 16  # repro.heap.size_classes.MIN_ALIGNMENT


def guard_slack(size: int) -> int:
    """Bytes between object end and the guard page (GWP-ASan slack)."""
    return (-size) % GUARD_ALIGNMENT


@dataclass(frozen=True)
class Expectation:
    """What one detector arm can do about one injected defect."""

    capability: str  # deterministic / sampled / incidental / none
    reason: str

    def to_dict(self) -> dict:
        return {"capability": self.capability, "reason": self.reason}


@dataclass
class GroundTruth:
    """The machine-readable manifest of one generated program."""

    app: str  # the generated program's (self-describing) name
    defect: str
    access_kind: str  # read / write
    bug_kind: str  # over-read / over-write (the access direction)
    benign: bool
    victim_size: int
    # Where the access starts, relative to the END of the victim object
    # (the overflow_skip convention): 0 is the first byte past the
    # object, negative offsets land before the end.
    access_offset: int
    access_length: int
    in_library: bool  # vuln module is an uninstrumented .SO
    free_before_access: bool
    victim_marker: str  # frame location identifying the victim's alloc site
    access_marker: str  # frame location of the injected access statement
    expected: Dict[str, Expectation] = field(default_factory=dict)

    def capability(self, arm: str) -> str:
        return self.expected[arm].capability

    def to_dict(self) -> dict:
        """Deterministic JSON form (sorted arms)."""
        return {
            "app": self.app,
            "defect": self.defect,
            "access_kind": self.access_kind,
            "bug_kind": self.bug_kind,
            "benign": self.benign,
            "victim_size": self.victim_size,
            "access_offset": self.access_offset,
            "access_length": self.access_length,
            "in_library": self.in_library,
            "free_before_access": self.free_before_access,
            "victim_marker": self.victim_marker,
            "access_marker": self.access_marker,
            "expected": {
                arm: self.expected[arm].to_dict()
                for arm in sorted(self.expected)
            },
        }


def expectations(
    defect: str,
    access_kind: str,
    access_offset: int,
    access_length: int,
    in_library: bool,
    victim_size: int,
) -> Dict[str, Expectation]:
    """The capability matrix for one injected defect."""
    if defect not in ALL_DEFECTS:
        raise WorkloadError(f"unknown oracle defect {defect!r}")
    expected: Dict[str, Expectation] = {}

    # --- ASan -----------------------------------------------------------
    if defect == DEFECT_BENIGN:
        asan = Expectation(CAP_NONE, "access stays inside the object")
    elif defect == DEFECT_DOUBLE_FREE:
        # Allocator interposition, not instrumentation: catches the
        # second free of a quarantined block even from a library.
        asan = Expectation(
            CAP_DETERMINISTIC,
            "the second free hits the quarantine's bookkeeping",
        )
    elif in_library:
        asan = Expectation(
            CAP_NONE, "access issued from an uninstrumented .SO module"
        )
    elif defect in _UAF_DEFECTS:
        asan = Expectation(
            CAP_DETERMINISTIC, "freed object is poisoned and quarantined"
        )
    elif defect == DEFECT_UNDERFLOW:
        asan = Expectation(CAP_DETERMINISTIC, "left redzone is poisoned")
    else:
        asan = Expectation(CAP_DETERMINISTIC, "right redzone is poisoned")
    expected[ARM_ASAN] = asan

    # --- guard pages (oracle mode guards every allocation) --------------
    slack = guard_slack(victim_size)
    if defect == DEFECT_BENIGN:
        guard = Expectation(CAP_NONE, "access stays inside the object")
    elif defect == DEFECT_DOUBLE_FREE:
        guard = Expectation(
            CAP_DETERMINISTIC,
            "the freed slot's bookkeeping rejects a second free",
        )
    elif defect == DEFECT_UNDERFLOW:
        guard = Expectation(
            CAP_NONE, "underflow lands in the slot page, not the guard"
        )
    elif defect in _UAF_DEFECTS:
        guard = Expectation(CAP_DETERMINISTIC, "freed slot page is unmapped")
    elif access_offset + access_length > slack:
        guard = Expectation(CAP_DETERMINISTIC, "access crosses the guard page")
    else:
        guard = Expectation(
            CAP_NONE,
            f"access fits the {slack}-byte alignment slack before the guard",
        )
    expected[ARM_GUARDPAGE] = guard

    # --- CSOD, evidence mode (canary + watchpoints) ---------------------
    overlaps_watch_word = (
        access_offset < WATCH_WORD_BYTES and access_offset + access_length > 0
    )
    if defect == DEFECT_BENIGN:
        csod = Expectation(CAP_NONE, "access stays inside the object")
    elif defect == DEFECT_DOUBLE_FREE:
        csod = Expectation(
            CAP_DETERMINISTIC,
            "the 32-byte header survives the first free; its intact "
            "identifier at the second free diagnoses the double free",
        )
    elif defect in _UAF_DEFECTS:
        csod = Expectation(
            CAP_NONE, "watchpoint and canary are released at free"
        )
    elif defect == DEFECT_UNDERFLOW:
        csod = Expectation(
            CAP_NONE, "access lands inside CSOD's own object header"
        )
    elif not overlaps_watch_word:
        csod = Expectation(
            CAP_NONE, "non-continuous access skips the boundary word (§VI)"
        )
    elif access_kind == "write":
        csod = Expectation(
            CAP_DETERMINISTIC,
            "boundary-word write corrupts the canary, caught at free; "
            "watchpoint additionally when sampled",
        )
    else:
        csod = Expectation(
            CAP_SAMPLED, "read only traps a sampled watchpoint"
        )
    expected[ARM_CSOD] = csod
    expected[ARM_CSOD_RANDOM] = csod

    # --- CSOD, watchpoints only (no canary, raw heap layout) ------------
    if defect == DEFECT_BENIGN:
        noev = Expectation(CAP_NONE, expected[ARM_CSOD].reason)
    elif defect == DEFECT_DOUBLE_FREE:
        noev = Expectation(
            CAP_NONE,
            "raw layout leaves no header; the second free aborts "
            "unattributed inside the allocator",
        )
    elif defect in _UAF_DEFECTS:
        noev = Expectation(
            CAP_INCIDENTAL,
            "raw heap adjacency: the freed object's first bytes can "
            "coincide with the previous object's boundary word while its "
            "watchpoint is still armed",
        )
    elif defect == DEFECT_UNDERFLOW:
        noev = Expectation(
            CAP_INCIDENTAL,
            "raw heap adjacency: the read may trap the previous object's "
            "boundary word when its watchpoint is armed",
        )
    elif not overlaps_watch_word:
        noev = Expectation(
            CAP_NONE, "non-continuous access skips the boundary word (§VI)"
        )
    else:
        noev = Expectation(
            CAP_SAMPLED, "watchpoint only, probability-sampled"
        )
    expected[ARM_CSOD_NOEVIDENCE] = noev

    # --- GWP-ASan (oracle mode samples every allocation) ----------------
    # Same page-protection physics as the guard-page arm, plus a slot
    # quarantine (UAF and double-free become deterministic) and a left
    # guard a full page before the object (underflows still land inside
    # the slot page for any size the grammar draws).
    if defect == DEFECT_BENIGN:
        gwp = Expectation(CAP_NONE, "access stays inside the object")
    elif defect == DEFECT_DOUBLE_FREE:
        gwp = Expectation(
            CAP_DETERMINISTIC,
            "the quarantined slot's state check rejects the second free, "
            "with allocation and deallocation stacks from slot metadata",
        )
    elif defect in _UAF_DEFECTS:
        gwp = Expectation(
            CAP_DETERMINISTIC, "quarantined slot page is unmapped"
        )
    elif defect == DEFECT_UNDERFLOW:
        gwp = Expectation(
            CAP_NONE,
            "the 8 bytes before the object stay inside the slot page; "
            "the left guard is a page away",
        )
    elif access_offset + access_length > slack:
        gwp = Expectation(
            CAP_DETERMINISTIC, "access crosses the right guard page"
        )
    else:
        gwp = Expectation(
            CAP_NONE,
            f"access fits the {slack}-byte alignment slack before the guard",
        )
    expected[ARM_GWP_ASAN] = gwp

    # --- DoubleTake (epoch-end canary sweep + replay) -------------------
    # Evidence-based: only writes leave evidence, and only writes that
    # touch the canary word at object end (or the quarantine fill) are
    # ever found at an epoch boundary.  Reads are invisible by design.
    overlaps_canary = (
        access_offset < CANARY_BYTES and access_offset + access_length > 0
    )
    if defect == DEFECT_BENIGN:
        dtake = Expectation(CAP_NONE, "access stays inside the object")
    elif defect == DEFECT_DOUBLE_FREE:
        dtake = Expectation(
            CAP_DETERMINISTIC,
            "the delayed-free quarantine rejects the second free",
        )
    elif defect in _UAF_DEFECTS:
        dtake = Expectation(
            CAP_NONE,
            "the read leaves the quarantine fill intact; reads record "
            "no evidence",
        )
    elif defect == DEFECT_UNDERFLOW:
        dtake = Expectation(
            CAP_NONE,
            "the read leaves the leading canary intact; reads record "
            "no evidence",
        )
    elif access_kind != "write":
        dtake = Expectation(
            CAP_NONE, "reads corrupt no canary and leave no evidence"
        )
    elif overlaps_canary:
        dtake = Expectation(
            CAP_DETERMINISTIC,
            "the write corrupts the trailing canary, found at the "
            "epoch-end sweep; replay attributes the exact store",
        )
    else:
        dtake = Expectation(
            CAP_NONE, "non-continuous write skips the trailing canary word"
        )
    expected[ARM_DOUBLETAKE] = dtake
    return expected
