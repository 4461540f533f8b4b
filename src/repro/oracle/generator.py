"""The seeded ground-truth workload generator.

A generated program is fully determined by three integers-worth of
genome: the campaign seed, the program index, and the defect class.
Everything else — allocation counts, contexts, churn, thread
interleaving, whether the buggy code lives in an uninstrumented shared
library, the exact bytes the injected access touches — is drawn from a
``random.Random`` seeded with that genome, so the *name*
``oracle:s<seed>:i<index>:<defect>`` is a complete description of the
program.  That property is load-bearing: fleet worker processes and the
triage bisector resolve apps by name through
:func:`repro.workloads.buggy.registry.app_for`, and a generated app
must rebuild byte-identically wherever the name travels.

The program body is a :class:`~repro.workloads.base.SyntheticBuggyApp`
schedule; the only behavioural extension is the use-after-free defect,
which frees the victim immediately before the injected access via the
base class's ``_pre_access`` hook.  Size-relative defect geometry
(underflow/UAF/benign offsets depend on the victim's size) is resolved
*after* the schedule — and after any bisection scale — is fixed, so a
shrunk oracle app still injects the same class of defect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.errors import WorkloadError
from repro.oracle.grammar import (
    ALL_DEFECTS,
    DEFECT_BENIGN,
    DEFECT_CROSS_THREAD_UAF,
    DEFECT_DOUBLE_FREE,
    DEFECT_OFF_BY_N,
    DEFECT_OVER_READ,
    DEFECT_OVER_WRITE,
    DEFECT_REALLOC_SHRINK,
    DEFECT_UAF,
    DEFECT_UNDERFLOW,
    GroundTruth,
    expectations,
)
from repro.workloads.base import (
    BuggyAppSpec,
    SyntheticBuggyApp,
    build_schedule,
)

ORACLE_PREFIX = "oracle:"

_DEFECT_IDS: Dict[str, int] = {d: i for i, d in enumerate(ALL_DEFECTS)}


@dataclass(frozen=True)
class OracleAppSpec(BuggyAppSpec):
    """A buggy-app spec with the oracle's extra defect dimensions."""

    # Free the victim right before the injected access (use-after-free).
    free_before_access: bool = False
    # Free the victim twice back to back (double-free); the "access"
    # is the second free, so overflow_length is 0 and no load/store is
    # injected.
    double_free: bool = False
    # Realloc the victim down to this size right before the access
    # (0 disables); the access then runs past the post-shrink end.
    realloc_shrink_to: int = 0
    # The *allocating* (main) thread frees the victim while the worker
    # thread performs the access (cross-thread-uaf).  Implies
    # free_before_access and overflow_from_worker.
    cross_thread_free: bool = False
    # The injected defect class (grammar.ALL_DEFECTS).
    defect: str = ""


class OracleApp(SyntheticBuggyApp):
    """A generated program; adds the free-before-access defect."""

    spec: OracleAppSpec

    def _pre_access(self, process, thread, heap, addresses, live) -> None:
        spec = self.spec
        victim = next(
            (i for i, event in live.items() if event.is_victim), None
        )
        if victim is None:
            return
        if spec.realloc_shrink_to:
            # The realloc runs under the victim's own context chain: a
            # baseline arm's out-of-place realloc allocates the moved
            # object *here*, so its allocation context still carries
            # the victim marker the judge attributes by.
            new_address = thread.call_stack.call_under(
                self.chains()[0],
                heap.realloc,
                thread,
                addresses[victim],
                spec.realloc_shrink_to,
            )
            addresses[victim] = new_address
            self._victim_override = (new_address, spec.realloc_shrink_to)
            return
        if spec.cross_thread_free:
            # The dereferencing thread (``thread`` here: the worker)
            # touches the allocator first, so its own RNG stream and
            # one-entry key cache are live for the victim's context...
            scratch = thread.call_stack.call_under(
                self.chains()[0], heap.malloc, thread, 32
            )
            heap.free(thread, scratch)
            # ...while the *allocating* (main) thread frees the victim.
            heap.free(process.main_thread, addresses[victim])
            del live[victim]
            return
        if not (spec.free_before_access or spec.double_free):
            return
        heap.free(thread, addresses[victim])
        del live[victim]
        if spec.double_free:
            # The defect itself: free the same pointer again.  Arms
            # that can't diagnose it see the allocator abort instead.
            heap.free(thread, addresses[victim])


@dataclass
class OracleProgram:
    """One generated program plus its manifest."""

    name: str
    spec: OracleAppSpec
    truth: GroundTruth
    # Base RNG seed for this program's executions; execution k of the
    # differential harness runs with seed ``base_seed + k``.
    base_seed: int

    def app(self) -> OracleApp:
        """The runnable app (shared cache via the buggy registry)."""
        from repro.workloads.buggy.registry import app_for

        return app_for(self.name)


# ----------------------------------------------------------------------
# Name codec
# ----------------------------------------------------------------------
def encode_name(seed: int, index: int, defect: str) -> str:
    return f"{ORACLE_PREFIX}s{seed}:i{index}:{defect}"


def is_oracle_name(name: str) -> bool:
    return name.startswith(ORACLE_PREFIX)


def parse_name(name: str) -> Tuple[int, int, str]:
    """``oracle:s<seed>:i<index>:<defect>`` -> (seed, index, defect)."""
    parts = name.split(":")
    if (
        len(parts) != 4
        or parts[0] + ":" != ORACLE_PREFIX
        or not parts[1].startswith("s")
        or not parts[2].startswith("i")
    ):
        raise WorkloadError(
            f"malformed oracle app name {name!r}; expected "
            f"'{ORACLE_PREFIX}s<seed>:i<index>:<defect>'"
        )
    try:
        seed = int(parts[1][1:])
        index = int(parts[2][1:])
    except ValueError:
        raise WorkloadError(
            f"malformed oracle app name {name!r}: seed/index must be ints"
        ) from None
    defect = parts[3]
    if defect not in ALL_DEFECTS:
        raise WorkloadError(
            f"unknown oracle defect {defect!r} in {name!r}; "
            f"expected one of {list(ALL_DEFECTS)}"
        )
    if seed < 0 or index < 0:
        raise WorkloadError(
            f"oracle app name {name!r}: seed and index must be >= 0"
        )
    return seed, index, defect


def _genome_seed(seed: int, index: int, defect: str) -> int:
    # Plain integer arithmetic: stable across processes and Python
    # versions (never hash(), which is salted for strings).
    return (seed * 1_000_003 + index * 7_919 + _DEFECT_IDS[defect]) & (
        2**63 - 1
    )


# ----------------------------------------------------------------------
# Genome -> program
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _DefectParams:
    """Size-independent defect draw (fixed before any scaling)."""

    access_kind: str  # read / write
    access_length: int
    in_library: bool


def _draw_structure(
    rng: random.Random, name: str, vuln_module: str, defect: str
) -> OracleAppSpec:
    """Draw the grammar's structural dimensions (fixed draw order)."""
    total_contexts = rng.randint(3, 7)
    before_contexts = rng.randint(2, total_contexts)
    total_allocations = rng.randint(24, 72)
    before_lo = before_contexts + 6
    before_hi = max(before_lo, (total_allocations * 2) // 3)
    before_allocations = rng.randint(before_lo, before_hi)
    total_allocations = max(total_allocations, before_allocations + 4)
    victim_alloc_index = rng.randint(2, min(10, before_allocations))
    prior = rng.randint(0, min(2, victim_alloc_index - 1))
    churn = rng.choice((0.0, 0.2, 0.4))
    churn_lifetime = rng.randint(4, 10)
    context_depth = rng.randint(3, 6)
    work_ns = rng.choice((0, 50_000, 200_000))
    long_lived_first = rng.choice((0, 2, 4))
    from_worker = rng.random() < 0.25
    return OracleAppSpec(
        name=name,
        bug_kind=DEFECT_OVER_READ,  # refined by _apply_defect
        vuln_module=vuln_module,
        reference="oracle-generated",
        total_contexts=total_contexts,
        total_allocations=total_allocations,
        before_contexts=before_contexts,
        before_allocations=before_allocations,
        victim_alloc_index=victim_alloc_index,
        victim_context_prior_allocs=prior,
        churn=churn,
        churn_lifetime=churn_lifetime,
        structural_seed=rng.randrange(2**31),
        context_depth=context_depth,
        work_ns_per_alloc=work_ns,
        long_lived_first=long_lived_first,
        overflow_from_worker=from_worker,
        defect="",  # stamped by _apply_defect
    )


def _draw_defect(rng: random.Random, defect: str) -> _DefectParams:
    """Draw the defect's size-independent parameters."""
    in_library = rng.random() < 1.0 / 3.0
    if defect == DEFECT_OVER_READ:
        return _DefectParams("read", 8, in_library)
    if defect == DEFECT_OVER_WRITE:
        return _DefectParams("write", 8, in_library)
    if defect == DEFECT_OFF_BY_N:
        return _DefectParams(
            rng.choice(("read", "write")), rng.randint(1, 7), in_library
        )
    if defect == DEFECT_UNDERFLOW:
        return _DefectParams("read", 8, in_library)
    if defect == DEFECT_UAF:
        return _DefectParams("read", 8, in_library)
    if defect == DEFECT_BENIGN:
        return _DefectParams(
            rng.choice(("read", "write")), 8, in_library
        )
    if defect == DEFECT_DOUBLE_FREE:
        return _DefectParams("free", 0, in_library)
    if defect == DEFECT_REALLOC_SHRINK:
        return _DefectParams("read", 8, in_library)
    if defect == DEFECT_CROSS_THREAD_UAF:
        return _DefectParams("read", 8, in_library)
    raise WorkloadError(f"unknown oracle defect {defect!r}")


def _victim_size(spec: OracleAppSpec) -> int:
    events, victim_pos = build_schedule(spec)
    return events[victim_pos].size


def _access_offset(defect: str, victim_size: int) -> int:
    """Where the access starts, relative to the victim's END."""
    if defect in (DEFECT_OVER_READ, DEFECT_OVER_WRITE, DEFECT_OFF_BY_N):
        return 0  # continuous: the first byte past the object
    if defect == DEFECT_UNDERFLOW:
        return -(victim_size + 8)  # the 8 bytes before the object
    if defect == DEFECT_UAF:
        return -victim_size  # the object's first bytes, after free
    if defect == DEFECT_BENIGN:
        return -16  # fully inside the object (sizes are >= 16)
    if defect == DEFECT_DOUBLE_FREE:
        return 0  # no memory access is injected (length 0)
    if defect == DEFECT_REALLOC_SHRINK:
        return 0  # continuous past the POST-SHRINK end (victim override)
    if defect == DEFECT_CROSS_THREAD_UAF:
        return -victim_size  # the object's first bytes, after free
    raise WorkloadError(f"unknown oracle defect {defect!r}")


def _apply_defect(
    spec: OracleAppSpec, defect: str, params: _DefectParams
) -> OracleAppSpec:
    """Resolve size-relative geometry against the (final) schedule."""
    size = _victim_size(spec)
    spec = replace(
        spec,
        bug_kind=(
            DEFECT_OVER_WRITE if params.access_kind == "write"
            else DEFECT_OVER_READ
        ),
        overflow_skip=_access_offset(defect, size),
        overflow_length=params.access_length,
        free_before_access=(
            defect in (DEFECT_UAF, DEFECT_CROSS_THREAD_UAF)
        ),
        double_free=(defect == DEFECT_DOUBLE_FREE),
        defect=defect,
    )
    if defect == DEFECT_REALLOC_SHRINK:
        # Halve the victim (8-byte minimum keeps the canary word
        # addressable); the manifest's geometry is the shrunk size.
        spec = replace(spec, realloc_shrink_to=max(8, size // 2))
    elif defect == DEFECT_CROSS_THREAD_UAF:
        # The worker dereferences; the main thread frees.
        spec = replace(
            spec, cross_thread_free=True, overflow_from_worker=True
        )
    return spec


def _build_spec(
    seed: int, index: int, defect: str, scale: Optional[float]
) -> Tuple[OracleAppSpec, _DefectParams]:
    name = encode_name(seed, index, defect)
    vuln_module = f"ORACLE_S{seed}_I{index}/VULN"
    rng = random.Random(_genome_seed(seed, index, defect))
    params = _draw_defect(rng, defect)
    if params.in_library:
        vuln_module += ".SO"
    spec = _draw_structure(rng, name, vuln_module, defect)
    if scale is not None and scale < 1.0:
        spec = spec.scaled(scale)
    return _apply_defect(spec, defect, params), params


def generate(seed: int, index: int, defect: str) -> OracleProgram:
    """Generate one program with its ground-truth manifest."""
    if defect not in ALL_DEFECTS:
        raise WorkloadError(
            f"unknown oracle defect {defect!r}; "
            f"expected one of {list(ALL_DEFECTS)}"
        )
    spec, params = _build_spec(seed, index, defect, scale=None)
    size = _victim_size(spec)
    # realloc-shrink: every size-relative judgement (slack, redzone
    # position, span fallback) is against the post-shrink victim.
    if defect == DEFECT_REALLOC_SHRINK:
        size = spec.realloc_shrink_to
    truth = GroundTruth(
        app=spec.name,
        defect=defect,
        access_kind=params.access_kind,
        bug_kind=spec.bug_kind,
        benign=(defect == DEFECT_BENIGN),
        victim_size=size,
        access_offset=spec.overflow_skip,
        access_length=spec.overflow_length,
        in_library=params.in_library,
        free_before_access=spec.free_before_access,
        victim_marker=f"{spec.vuln_module}/alloc.c:500",
        access_marker=f"{spec.vuln_module}/overflow.c:42",
        expected=expectations(
            defect,
            params.access_kind,
            spec.overflow_skip,
            spec.overflow_length,
            params.in_library,
            size,
        ),
    )
    base_seed = (_genome_seed(seed, index, defect) * 2_654_435_761 + 97) % (
        2**31
    )
    return OracleProgram(
        name=spec.name, spec=spec, truth=truth, base_seed=base_seed
    )


def program_from_name(name: str) -> OracleProgram:
    """Rebuild a program (and manifest) from its self-describing name."""
    seed, index, defect = parse_name(name)
    return generate(seed, index, defect)


def oracle_app_from_name(
    name: str, scale: Optional[float] = None
) -> OracleApp:
    """The runnable app for a generated name, optionally shrunk.

    Called by the buggy-app registry's name hook, which is how fleet
    workers and the triage bisector rebuild generated programs.  A
    ``scale`` below 1.0 shrinks the allocation schedule exactly like
    :meth:`BuggyAppSpec.scaled`, with the size-relative defect geometry
    re-resolved against the shrunk schedule.
    """
    seed, index, defect = parse_name(name)
    spec, _params = _build_spec(seed, index, defect, scale)
    return OracleApp(spec)
