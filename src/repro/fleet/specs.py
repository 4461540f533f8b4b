"""Fleet execution specs and results.

A fleet campaign is a list of :class:`ExecutionSpec`s — one simulated
production process each — fanned out over a worker pool.  Both the spec
and the :class:`ExecutionResult` coming back are plain picklable data:
the spec carries everything a worker needs to reconstruct the execution
deterministically (app name, config, seed, preloaded evidence), and the
result carries only serialisable facts (signatures, counters, report
dicts), never live runtime objects.  That is the GWP-ASan shape: the
process under test knows nothing about the fleet; the crash handler
uploads a self-contained report.

Dispatch is **chunked**: the coordinator groups specs into
:class:`WorkChunk`s, one pickle/IPC round trip each, and a worker runs
the chunk serially and answers with a single :class:`ChunkOutcome` —
per-execution :class:`LeanExecutionResult`s (report signatures only,
frame strings shipped once per novel signature via the chunk's context
table) plus a pre-folded partial aggregate.  The coordinator rehydrates
the lean results into full :class:`ExecutionResult`s, so pool callers
never see the wire format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import CSODConfig

OUTCOME_OK = "ok"
OUTCOME_CRASH = "worker-crash"
OUTCOME_TIMEOUT = "timeout"

# signature -> (allocation_context frames, access_context frames)
ContextTable = Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]]


@dataclass(frozen=True)
class ExecutionSpec:
    """One execution of one app under one seeded CSOD runtime."""

    app: str
    seed: int
    index: int  # 0-based position in the campaign
    config: CSODConfig = field(default_factory=CSODConfig)
    # Evidence signatures persisted by earlier executions; the worker
    # preloads them so known-bad contexts are watched from the first
    # allocation (§IV-B).  Campaign dispatch leaves this empty and
    # broadcasts evidence per chunk instead (as a delta); a spec
    # with explicit evidence always wins over the chunk's.
    evidence: Tuple[str, ...] = ()
    # Allocation-schedule scale factor; ``None`` selects the app's
    # default effectiveness scale.  Bisection shrinks this toward the
    # smallest schedule that still re-triggers a cluster.
    scale: Optional[float] = None


@dataclass(frozen=True)
class ReportRecord:
    """The picklable projection of one OverflowReport."""

    signature: str
    kind: str
    source: str
    allocation_context: Tuple[str, ...]
    access_context: Tuple[str, ...]


@dataclass
class ExecutionResult:
    """What one execution sends back to the aggregator."""

    app: str
    seed: int
    index: int
    outcome: str = OUTCOME_OK
    detected: bool = False
    detected_by_watchpoint: bool = False
    reports: List[ReportRecord] = field(default_factory=list)
    # Evidence signatures this execution would persist (overflow observed).
    new_evidence: Tuple[str, ...] = ()
    # Counters lifted from CSODStats for telemetry.
    allocations: int = 0
    contexts: int = 0
    watched_times: int = 0
    traps_handled: int = 0
    canary_corruptions: int = 0
    wall_seconds: float = 0.0
    attempts: int = 1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.outcome == OUTCOME_OK


@dataclass(frozen=True)
class WorkChunk:
    """One IPC round trip: several specs run serially in one worker.

    A chunk is self-contained, so any worker of the shared executor can
    run any campaign's chunk: it carries its campaign's token (the key
    of the worker's shipped-frames memory) and the wave-boundary
    evidence set — the campaign-start base plus every signature merged
    since, a few signatures in practice.
    """

    specs: Tuple[ExecutionSpec, ...]
    campaign: int
    evidence: Tuple[str, ...] = ()
    # Base attempt number: 2 when the chunk is a coordinator-side
    # resubmission of crashed specs (no further retry inside).
    attempts: int = 1
    retry_crashed: bool = True


@dataclass
class LeanExecutionResult:
    """The wire form of one execution: signatures, no frame strings.

    Frame tuples travel once per novel signature in the chunk's context
    table; :meth:`hydrate` re-attaches them coordinator-side, so equal
    executions produce equal :class:`ExecutionResult`s at any worker
    count.
    """

    app: str
    seed: int
    index: int
    outcome: str = OUTCOME_OK
    detected: bool = False
    detected_by_watchpoint: bool = False
    # (signature, kind, source) triples, in report order.
    reports: Tuple[Tuple[str, str, str], ...] = ()
    new_evidence: Tuple[str, ...] = ()
    allocations: int = 0
    contexts: int = 0
    watched_times: int = 0
    traps_handled: int = 0
    canary_corruptions: int = 0
    wall_seconds: float = 0.0
    attempts: int = 1
    error: Optional[str] = None
    # Wall-clock spent on the in-worker crash retry, if one happened.
    retry_wall_ms: float = 0.0

    def hydrate(self, contexts: ContextTable) -> ExecutionResult:
        """Rebuild the full result from the coordinator's context table."""
        empty = ((), ())
        return ExecutionResult(
            app=self.app,
            seed=self.seed,
            index=self.index,
            outcome=self.outcome,
            detected=self.detected,
            detected_by_watchpoint=self.detected_by_watchpoint,
            reports=[
                ReportRecord(
                    signature=signature,
                    kind=kind,
                    source=source,
                    allocation_context=contexts.get(signature, empty)[0],
                    access_context=contexts.get(signature, empty)[1],
                )
                for signature, kind, source in self.reports
            ],
            new_evidence=self.new_evidence,
            allocations=self.allocations,
            contexts=self.contexts,
            watched_times=self.watched_times,
            traps_handled=self.traps_handled,
            canary_corruptions=self.canary_corruptions,
            wall_seconds=self.wall_seconds,
            attempts=self.attempts,
            error=self.error,
        )


def lean_from(result: ExecutionResult, retry_wall_ms: float = 0.0) -> LeanExecutionResult:
    """Project a full result onto the wire form."""
    return LeanExecutionResult(
        app=result.app,
        seed=result.seed,
        index=result.index,
        outcome=result.outcome,
        detected=result.detected,
        detected_by_watchpoint=result.detected_by_watchpoint,
        reports=tuple(
            (r.signature, r.kind, r.source) for r in result.reports
        ),
        new_evidence=result.new_evidence,
        allocations=result.allocations,
        contexts=result.contexts,
        watched_times=result.watched_times,
        traps_handled=result.traps_handled,
        canary_corruptions=result.canary_corruptions,
        wall_seconds=result.wall_seconds,
        attempts=result.attempts,
        error=result.error,
        retry_wall_ms=retry_wall_ms,
    )
