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
the chunk serially and answers with the chunk's
:class:`ExecutionResult`s, the same objects a serial run builds, which
the coordinator folds into its aggregator one by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.config import CSODConfig

OUTCOME_OK = "ok"
OUTCOME_CRASH = "worker-crash"
OUTCOME_TIMEOUT = "timeout"


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
    # sends the wave's full evidence set with each chunk instead; a
    # spec with explicit evidence always wins over the chunk's.
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
    run any campaign's chunk: it carries the wave-boundary evidence set
    — the campaign-start base plus every signature merged since, a few
    signatures in practice.
    """

    specs: Tuple[ExecutionSpec, ...]
    evidence: Tuple[str, ...] = ()
    # Base attempt number: 2 when the chunk is a coordinator-side
    # resubmission of crashed specs (no further retry inside).
    attempts: int = 1
    retry_crashed: bool = True
