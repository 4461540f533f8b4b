"""Fleet simulation: parallel campaigns with central aggregation.

CSOD's deployment model (§I, §VI) is statistical: each execution
watches a sampled subset of allocation contexts, and bugs are caught
"eventually with a sufficient number of executions".  This package
runs that fleet for real — a pool of worker *processes*, each one
simulated execution (:mod:`repro.fleet.pool`), a central deduplicating
aggregator keyed on stable report signatures
(:mod:`repro.fleet.aggregate`), a fleet-wide evidence store that
propagates canary detections to later executions
(:mod:`repro.fleet.evidence_store`), and campaign telemetry
(:mod:`repro.fleet.telemetry`) — orchestrated deterministically by
:func:`repro.fleet.runner.run_fleet`.
"""

from repro.fleet.aggregate import (
    AggregatedReport,
    FleetAggregator,
    PartialAggregate,
    render_fleet_report,
)
from repro.fleet.evidence_store import EvidenceStore, TemporaryEvidenceStore
from repro.fleet.pool import (
    FleetPool,
    WaveResult,
    close_executor,
    execute_spec,
    run_chunk,
)
from repro.fleet.runner import (
    FleetCampaign,
    FleetRunResult,
    WaveProgress,
    run_fleet,
)
from repro.fleet.specs import (
    ExecutionResult,
    ExecutionSpec,
    LeanExecutionResult,
    ReportRecord,
    WorkChunk,
)
from repro.fleet.telemetry import (
    Counter,
    Histogram,
    JsonlEventLog,
    MetricsRegistry,
    read_jsonl,
    tail_jsonl,
)

__all__ = [
    "AggregatedReport",
    "Counter",
    "EvidenceStore",
    "ExecutionResult",
    "ExecutionSpec",
    "FleetAggregator",
    "FleetCampaign",
    "FleetPool",
    "FleetRunResult",
    "Histogram",
    "JsonlEventLog",
    "LeanExecutionResult",
    "MetricsRegistry",
    "PartialAggregate",
    "ReportRecord",
    "TemporaryEvidenceStore",
    "WaveProgress",
    "WaveResult",
    "WorkChunk",
    "close_executor",
    "execute_spec",
    "read_jsonl",
    "render_fleet_report",
    "run_chunk",
    "run_fleet",
]
