"""The fleet campaign runner.

Ties the subsystem together: builds seeded :class:`ExecutionSpec`s,
dispatches them in **waves** through one :class:`FleetPool`,
folds each wave's pre-merged :class:`PartialAggregate` into the
:class:`FleetAggregator`, merges uploaded evidence into the
:class:`EvidenceStore` between waves (the next wave's chunks carry it
to the workers), and records telemetry.

Waves are the determinism contract.  Executions inside one wave share
the evidence snapshot taken at the wave boundary; signatures uploaded
by a wave become visible to the next wave only.  Worker scheduling
order therefore cannot leak into detection outcomes: a campaign with a
fixed seed produces byte-identical aggregated results at any worker
count, while evidence still propagates fleet-wide after each wave —
with ``workers=1`` this degenerates to exactly the serial
execution-to-execution persistence of §V-A2.

Wave sizing: without evidence sharing there is no cross-execution
state, so the whole campaign is one wave (one chunk per worker, minimal
dispatch overhead).  With sharing, waves default to ``workers``
executions — the historical protocol — and ``wave_size`` pins the
boundary explicitly; a fixed ``wave_size`` makes *shared-evidence*
campaigns byte-identical across worker counts too, since the evidence
visibility boundaries no longer move with ``workers``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover — import cycle guard only
    from repro.triage.bugdb import BugDatabase, TriageUpdate

from repro.core.config import CSODConfig, POLICY_NEAR_FIFO
from repro.errors import CampaignCancelled
from repro.fleet.aggregate import FleetAggregator
from repro.fleet.evidence_store import EvidenceStore
from repro.fleet.pool import DEFAULT_TIMEOUT_SECONDS, FleetPool
from repro.fleet.specs import ExecutionResult, ExecutionSpec
from repro.fleet.telemetry import JsonlEventLog, MetricsRegistry


@dataclass
class FleetRunResult:
    """Everything a fleet campaign produced."""

    app: str
    executions: int
    workers: int
    share_evidence: bool
    seed_base: int
    results: List[ExecutionResult]
    aggregator: FleetAggregator
    metrics: MetricsRegistry
    evidence: frozenset = field(default_factory=frozenset)
    # Populated when the campaign fed a bug database at completion.
    triage: Optional["TriageUpdate"] = None
    # True when the campaign was stopped before all executions ran;
    # results/aggregator then cover the completed waves only.
    cancelled: bool = False

    @property
    def detections(self) -> List[bool]:
        """Per-execution watchpoint detection flags, in execution order."""
        return [r.detected_by_watchpoint for r in self.results]


@dataclass(frozen=True)
class WaveProgress:
    """What one completed wave contributed — the streaming unit.

    Everything a live progress consumer needs without touching the
    campaign's mutable state: cumulative counts are snapshots taken at
    the wave boundary, so publishing these concurrently with the next
    wave is race-free.
    """

    wave_index: int
    waves_total: int
    wave_executions: int
    executions_done: int
    executions_total: int
    executions_detected: int
    unique_reports: int
    raw_reports: int
    dedup_ratio: float
    new_evidence: int
    evidence_epoch: int


class FleetCampaign:
    """A fleet campaign driven one wave at a time.

    The incremental core behind :func:`run_fleet` (which just loops
    :meth:`run_next_wave` to completion) and the campaign service
    (which interleaves waves of many campaigns over shared worker
    slots).  Construction validates everything fail-fast and builds the
    campaign's :class:`FleetPool`; the wave plan is fixed at
    construction from (executions, workers, wave_size, share_evidence)
    alone, so two campaigns with equal parameters run equal waves no
    matter who schedules them — the multi-tenant determinism contract.
    """

    def __init__(
        self,
        app: str,
        executions: int,
        workers: int = 1,
        policy: str = POLICY_NEAR_FIFO,
        share_evidence: bool = False,
        seed_base: int = 0,
        config: Optional[CSODConfig] = None,
        evidence_store: Optional[EvidenceStore] = None,
        event_log: Optional[JsonlEventLog] = None,
        metrics: Optional[MetricsRegistry] = None,
        timeout_seconds: Optional[float] = DEFAULT_TIMEOUT_SECONDS,
        chunk_size: Optional[int] = None,
        wave_size: Optional[int] = None,
        bug_db: Optional["BugDatabase"] = None,
        campaign_id: Optional[str] = None,
    ):
        if executions <= 0:
            raise ValueError(f"executions must be positive, got {executions}")
        if wave_size is not None and wave_size < 1:
            raise ValueError(f"wave_size must be >= 1, got {wave_size}")
        self.app = app
        self.executions = executions
        self.workers = workers
        self.share_evidence = share_evidence
        self.seed_base = seed_base
        self.config = config or CSODConfig(replacement_policy=policy)
        self.metrics = metrics or MetricsRegistry()
        self.event_log = event_log
        self.bug_db = bug_db
        self.campaign_id = campaign_id
        store = evidence_store if share_evidence else None
        if share_evidence and store is None:
            store = EvidenceStore()  # in-memory, campaign-local sharing
        self.store = store
        self.pool = FleetPool(
            workers=workers,
            timeout_seconds=timeout_seconds,
            chunk_size=chunk_size,
        )
        self.aggregator = FleetAggregator()
        self.results: List[ExecutionResult] = []
        # No store, no cross-execution state: one wave, maximal chunking.
        self.wave_size = wave_size or (
            max(1, workers) if store is not None else executions
        )
        self._wave_starts = list(range(0, executions, self.wave_size))
        self._next_wave = 0
        self._finished = False
        self.cancelled = False
        if store is not None:
            self.pool.set_evidence_base(store.snapshot())

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    @property
    def waves_total(self) -> int:
        return len(self._wave_starts)

    @property
    def waves_done(self) -> int:
        return self._next_wave

    @property
    def executions_done(self) -> int:
        return len(self.results)

    @property
    def done(self) -> bool:
        return self._next_wave >= len(self._wave_starts)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run_next_wave(self) -> Optional[WaveProgress]:
        """Run one wave; ``None`` once the campaign is complete.

        Raises :class:`repro.errors.CampaignCancelled` if the pool was
        stopped (via :meth:`cancel`) before or during the wave; the
        wave's chunks are already cancelled when that propagates.
        """
        if self._finished:
            raise RuntimeError("campaign already finished")
        if self.done:
            return None
        wave_start = self._wave_starts[self._next_wave]
        wave_indices = range(
            wave_start, min(wave_start + self.wave_size, self.executions)
        )
        specs = [
            ExecutionSpec(
                app=self.app,
                seed=self.seed_base + index,
                index=index,
                config=self.config,
            )
            for index in wave_indices
        ]
        outcome = self.pool.run_wave(specs)
        self.aggregator.merge_partial(outcome.partial)
        for result in outcome.results:
            self.results.append(result)
            if not result.ok:
                self.aggregator.failed.append(result)
            _record_execution(self.metrics, result, self.event_log)
        merged = 0
        if self.store is not None:
            new = self.store.absorb(
                signature
                for result in outcome.results
                for signature in result.new_evidence
            )
            merged = len(new)
            self.metrics.counter("evidence_signatures_merged").inc(merged)
            self.pool.advance_evidence(new)
        self._next_wave += 1
        return WaveProgress(
            wave_index=self._next_wave - 1,
            waves_total=self.waves_total,
            wave_executions=len(specs),
            executions_done=self.executions_done,
            executions_total=self.executions,
            executions_detected=self.aggregator.executions_detected,
            unique_reports=self.aggregator.unique_reports(),
            raw_reports=self.aggregator.raw_reports,
            dedup_ratio=round(self.aggregator.dedup_ratio, 4),
            new_evidence=merged,
            evidence_epoch=self.pool.evidence_epoch,
        )

    def cancel(self) -> None:
        """Stop the campaign; safe from any thread.

        The wave in flight (if any) abandons its chunks and raises
        :class:`CampaignCancelled` in whatever thread is driving
        it; the driver then calls :meth:`finish` with
        ``cancelled=True`` to drain telemetry.
        """
        self.pool.request_stop()

    def close(self) -> None:
        """Release the campaign's workers (idempotent)."""
        self.pool.close()

    def finish(self, cancelled: bool = False) -> FleetRunResult:
        """Close the pool, record campaign telemetry, feed the bug DB.

        With ``cancelled=True`` the campaign event still lands in the
        metrics/event log (the telemetry drain the one-shot CLI and the
        service both rely on) but the bug database is left untouched —
        a partial campaign must not advance cross-campaign status.
        """
        if self._finished:
            raise RuntimeError("campaign already finished")
        self._finished = True
        self.cancelled = cancelled
        self.pool.close()
        _record_campaign(
            self.metrics,
            self.pool,
            self.aggregator,
            self.event_log,
            self.app,
            cancelled=cancelled,
        )
        triage_update = None
        if self.bug_db is not None and not cancelled:
            triage_update = _feed_bug_db(
                self.bug_db,
                self.aggregator,
                self.campaign_id,
                self.metrics,
                self.event_log,
            )
        return FleetRunResult(
            app=self.app,
            executions=self.executions,
            workers=self.workers,
            share_evidence=self.share_evidence,
            seed_base=self.seed_base,
            results=self.results,
            aggregator=self.aggregator,
            metrics=self.metrics,
            evidence=(
                self.store.snapshot() if self.store is not None else frozenset()
            ),
            triage=triage_update,
            cancelled=cancelled,
        )


def run_fleet(
    app: str,
    executions: int,
    workers: int = 1,
    policy: str = POLICY_NEAR_FIFO,
    share_evidence: bool = False,
    seed_base: int = 0,
    config: Optional[CSODConfig] = None,
    evidence_store: Optional[EvidenceStore] = None,
    event_log: Optional[JsonlEventLog] = None,
    metrics: Optional[MetricsRegistry] = None,
    timeout_seconds: Optional[float] = DEFAULT_TIMEOUT_SECONDS,
    chunk_size: Optional[int] = None,
    wave_size: Optional[int] = None,
    bug_db: Optional["BugDatabase"] = None,
    campaign_id: Optional[str] = None,
) -> FleetRunResult:
    """Run one app's detection campaign across a simulated fleet.

    ``bug_db`` plugs the campaign into the triage layer: at campaign
    end the aggregated reports are clustered
    (:func:`repro.triage.cluster_reports`) and folded into the
    database under ``campaign_id`` (default ``campaign-<seq>``), and
    the per-status deltas land in the metrics registry and event log.

    A stop request (Ctrl-C, or :meth:`FleetCampaign.cancel` from
    another thread) abandons the wave's chunks (terminating the workers
    unless another campaign holds them), drains the partial campaign's
    telemetry, and re-raises — nothing leaks.
    """
    campaign = FleetCampaign(
        app,
        executions=executions,
        workers=workers,
        policy=policy,
        share_evidence=share_evidence,
        seed_base=seed_base,
        config=config,
        evidence_store=evidence_store,
        event_log=event_log,
        metrics=metrics,
        timeout_seconds=timeout_seconds,
        chunk_size=chunk_size,
        wave_size=wave_size,
        bug_db=bug_db,
        campaign_id=campaign_id,
    )
    try:
        while campaign.run_next_wave() is not None:
            pass
    except (CampaignCancelled, KeyboardInterrupt):
        campaign.finish(cancelled=True)
        raise
    except BaseException:
        campaign.close()
        raise
    return campaign.finish()


def _feed_bug_db(
    bug_db: "BugDatabase",
    aggregator: FleetAggregator,
    campaign_id: Optional[str],
    metrics: MetricsRegistry,
    event_log: Optional[JsonlEventLog],
) -> "TriageUpdate":
    """Cluster the campaign's reports into the persistent bug database."""
    # Imported here: triage consumes fleet.aggregate, so a top-level
    # import would be circular.
    from repro.triage.clustering import cluster_reports

    clusters = cluster_reports(aggregator.reports())
    update = bug_db.update(
        clusters,
        campaign_id=campaign_id,
        total_executions=aggregator.executions_ok,
    )
    metrics.counter("triage_clusters").inc(update.clusters)
    metrics.counter("triage_bugs_new").inc(len(update.new))
    metrics.counter("triage_bugs_reproduced").inc(len(update.reproduced))
    metrics.counter("triage_bugs_regressed").inc(len(update.regressed))
    merged = aggregator.unique_reports() - update.clusters
    metrics.counter("triage_signatures_merged").inc(max(0, merged))
    if event_log is not None:
        event_log.emit(
            "triage",
            campaign_id=update.campaign_id,
            seq=update.seq,
            clusters=update.clusters,
            new=list(update.new),
            reproduced=list(update.reproduced),
            regressed=list(update.regressed),
            bugs_total=len(bug_db),
        )
    return update


def _record_execution(
    metrics: MetricsRegistry,
    result: ExecutionResult,
    event_log: Optional[JsonlEventLog],
) -> None:
    metrics.counter("executions_run").inc()
    if not result.ok:
        metrics.counter("executions_failed").inc()
    if result.detected:
        metrics.counter("executions_detected").inc()
    metrics.counter("reports_raised").inc(len(result.reports))
    metrics.counter("watchpoint_arms").inc(result.watched_times)
    metrics.histogram("execution_wall_ms").observe(result.wall_seconds * 1e3)
    metrics.histogram("reports_per_execution").observe(len(result.reports))
    metrics.histogram("allocations_per_execution").observe(result.allocations)
    if event_log is not None:
        event_log.emit(
            "execution",
            app=result.app,
            index=result.index,
            seed=result.seed,
            outcome=result.outcome,
            attempts=result.attempts,
            detected=result.detected,
            detected_by_watchpoint=result.detected_by_watchpoint,
            reports=[r.signature for r in result.reports],
            new_evidence=list(result.new_evidence),
            allocations=result.allocations,
            watched_times=result.watched_times,
            wall_ms=round(result.wall_seconds * 1e3, 3),
            error=result.error,
        )


def _record_campaign(
    metrics: MetricsRegistry,
    pool: FleetPool,
    aggregator: FleetAggregator,
    event_log: Optional[JsonlEventLog],
    app: str,
    cancelled: bool = False,
) -> None:
    metrics.counter("worker_crashes").inc(pool.crashes)
    metrics.counter("worker_timeouts").inc(pool.timeouts)
    metrics.counter("worker_retries").inc(pool.retries)
    metrics.counter("executor_rebuilds").inc(pool.executor_rebuilds)
    metrics.counter("reports_unique").inc(aggregator.unique_reports())
    retry_histogram = metrics.histogram("retry_wall_ms")
    for wall_ms in pool.retry_wall_ms:
        retry_histogram.observe(wall_ms)
    if event_log is None:
        return
    for entry in aggregator.reports():
        event_log.emit(
            "report",
            app=app,
            signature=entry.signature,
            kind=entry.kind,
            count=entry.count,
            executions=entry.executions,
            first_seen=entry.first_seen,
            sources=dict(sorted(entry.sources.items())),
        )
    campaign_fields = dict(
        app=app,
        executions=aggregator.executions,
        detected=aggregator.executions_detected,
        raw_reports=aggregator.raw_reports,
        unique_reports=aggregator.unique_reports(),
        dedup_ratio=round(aggregator.dedup_ratio, 4),
    )
    # Only cancelled campaigns carry the flag, so completed campaigns'
    # event logs stay byte-identical to what they were before
    # cancellation existed.
    if cancelled:
        campaign_fields["cancelled"] = True
    event_log.emit("campaign", **campaign_fields)
