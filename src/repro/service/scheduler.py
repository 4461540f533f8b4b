"""The campaign scheduler: many tenants, one pool of worker slots.

Each admitted job gets its own :class:`FleetCampaign` (its own
persistent worker processes, evidence store, aggregator — the unit of
determinism), but CPU concurrency is governed centrally: a campaign
must lease ``workers`` slots from the shared :class:`WorkerSlots`
before each wave and returns them the moment the wave (or its
cancellation) unwinds.  Leasing is FIFO-fair, so two jobs with equal
worker counts strictly interleave waves instead of the first admitted
one running to completion — and because a campaign's wave plan and RNG
streams depend only on its submission, the interleaving (or any other
tenant mix) cannot change a job's bytes.

Waves run through ``loop.run_in_executor`` on a thread pool sized to
the slot count: the asyncio loop stays responsive for submissions,
cancellations, and event streaming while the blocking fleet machinery
works underneath.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, Optional, Set, Tuple

from repro.errors import CampaignCancelled
from repro.fleet.runner import FleetCampaign, FleetRunResult
from repro.service.queue import (
    STATE_CANCELLED,
    STATE_COMPLETED,
    STATE_FAILED,
    JobQueue,
    JobRecord,
)
from repro.service.stream import EventBus


class WorkerSlots:
    """A FIFO-fair counting semaphore with multi-unit acquire.

    ``asyncio.Semaphore`` hands out one unit at a time; a wave needs
    ``workers`` units atomically or a two-worker job could deadlock
    against another two-worker job at one slot each.  Waiters are
    served strictly in arrival order — a large request at the head
    blocks later small ones, which is exactly the fairness guarantee
    (no starvation of wide jobs by a stream of narrow ones).
    """

    def __init__(self, total: int):
        if total < 1:
            raise ValueError(f"total worker slots must be >= 1, got {total}")
        self.total = total
        self.free = total
        self._waiters: Deque[Tuple[int, asyncio.Future]] = deque()

    def clamp(self, n: int) -> int:
        """A job may not ask for more slots than the service owns."""
        return max(1, min(n, self.total))

    async def acquire(self, n: int) -> int:
        n = self.clamp(n)
        if self.free >= n and not self._waiters:
            self.free -= n
            return n
        future = asyncio.get_running_loop().create_future()
        self._waiters.append((n, future))
        try:
            await future
        except asyncio.CancelledError:
            if not future.cancelled() and future.done():
                # Granted and cancelled in the same tick: give it back.
                self.release(n)
            else:
                self._waiters = deque(
                    (m, f) for m, f in self._waiters if f is not future
                )
            raise
        return n

    def release(self, n: int) -> None:
        self.free = min(self.total, self.free + n)
        self._drain()

    def _drain(self) -> None:
        while self._waiters:
            n, future = self._waiters[0]
            if future.cancelled():
                self._waiters.popleft()
                continue
            if self.free < n:
                return
            self._waiters.popleft()
            self.free -= n
            future.set_result(None)


def build_result_payload(job: JobRecord, result: FleetRunResult) -> dict:
    """The deterministic result document served for a finished job.

    ``aggregate`` is the full fleet view (``FleetAggregator.to_dict``)
    and ``scorecard`` the summary a dashboard renders — both contain
    only execution-stable facts, so a job's payload is byte-identical
    to the same campaign run standalone, whatever else was queued.
    """
    aggregator = result.aggregator
    lo, hi = aggregator.detection_rate_interval()
    scorecard = {
        "app": result.app,
        "executions": aggregator.executions,
        "executions_ok": aggregator.executions_ok,
        "executions_detected": aggregator.executions_detected,
        "detection_rate": (
            round(aggregator.executions_detected / aggregator.executions_ok, 6)
            if aggregator.executions_ok
            else 0.0
        ),
        "detection_rate_ci": [round(lo, 6), round(hi, 6)],
        "raw_reports": aggregator.raw_reports,
        "unique_reports": aggregator.unique_reports(),
        "dedup_ratio": round(aggregator.dedup_ratio, 4),
        "evidence_signatures": len(result.evidence),
        "share_evidence": result.share_evidence,
        "seed_base": result.seed_base,
        "workers": result.workers,
        "cancelled": result.cancelled,
        "triage": result.triage.to_dict() if result.triage else None,
    }
    return {
        "job_id": job.job_id,
        "aggregate": aggregator.to_dict(),
        "scorecard": scorecard,
    }


class CampaignScheduler:
    """Drives queued jobs to completion over shared worker slots."""

    def __init__(
        self,
        queue: JobQueue,
        bus: EventBus,
        total_workers: int = 2,
        bug_db=None,
    ):
        self.queue = queue
        self.bus = bus
        self.slots = WorkerSlots(total_workers)
        self.bug_db = bug_db
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self._tasks: Set[asyncio.Task] = set()
        self._stopping = False
        # Slot-count threads for waves, plus headroom so finish()
        # (pool teardown + triage clustering) never waits on a wave.
        self._executor = ThreadPoolExecutor(
            max_workers=total_workers + 4,
            thread_name_prefix="repro-service-wave",
        )
        if bug_db is not None:
            bug_db.subscribe(self._on_bug_event)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Admit jobs until :meth:`stop`; returns once drained."""
        while not self._stopping:
            job = self.queue.claim_next()
            if job is None:
                await self.queue.wait_for_work(timeout=0.25)
                continue
            task = asyncio.create_task(self._run_job(job))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def stop(self) -> None:
        """Cancel every live campaign and wait for jobs to settle."""
        self._stopping = True
        for job in self.queue.jobs():
            if not job.finished:
                self.queue.cancel(job.job_id)
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        self._executor.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    # One job
    # ------------------------------------------------------------------
    async def _run_job(self, job: JobRecord) -> None:
        loop = asyncio.get_running_loop()
        submission = job.submission
        config = None
        if submission.arms:
            # A validated single fleet arm: its registry config wins
            # over the policy-derived default.
            from repro.detectors import get as get_detector

            config = get_detector(submission.arms[0]).config()
        try:
            campaign = FleetCampaign(
                submission.app,
                executions=submission.executions,
                workers=submission.workers,
                policy=submission.policy,
                config=config,
                share_evidence=submission.share_evidence,
                seed_base=submission.seed,
                timeout_seconds=submission.timeout_seconds,
                chunk_size=submission.chunk_size,
                wave_size=submission.effective_wave_size(),
                bug_db=self.bug_db,
                campaign_id=job.job_id,
            )
        except Exception as exc:  # noqa: BLE001 — a bad submission that
            # slipped past validation fails its own job, not the service.
            self._finalize(job, STATE_FAILED, error=str(exc))
            return
        job.campaign = campaign
        job.waves_total = campaign.waves_total
        self._publish_job(job, "running")
        lease = self.slots.clamp(submission.workers)
        try:
            while True:
                if job.cancel_requested:
                    raise CampaignCancelled("client cancellation")
                await self.slots.acquire(lease)
                try:
                    progress = await loop.run_in_executor(
                        self._executor, campaign.run_next_wave
                    )
                finally:
                    # Released on wave completion AND on cancellation
                    # mid-wave — a cancelled tenant's slots go straight
                    # back to the pool.
                    self.slots.release(lease)
                if progress is None:
                    break
                job.waves_done = progress.wave_index + 1
                job.executions_done = progress.executions_done
                job.executions_detected = progress.executions_detected
                job.unique_reports = progress.unique_reports
                job.dedup_ratio = progress.dedup_ratio
                job.evidence_epoch = progress.evidence_epoch
                self.bus.publish(
                    job.job_id,
                    "wave",
                    job_id=job.job_id,
                    wave=progress.wave_index,
                    waves_total=progress.waves_total,
                    wave_executions=progress.wave_executions,
                    executions_done=progress.executions_done,
                    executions_total=progress.executions_total,
                    executions_detected=progress.executions_detected,
                    unique_reports=progress.unique_reports,
                    raw_reports=progress.raw_reports,
                    dedup_ratio=progress.dedup_ratio,
                    new_evidence=progress.new_evidence,
                    evidence_epoch=progress.evidence_epoch,
                )
            result = await loop.run_in_executor(self._executor, campaign.finish)
            job.result_payload = build_result_payload(job, result)
            self.bus.publish(
                job.job_id,
                "result",
                job_id=job.job_id,
                scorecard=job.result_payload["scorecard"],
            )
            self._finalize(job, STATE_COMPLETED)
        except CampaignCancelled:
            result = await loop.run_in_executor(
                self._executor, lambda: campaign.finish(cancelled=True)
            )
            job.result_payload = build_result_payload(job, result)
            self._finalize(job, STATE_CANCELLED)
        except Exception as exc:  # noqa: BLE001 — job isolation: one
            # broken campaign must never take the scheduler down.
            await loop.run_in_executor(self._executor, campaign.close)
            self._finalize(job, STATE_FAILED, error=str(exc))

    def _finalize(
        self, job: JobRecord, state: str, error: Optional[str] = None
    ) -> None:
        job.state = state
        job.error = error
        job.campaign = None
        if state == STATE_COMPLETED:
            self.jobs_completed += 1
        elif state == STATE_CANCELLED:
            self.jobs_cancelled += 1
        else:
            self.jobs_failed += 1
        self._publish_job(job, state, error=error)
        self.queue.retire(job)

    def _publish_job(
        self, job: JobRecord, state: str, error: Optional[str] = None
    ) -> None:
        fields: Dict[str, object] = dict(
            job_id=job.job_id,
            state=state,
            app=job.submission.app,
            priority=job.submission.priority,
            waves_total=job.waves_total,
            waves_done=job.waves_done,
            executions_done=job.executions_done,
        )
        if error is not None:
            fields["error"] = error
        self.bus.publish(job.job_id, "job", **fields)

    # ------------------------------------------------------------------
    # Live triage events
    # ------------------------------------------------------------------
    def _on_bug_event(self, event: dict) -> None:
        """Republish a BugDatabase status change onto the job's channel.

        Fires inside ``BugDatabase.update`` — i.e. from the executor
        thread running ``campaign.finish`` — *before* the job's result
        and completion events, so subscribers always see ``bug_new``
        for a fresh bug while the job is still running.
        """
        channel = event.get("campaign_id") or FIREHOSE_FALLBACK
        self.bus.publish(
            channel,
            f"bug_{event.get('status', 'new')}",
            job_id=event.get("campaign_id"),
            cluster_id=event.get("cluster_id"),
            kind=event.get("kind"),
            status=event.get("status"),
            occurrences=event.get("occurrences"),
            campaigns_seen=event.get("campaigns_seen"),
        )


# A bug event without a campaign id (direct CLI use of a subscribed
# database) still lands somewhere watchable.
FIREHOSE_FALLBACK = "firehose"
