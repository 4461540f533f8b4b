"""Scheduler: fair slot leasing, multi-tenant determinism, cancellation."""

import asyncio
import json
from unittest import mock

import pytest

from repro.fleet.runner import FleetCampaign, run_fleet
from repro.service.queue import (
    STATE_CANCELLED,
    STATE_COMPLETED,
    STATE_FAILED,
    CampaignSubmission,
    JobQueue,
)
from repro.service.scheduler import CampaignScheduler, WorkerSlots
from repro.service.stream import FIREHOSE, EventBus


# ----------------------------------------------------------------------
# WorkerSlots
# ----------------------------------------------------------------------
def test_slots_reject_nonpositive_total():
    with pytest.raises(ValueError, match="worker slots must be >= 1"):
        WorkerSlots(0)


def test_slots_clamp_to_pool_size():
    slots = WorkerSlots(4)
    assert slots.clamp(0) == 1
    assert slots.clamp(3) == 3
    assert slots.clamp(99) == 4


def test_slots_acquire_release_cycle():
    async def scenario():
        slots = WorkerSlots(4)
        granted = await slots.acquire(3)
        assert granted == 3 and slots.free == 1
        slots.release(granted)
        assert slots.free == 4

    asyncio.run(scenario())


def test_slots_multi_unit_acquire_is_atomic():
    """Two 2-slot tenants on 3 slots never deadlock at 1.5 slots each."""

    async def scenario():
        slots = WorkerSlots(3)
        order = []

        async def tenant(name):
            for _ in range(3):
                await slots.acquire(2)
                order.append(name)
                await asyncio.sleep(0)
                slots.release(2)

        await asyncio.gather(tenant("a"), tenant("b"))
        return order

    order = asyncio.run(scenario())
    assert sorted(order) == ["a", "a", "a", "b", "b", "b"]


def test_slots_fifo_fairness_no_starvation_of_wide_requests():
    async def scenario():
        slots = WorkerSlots(2)
        await slots.acquire(2)
        grants = []

        async def wide():
            await slots.acquire(2)
            grants.append("wide")
            slots.release(2)

        async def narrow():
            await slots.acquire(1)
            grants.append("narrow")
            slots.release(1)

        wide_task = asyncio.create_task(wide())
        await asyncio.sleep(0)  # wide queues first
        narrow_task = asyncio.create_task(narrow())
        await asyncio.sleep(0)
        slots.release(2)
        await asyncio.gather(wide_task, narrow_task)
        return grants

    # The wide request arrived first: the narrow one must not jump it
    # even though a single free slot could have served it earlier.
    assert asyncio.run(scenario()) == ["wide", "narrow"]


def test_slots_cancelled_waiter_is_forgotten():
    async def scenario():
        slots = WorkerSlots(1)
        await slots.acquire(1)
        waiter = asyncio.create_task(slots.acquire(1))
        await asyncio.sleep(0)
        waiter.cancel()
        try:
            await waiter
        except asyncio.CancelledError:
            pass
        slots.release(1)
        return slots.free

    assert asyncio.run(scenario()) == 1


# ----------------------------------------------------------------------
# Scheduler harness
# ----------------------------------------------------------------------
def drive(submissions, total_workers=2, cancel_after_waves=None):
    """Run submissions through an in-process scheduler; returns jobs.

    With ``cancel_after_waves``, each job is cancelled through the queue
    (as a client would) once that many of its waves are done.  The
    request comes from a wrapper around ``FleetCampaign.run_next_wave``,
    not from a poll, so a fast campaign cannot finish before it.
    """

    async def scenario():
        loop = asyncio.get_running_loop()
        queue = JobQueue()
        bus = EventBus()
        queue.attach_loop(loop)
        bus.attach_loop(loop)
        scheduler = CampaignScheduler(queue, bus, total_workers=total_workers)
        run_next_wave = FleetCampaign.run_next_wave

        def run_wave_then_cancel(campaign):
            progress = run_next_wave(campaign)
            if (
                progress is not None
                and progress.wave_index + 1 == cancel_after_waves
            ):
                queue.cancel(campaign.campaign_id)
            return progress

        with mock.patch.object(
            FleetCampaign, "run_next_wave", run_wave_then_cancel
        ):
            jobs = [queue.submit(submission) for submission in submissions]
            runner = asyncio.create_task(scheduler.run())
            try:
                while not all(job.finished for job in jobs):
                    await asyncio.sleep(0.02)
            finally:
                await scheduler.stop()
                runner.cancel()
        return jobs, bus, scheduler

    return asyncio.run(scenario())


def standalone_payload(submission):
    """What the same campaign produces through plain run_fleet."""
    result = run_fleet(
        submission.app,
        executions=submission.executions,
        workers=submission.workers,
        policy=submission.policy,
        share_evidence=submission.share_evidence,
        seed_base=submission.seed,
        timeout_seconds=submission.timeout_seconds,
        chunk_size=submission.chunk_size,
        wave_size=submission.effective_wave_size(),
    )
    return json.dumps(result.aggregator.to_dict(), sort_keys=True)


def test_two_interleaved_campaigns_match_standalone_run_fleet():
    """Satellite: shared-service tenants are byte-identical to solo runs."""
    submissions = [
        CampaignSubmission(app="gzip", executions=12, seed=3),
        CampaignSubmission(app="libtiff", executions=12, seed=5),
    ]
    jobs, _, _ = drive(submissions, total_workers=2)
    for job, submission in zip(jobs, submissions):
        assert job.state == STATE_COMPLETED
        service_bytes = json.dumps(
            job.result_payload["aggregate"], sort_keys=True
        )
        assert service_bytes == standalone_payload(submission)


def test_result_is_independent_of_queue_contents():
    """The same submission, alone vs crowded, yields the same bytes."""
    probe = CampaignSubmission(app="zziplib", executions=10, seed=7)
    alone, _, _ = drive([probe], total_workers=2)
    crowd = [
        CampaignSubmission(app="gzip", executions=10, seed=1, priority=5),
        probe,
        CampaignSubmission(app="libtiff", executions=10, seed=2),
    ]
    crowded, _, _ = drive(crowd, total_workers=2)
    probe_alone = alone[0].result_payload
    probe_crowded = crowded[1].result_payload
    assert probe_alone["scorecard"]["app"] == "zziplib"
    # job ids differ with admission seq; the science must not.
    assert json.dumps(probe_alone["aggregate"], sort_keys=True) == json.dumps(
        probe_crowded["aggregate"], sort_keys=True
    )
    a = dict(probe_alone["scorecard"])
    b = dict(probe_crowded["scorecard"])
    assert a == b


def test_shared_evidence_campaign_matches_standalone():
    submission = CampaignSubmission(
        app="gzip", executions=8, seed=2, share_evidence=True
    )
    jobs, _, _ = drive([submission], total_workers=2)
    assert jobs[0].state == STATE_COMPLETED
    assert json.dumps(
        jobs[0].result_payload["aggregate"], sort_keys=True
    ) == standalone_payload(submission)


def test_waves_interleave_between_equal_tenants():
    submissions = [
        CampaignSubmission(app="gzip", executions=12, seed=0),
        CampaignSubmission(app="gzip", executions=12, seed=100),
    ]
    jobs, bus, _ = drive(submissions, total_workers=1)
    wave_owners = [
        event["job_id"]
        for event in bus.events_since(FIREHOSE)
        if event["event"] == "wave"
    ]
    switches = sum(
        1 for a, b in zip(wave_owners, wave_owners[1:]) if a != b
    )
    # 6 waves each; FIFO-fair slot leasing alternates them rather than
    # letting the first admitted job run to completion.
    assert len(wave_owners) == 12
    assert switches >= 4


def test_cancelled_job_releases_slots_and_reports_partial_result():
    submissions = [
        CampaignSubmission(app="gzip", executions=40, seed=0),
    ]
    jobs, _, scheduler = drive(
        submissions, total_workers=1, cancel_after_waves=2
    )
    job = jobs[0]
    assert job.state == STATE_CANCELLED
    assert scheduler.slots.free == scheduler.slots.total
    assert job.result_payload is not None
    assert job.result_payload["scorecard"]["cancelled"] is True
    # Partial: some waves ran, not all executions.
    assert 0 < job.result_payload["scorecard"]["executions"] < 40
    assert scheduler.jobs_cancelled == 1


def test_failing_campaign_fails_its_own_job_only():
    class BadSubmission(CampaignSubmission):
        def effective_wave_size(self):
            return -1  # sails past validation, detonates in FleetCampaign

    submissions = [
        BadSubmission(app="gzip", executions=10),
        CampaignSubmission(app="libtiff", executions=10, seed=5),
    ]
    jobs, _, scheduler = drive(submissions, total_workers=1)
    assert jobs[0].state == STATE_FAILED
    assert jobs[0].error is not None
    assert jobs[1].state == STATE_COMPLETED
    assert scheduler.jobs_failed == 1 and scheduler.jobs_completed == 1


def test_wave_events_carry_progress_fields():
    submissions = [CampaignSubmission(app="gzip", executions=12, seed=3)]
    jobs, bus, _ = drive(submissions, total_workers=1)
    waves = [
        event
        for event in bus.events_since(jobs[0].job_id)
        if event["event"] == "wave"
    ]
    assert waves, "no wave events streamed"
    last = waves[-1]
    for key in (
        "wave",
        "waves_total",
        "executions_done",
        "executions_total",
        "executions_detected",
        "unique_reports",
        "raw_reports",
        "dedup_ratio",
        "new_evidence",
        "evidence_epoch",
    ):
        assert key in last
    assert last["executions_done"] == 12
    assert [event["wave"] for event in waves] == list(range(len(waves)))
