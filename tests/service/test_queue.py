"""Submissions: validation, deterministic ids, priority admission."""

import json

import pytest

from repro.errors import ServiceError
from repro.service.queue import (
    MAX_FINISHED_JOBS,
    STATE_CANCELLED,
    STATE_COMPLETED,
    STATE_QUEUED,
    STATE_RUNNING,
    CampaignSubmission,
    JobQueue,
)
from repro.service.stream import FIREHOSE, EventBus


def test_submission_defaults_validate():
    CampaignSubmission(app="gzip").validate()


def test_submission_accepts_oracle_genome():
    CampaignSubmission(app="oracle:s7:i0:over-write").validate()


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        (dict(app="nosuch"), "app:"),
        (dict(app="oracle:s7:i0:bogus"), "app:"),
        (dict(app="gzip", executions=0), "executions: must be >= 1"),
        (dict(app="gzip", workers=0), "workers: must be >= 1"),
        (dict(app="gzip", policy="lifo"), "policy: unknown policy"),
        (dict(app="gzip", wave_size=0), "wave_size: must be >= 1"),
        (dict(app="gzip", chunk_size=0), "chunk_size: must be >= 1"),
        (
            dict(app="gzip", timeout_seconds=0.0),
            "timeout_seconds: must be positive",
        ),
    ],
)
def test_submission_validation_names_the_field(kwargs, needle):
    with pytest.raises(ServiceError) as excinfo:
        CampaignSubmission(**kwargs).validate()
    assert needle in str(excinfo.value)


def test_from_dict_round_trips():
    original = CampaignSubmission(
        app="gzip", executions=20, workers=2, seed=5, priority=3
    )
    clone = CampaignSubmission.from_dict(original.to_dict())
    assert clone == original


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ServiceError, match="unknown fields"):
        CampaignSubmission.from_dict({"app": "gzip", "colour": "red"})


def test_from_dict_rejects_missing_app():
    with pytest.raises(ServiceError, match="app: required"):
        CampaignSubmission.from_dict({"executions": 10})


def test_from_dict_rejects_non_integer_counts():
    with pytest.raises(ServiceError, match="executions: must be an integer"):
        CampaignSubmission.from_dict({"app": "gzip", "executions": "ten"})


@pytest.mark.parametrize(
    "field, value, needle",
    [
        ("app", 5, "app: must be a string, got 5"),
        ("executions", True, "executions: must be an integer, got True"),
        ("workers", 2.0, "workers: must be an integer, got 2.0"),
        ("policy", None, "policy: must be a string, got None"),
        ("share_evidence", "false", "share_evidence: must be a boolean"),
        ("seed", "0", "seed: must be an integer, got '0'"),
        ("priority", False, "priority: must be an integer, got False"),
        ("wave_size", "4", "wave_size: must be an integer or null"),
        ("chunk_size", "2", "chunk_size: must be an integer or null"),
        ("timeout_seconds", "60", "timeout_seconds: must be a finite number"),
        ("timeout_seconds", float("nan"), "timeout_seconds: must be a finite"),
        ("arms", "csod", "arms: must be a list of strings or null"),
        ("arms", ["csod", 7], "arms: must be a list of strings or null"),
        ("wire", "pickle", "submission: unknown fields ['wire']"),
    ],
)
def test_from_dict_checks_every_field_type(field, value, needle):
    with pytest.raises(ServiceError) as excinfo:
        CampaignSubmission.from_dict({"app": "gzip", field: value})
    assert needle in str(excinfo.value)


def test_job_id_is_deterministic_and_seq_sensitive():
    submission = CampaignSubmission(app="gzip", executions=10)
    assert submission.job_id(1) == submission.job_id(1)
    assert submission.job_id(1) != submission.job_id(2)
    assert submission.job_id(1).startswith("job-")
    assert len(submission.job_id(1)) == len("job-") + 12


def test_job_id_depends_on_content():
    a = CampaignSubmission(app="gzip", executions=10)
    b = CampaignSubmission(app="gzip", executions=11)
    assert a.job_id(1) != b.job_id(1)


def test_same_batch_same_ids_on_fresh_queues():
    batch = [
        CampaignSubmission(app="gzip", executions=10),
        CampaignSubmission(app="libtiff", executions=20, priority=1),
    ]
    queue_one = JobQueue()
    ids_one = [queue_one.submit(s).job_id for s in batch]
    queue_two = JobQueue()
    ids_two = [queue_two.submit(s).job_id for s in batch]
    assert ids_one == ids_two


def test_effective_wave_size_is_submission_pure():
    shared = CampaignSubmission(app="gzip", workers=3, share_evidence=True)
    assert shared.effective_wave_size() == 3
    sliced = CampaignSubmission(app="gzip", executions=80, workers=2)
    assert sliced.effective_wave_size() == 10  # ceil(80 / 8 slices)
    tiny = CampaignSubmission(app="gzip", executions=4, workers=2)
    assert tiny.effective_wave_size() == 2  # never below the worker count
    explicit = CampaignSubmission(app="gzip", executions=80, wave_size=7)
    assert explicit.effective_wave_size() == 7


def test_queue_orders_by_priority_then_admission():
    queue = JobQueue()
    low = queue.submit(CampaignSubmission(app="gzip", priority=0))
    high = queue.submit(CampaignSubmission(app="libtiff", priority=5))
    mid = queue.submit(CampaignSubmission(app="zziplib", priority=2))
    claimed = [queue.claim_next().job_id for _ in range(3)]
    assert claimed == [high.job_id, mid.job_id, low.job_id]
    assert queue.claim_next() is None


def test_queue_cancel_of_queued_job_is_immediate():
    queue = JobQueue()
    job = queue.submit(CampaignSubmission(app="gzip"))
    assert job.state == STATE_QUEUED
    cancelled = queue.cancel(job.job_id)
    assert cancelled.state == STATE_CANCELLED
    assert cancelled.finished
    assert queue.claim_next() is None  # removed from the pending list
    assert queue.counts() == {STATE_CANCELLED: 1}


def test_queue_cancel_of_running_job_flags_and_stops_campaign():
    class FakeCampaign:
        cancelled = False

        def cancel(self):
            self.cancelled = True

    queue = JobQueue()
    job = queue.submit(CampaignSubmission(app="gzip"))
    claimed = queue.claim_next()
    assert claimed.state == STATE_RUNNING
    campaign = FakeCampaign()
    claimed.campaign = campaign
    queue.cancel(job.job_id)
    assert claimed.cancel_requested
    assert campaign.cancelled
    assert claimed.state == STATE_RUNNING  # transitions when the wave unwinds


def test_queue_cancel_unknown_job_returns_none():
    assert JobQueue().cancel("job-000000000000") is None


def test_job_status_view_is_json_clean():
    queue = JobQueue()
    job = queue.submit(CampaignSubmission(app="gzip", executions=10))
    view = json.loads(json.dumps(job.to_dict()))
    assert view["state"] == STATE_QUEUED
    assert view["submission"]["app"] == "gzip"
    assert "campaign" not in view


def test_submission_arms_normalizes_to_one_fleet_arm():
    submission = CampaignSubmission(app="gzip", arms=("CSOD-Random",))
    submission.validate()
    assert submission.arms == ("csod-random",)
    assert submission.to_dict()["arms"] == ["csod-random"]


def test_submission_arms_default_is_none():
    submission = CampaignSubmission(app="gzip")
    submission.validate()
    assert submission.arms is None
    assert submission.to_dict()["arms"] is None


@pytest.mark.parametrize(
    "arms, needle",
    [
        (("valgrind",), "arms:"),
        (("csod", "csod-random"), "arms:"),
        (("asan",), "arms:"),  # inline arms cannot run on the fleet
        ((), "arms:"),
    ],
)
def test_submission_arms_validation_names_the_field(arms, needle):
    with pytest.raises(ServiceError) as excinfo:
        CampaignSubmission(app="gzip", arms=arms).validate()
    assert needle in str(excinfo.value)


def test_submission_arms_round_trips_through_wire():
    original = CampaignSubmission(app="gzip", arms=("csod-noevidence",))
    original.validate()
    clone = CampaignSubmission.from_dict(original.to_dict())
    assert clone == original


def test_submission_arms_change_the_job_id():
    plain = CampaignSubmission(app="gzip")
    csod = CampaignSubmission(app="gzip", arms=("csod",))
    random = CampaignSubmission(app="gzip", arms=("csod-random",))
    ids = {plain.job_id(1), csod.job_id(1), random.job_id(1)}
    assert len(ids) == 3


def test_finished_jobs_are_bounded_and_leave_with_their_channels():
    bus = EventBus()
    queue = JobQueue(on_evict=bus.drop)
    # A job that stays queued (lowest priority) and one that stays
    # running: neither is ever evicted, however many others finish.
    waiting = queue.submit(CampaignSubmission(app="gzip", priority=-1))
    running = queue.submit(CampaignSubmission(app="gzip", priority=1))
    assert queue.claim_next() is running
    finished = []
    for k in range(3 * MAX_FINISHED_JOBS):
        job = queue.submit(CampaignSubmission(app="gzip", seed=k))
        bus.publish(job.job_id, "job", state="queued")
        if k % 5 == 0:
            queue.cancel(job.job_id)  # cancelled while queued
        else:
            assert queue.claim_next() is job
            job.state = STATE_COMPLETED
            queue.retire(job)
        finished.append(job.job_id)
    retained, evicted = finished[-MAX_FINISHED_JOBS:], finished[:-MAX_FINISHED_JOBS]
    assert len(queue._jobs) == MAX_FINISHED_JOBS + 2
    assert set(bus._events) == set(retained) | {FIREHOSE}
    assert set(bus._seqs) == set(retained) | {FIREHOSE}
    assert queue.get(waiting.job_id).state == STATE_QUEUED
    assert queue.get(running.job_id).state == STATE_RUNNING
    for job_id in evicted:
        assert queue.get(job_id) is None
        assert queue.cancel(job_id) is None
    for job_id in retained:
        assert queue.get(job_id).finished
        events = bus.events_since(job_id)
        assert [(e["seq"], e["state"]) for e in events] == [(1, "queued")]


def test_retirement_bound_holds_under_concurrent_cancellation():
    import sys
    import threading

    evicted = []
    queue = JobQueue(on_evict=evicted.append)
    per_thread = MAX_FINISHED_JOBS
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        def cancel_own_jobs(worker):
            for k in range(per_thread):
                job = queue.submit(
                    CampaignSubmission(app="gzip", seed=worker * 1000 + k)
                )
                queue.cancel(job.job_id)  # queued -> cancelled, retired

        threads = [
            threading.Thread(target=cancel_own_jobs, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    total = 4 * per_thread
    assert len(queue._jobs) == len(queue._finished) == MAX_FINISHED_JOBS
    assert len(evicted) == len(set(evicted)) == total - MAX_FINISHED_JOBS
    assert not set(evicted) & set(queue._jobs)
