"""The HTTP surface: routes, validation, long-poll, SSE, cancellation."""

import json
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service import CampaignSubmission, ServiceClient, ServiceThread


@pytest.fixture(scope="module")
def service():
    with ServiceThread(total_workers=2) as thread:
        yield thread


@pytest.fixture()
def client(service):
    return ServiceClient(port=service.port)


def test_healthz_reports_liveness(client):
    health = client.health()
    assert health["ok"] is True
    assert health["workers_total"] == 2
    assert "jobs" in health


def test_submit_runs_a_campaign_to_result(client):
    job = client.submit(CampaignSubmission(app="gzip", executions=8, seed=1))
    assert job["state"] == "queued"
    statuses = client.wait([job["job_id"]], timeout=120)
    assert statuses[job["job_id"]]["state"] == "completed"
    payload = client.result(job["job_id"])
    assert payload["job_id"] == job["job_id"]
    assert payload["scorecard"]["app"] == "gzip"
    assert payload["scorecard"]["executions"] == 8
    assert payload["aggregate"]["executions"] == 8


def test_submit_rejects_bad_submission_with_field_name(client):
    import dataclasses

    bad = dataclasses.replace(
        CampaignSubmission(app="gzip"), executions=0
    )
    with pytest.raises(ServiceError, match="executions: must be >= 1"):
        client.submit(bad)


def test_http_submit_validation_is_all_or_nothing(client):
    before = {job["job_id"] for job in client.jobs()}
    status, payload = client._request(
        "POST",
        "/submit",
        {
            "submissions": [
                {"app": "gzip", "executions": 5},
                {"app": "gzip", "executions": 0},  # invalid
            ]
        },
    )
    assert status == 400
    assert "executions" in payload["error"]
    after = {job["job_id"] for job in client.jobs()}
    assert before == after  # the valid sibling was not admitted


def test_http_rejects_unknown_fields(client):
    status, payload = client._request(
        "POST", "/submit", {"app": "gzip", "colour": "red"}
    )
    assert status == 400 and "unknown fields" in payload["error"]


def test_http_rejects_mistyped_field_naming_it(client):
    status, payload = client._request(
        "POST", "/submit", {"app": "gzip", "wave_size": "4"}
    )
    assert status == 400
    assert payload["error"].startswith("wave_size: must be an integer")


def test_http_rejects_malformed_json(client):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", client.port, timeout=10)
    try:
        conn.request(
            "POST",
            "/submit",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert "invalid JSON" in payload["error"]
    finally:
        conn.close()


def test_unknown_routes_and_jobs_are_404(client):
    status, _ = client._request("GET", "/nope")
    assert status == 404
    with pytest.raises(ServiceError, match="unknown job"):
        client.job("job-000000000000")


def test_evicted_job_is_404_and_retained_job_replays(monkeypatch):
    import repro.service.queue as queue_module

    monkeypatch.setattr(queue_module, "MAX_FINISHED_JOBS", 1)
    with ServiceThread(total_workers=2) as service:
        client = ServiceClient(port=service.port)
        first = client.submit(CampaignSubmission(app="gzip", executions=2))
        client.wait([first["job_id"]], timeout=120)
        second = client.submit(
            CampaignSubmission(app="gzip", executions=2, seed=1)
        )
        client.wait([second["job_id"]], timeout=120)
        status, payload = client._request("GET", f"/jobs/{first['job_id']}")
        assert status == 404
        assert payload["error"] == f"unknown job {first['job_id']!r}"
        assert client.result(second["job_id"])["scorecard"]["executions"] == 2
        events, _ = client.poll_events(second["job_id"], since=0, timeout=0.2)
        assert events[-1]["event"] == "job"
        assert events[-1]["state"] == "completed"
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))


def test_result_of_unfinished_job_is_409(client):
    job = client.submit(
        CampaignSubmission(app="gzip", executions=40, seed=9, priority=-5)
    )
    status, payload = client._request(
        "GET", f"/jobs/{job['job_id']}/result"
    )
    try:
        assert status in (409, 200)  # completed already on slow machines
        if status == 409:
            assert "result not available" in payload["error"]
    finally:
        client.cancel(job["job_id"])
        client.wait([job["job_id"]], timeout=60)


def test_cancel_stops_a_running_job(client):
    job = client.submit(CampaignSubmission(app="gzip", executions=60, seed=4))
    client.cancel(job["job_id"])
    statuses = client.wait([job["job_id"]], timeout=60)
    assert statuses[job["job_id"]]["state"] == "cancelled"
    payload = client.result(job["job_id"])
    assert payload["scorecard"]["cancelled"] is True
    # Slots actually came back: another campaign completes afterwards.
    after = client.submit(CampaignSubmission(app="gzip", executions=4, seed=2))
    done = client.wait([after["job_id"]], timeout=60)
    assert done[after["job_id"]]["state"] == "completed"


def test_long_poll_resumes_by_cursor(client):
    job = client.submit(CampaignSubmission(app="libtiff", executions=8, seed=3))
    client.wait([job["job_id"]], timeout=120)
    seen = []
    cursor = 0
    for _ in range(50):
        events, cursor = client.poll_events(
            job["job_id"], since=cursor, timeout=0.2
        )
        if not events:
            break
        seen.extend(events)
    kinds = [event["event"] for event in seen]
    assert kinds.count("wave") == 8  # 8 executions sliced into 1-exec waves
    assert "result" in kinds
    assert kinds[-1] == "job"
    seqs = [event["seq"] for event in seen]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_sse_stream_delivers_events(client, service):
    job = client.submit(CampaignSubmission(app="gzip", executions=8, seed=6))
    got = []

    def consume():
        for event in client.stream_events(job["job_id"], timeout=30):
            got.append(event)
            if event.get("event") == "job" and event.get("state") in (
                "completed",
                "failed",
                "cancelled",
            ):
                return

    thread = threading.Thread(target=consume, daemon=True)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive(), "SSE consumer never saw a terminal event"
    kinds = {event["event"] for event in got}
    assert "wave" in kinds and "result" in kinds and "job" in kinds


def test_job_stream_ends_after_the_final_event():
    # Regression: a job channel's stream outlived its job until a
    # keep-alive write found the client gone (15-30 s later), so a busy
    # server held a connection task and a bus subscription per recent
    # job.  The stream now ends with the job's final event.
    with ServiceThread(total_workers=2) as host:
        client = ServiceClient(port=host.port)
        for seed in range(3):
            job = client.submit(
                CampaignSubmission(app="gzip", executions=4, seed=seed)
            )
            events = list(client.stream_events(job["job_id"], timeout=10))
            assert events[-1]["event"] == "job"
            assert events[-1]["state"] == "completed"
        service = host.service
        deadline = time.monotonic() + 1.0
        while service._connections or service.bus._subscribers:
            assert time.monotonic() < deadline, (
                f"{len(service._connections)} connections and "
                f"{len(service.bus._subscribers)} subscribed channels "
                f"outlived their jobs"
            )
            time.sleep(0.02)


def test_events_validation(client):
    status, payload = client._request("GET", "/events?since=abc&mode=poll")
    assert status == 400 and "since" in payload["error"]
    status, payload = client._request("GET", "/events?mode=carrier-pigeon")
    assert status == 400 and "mode" in payload["error"]


def test_method_mismatches_are_405(client):
    status, _ = client._request("GET", "/submit")
    assert status == 405
    status, _ = client._request("POST", "/jobs")
    assert status == 404  # POST /jobs is not a route at all
