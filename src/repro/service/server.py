"""The fleet-as-a-service HTTP front end.

A dependency-free asyncio HTTP/1.1 server (this container ships no
``websockets``/``wsproto``, so the streaming transports are the
long-poll and Server-Sent-Events fallbacks the subsystem was designed
around — both resumable via per-channel sequence numbers, which is the
property a WebSocket transport would have to replicate anyway).

Routes::

    GET  /healthz                     liveness + queue/slot counters
    POST /submit                      one submission or {"submissions": [...]}
    GET  /jobs                        every retained job's status view
    GET  /jobs/<id>                   one job's status view
    GET  /jobs/<id>/result            aggregate + scorecard (409 until final)
    POST /jobs/<id>/cancel            releases the job's worker slots
    GET  /events?channel=&since=      SSE stream (default) or, with
         [&mode=poll][&timeout=]      mode=poll, a long-poll JSON batch

Channels are job ids or ``firehose``.  Every connection is
``Connection: close`` — one request per socket keeps the parser tiny
and SSE streams run until the client hangs up.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.errors import ServiceError
from repro.fleet.telemetry import JsonlEventLog
from repro.service.queue import CampaignSubmission, JobQueue, STATE_QUEUED
from repro.service.scheduler import CampaignScheduler
from repro.service.stream import FIREHOSE, EventBus, render_sse

MAX_BODY_BYTES = 1 << 20  # a batch of submissions, with headroom
POLL_TIMEOUT_CAP = 60.0


class ReproService:
    """Queue + scheduler + event bus behind one asyncio HTTP server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        total_workers: int = 2,
        bug_db=None,
        history: int = 4096,
        event_log_path: Optional[str] = None,
    ):
        self.host = host
        self.port = port  # 0 = ephemeral; the bound port lands here
        self._sink = (
            JsonlEventLog(event_log_path) if event_log_path else None
        )
        self.bus = EventBus(history=history, sink=self._sink)
        # An evicted job's channel history goes with it.
        self.queue = JobQueue(on_evict=self.bus.drop)
        self.scheduler = CampaignScheduler(
            self.queue, self.bus, total_workers=total_workers, bug_db=bug_db
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._scheduler_task: Optional[asyncio.Task] = None
        # Live connection-handler tasks (SSE streams can be long-lived);
        # cancelled explicitly on stop so none outlive the loop.
        self._connections: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self.queue.attach_loop(loop)
        self.bus.attach_loop(loop)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._scheduler_task = asyncio.create_task(self.scheduler.run())
        self.bus.publish(
            FIREHOSE,
            "service",
            state="started",
            version=__version__,
            workers=self.scheduler.slots.total,
        )

    async def stop(self) -> None:
        """Graceful teardown: cancel jobs, drain events, close sockets."""
        self.bus.publish(FIREHOSE, "service", state="stopping")
        await self.scheduler.stop()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *list(self._connections), return_exceptions=True
            )
        if self._sink is not None:
            self._sink.close()

    # ------------------------------------------------------------------
    # Submission (shared by HTTP and in-process callers)
    # ------------------------------------------------------------------
    def submit(self, submission: CampaignSubmission) -> dict:
        job = self.queue.submit(submission)
        self.bus.publish(
            job.job_id,
            "job",
            job_id=job.job_id,
            state=STATE_QUEUED,
            app=submission.app,
            priority=submission.priority,
            executions=submission.executions,
        )
        return job.to_dict()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, target, body = request
            await self._route(method, target, body, writer)
        except ConnectionError:
            pass
        except Exception as exc:  # noqa: BLE001 — a broken request must
            # not take the accept loop down; answer 500 if we still can.
            try:
                await self._respond(
                    writer, 500, {"error": f"internal error: {exc}"}
                )
            except Exception:  # noqa: BLE001
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, bytes]]:
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").rstrip("\r\n").split(" ")
        if len(parts) != 3:
            return None
        method, target, _ = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise ServiceError(f"request body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
    ) -> None:
        reasons = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            409: "Conflict",
            500: "Internal Server Error",
        }
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}

        if path == "/healthz" and method == "GET":
            await self._respond(
                writer,
                200,
                {
                    "ok": True,
                    "version": __version__,
                    "workers_total": self.scheduler.slots.total,
                    "workers_free": self.scheduler.slots.free,
                    "jobs": self.queue.counts(),
                },
            )
            return
        if path == "/submit":
            if method != "POST":
                await self._respond(writer, 405, {"error": "POST required"})
                return
            await self._handle_submit(body, writer)
            return
        if path == "/jobs" and method == "GET":
            await self._respond(
                writer,
                200,
                {"jobs": [job.to_dict() for job in self.queue.jobs()]},
            )
            return
        if path.startswith("/jobs/"):
            await self._handle_job(method, path, writer)
            return
        if path == "/events" and method == "GET":
            await self._handle_events(query, writer)
            return
        await self._respond(writer, 404, {"error": f"no route for {path}"})

    async def _handle_submit(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            await self._respond(
                writer, 400, {"error": f"invalid JSON body: {exc}"}
            )
            return
        if isinstance(payload, dict) and "submissions" in payload:
            raw_list = payload["submissions"]
            if not isinstance(raw_list, list) or not raw_list:
                await self._respond(
                    writer,
                    400,
                    {"error": "submissions: expected a non-empty list"},
                )
                return
        else:
            raw_list = [payload]
        # All-or-nothing: validate the whole batch before admitting any,
        # so a typo in submission 3 cannot half-start a batch.
        try:
            submissions = [
                CampaignSubmission.from_dict(raw) for raw in raw_list
            ]
        except ServiceError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        jobs = [self.submit(submission) for submission in submissions]
        await self._respond(writer, 200, {"jobs": jobs})

    async def _handle_job(
        self, method: str, path: str, writer: asyncio.StreamWriter
    ) -> None:
        parts = path.split("/")  # '', 'jobs', '<id>'[, verb]
        job_id = parts[2] if len(parts) > 2 else ""
        verb = parts[3] if len(parts) > 3 else ""
        job = self.queue.get(job_id)
        if job is None:
            await self._respond(
                writer, 404, {"error": f"unknown job {job_id!r}"}
            )
            return
        if verb == "" and method == "GET":
            await self._respond(writer, 200, job.to_dict())
            return
        if verb == "result" and method == "GET":
            if not job.finished or job.result_payload is None:
                await self._respond(
                    writer,
                    409,
                    {
                        "error": f"job {job_id} is {job.state}; "
                        f"result not available",
                        "state": job.state,
                    },
                )
                return
            await self._respond(writer, 200, job.result_payload)
            return
        if verb == "cancel" and method == "POST":
            job = self.queue.cancel(job_id)
            if job is None:
                # Evicted since the lookup (another thread's retirement).
                await self._respond(
                    writer, 404, {"error": f"unknown job {job_id!r}"}
                )
                return
            if job.finished and job.state == "cancelled" and job.campaign is None:
                # Was still queued: report the terminal state right away.
                self.bus.publish(
                    job.job_id,
                    "job",
                    job_id=job.job_id,
                    state=job.state,
                    app=job.submission.app,
                )
            await self._respond(
                writer,
                200,
                {"job_id": job_id, "state": job.state, "cancel_requested": True},
            )
            return
        await self._respond(
            writer, 405, {"error": f"unsupported {method} on {path}"}
        )

    async def _handle_events(
        self, query: Dict[str, str], writer: asyncio.StreamWriter
    ) -> None:
        channel = query.get("channel", FIREHOSE)
        try:
            since = int(query.get("since", "0"))
        except ValueError:
            await self._respond(
                writer, 400, {"error": "since: must be an integer"}
            )
            return
        mode = query.get("mode", "stream")
        if mode == "poll":
            try:
                timeout = float(query.get("timeout", "10"))
            except ValueError:
                await self._respond(
                    writer, 400, {"error": "timeout: must be a number"}
                )
                return
            timeout = max(0.0, min(timeout, POLL_TIMEOUT_CAP))
            events, next_since = await self.bus.poll(
                channel, since=since, timeout=timeout
            )
            await self._respond(
                writer,
                200,
                {"channel": channel, "events": events, "next": next_since},
            )
            return
        if mode != "stream":
            await self._respond(
                writer,
                400,
                {"error": f"mode: expected 'stream' or 'poll', got {mode!r}"},
            )
            return
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head)
        await writer.drain()
        subscription = self.bus.subscribe(channel, since=since)
        try:
            while True:
                event = await subscription.get(timeout=15.0)
                if event is None:
                    writer.write(b": keep-alive\n\n")  # SSE comment frame
                else:
                    writer.write(render_sse(event))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            subscription.close()


# ----------------------------------------------------------------------
# Hosting helpers
# ----------------------------------------------------------------------
async def serve_until(
    service: ReproService, stop: asyncio.Event
) -> None:
    """Run a started service until ``stop`` is set, then tear down."""
    await service.start()
    try:
        await stop.wait()
    finally:
        await service.stop()


class ServiceThread:
    """Hosts a :class:`ReproService` on a loop in a daemon thread.

    The in-process deployment used by tests, benchmarks, and the CI
    smoke script: ``start()`` returns once the port is bound; callers
    then talk to it over real HTTP like any other tenant.
    """

    def __init__(self, **service_kwargs):
        self.service = ReproService(**service_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.service.port

    def start(self, timeout: float = 10.0) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServiceError("service failed to start within timeout")
        if self._error is not None:
            raise ServiceError(f"service failed to start: {self._error}")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._stop = asyncio.Event()

        async def main() -> None:
            try:
                await self.service.start()
            except BaseException as exc:  # noqa: BLE001 — surface to caller
                self._error = exc
                self._ready.set()
                return
            self._ready.set()
            await self._stop.wait()
            await self.service.stop()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def stop(self, timeout: float = 30.0) -> None:
        loop, stop = self._loop, self._stop
        if loop is None or stop is None or not loop.is_running():
            return
        loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
