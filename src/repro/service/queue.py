"""Campaign submissions and the service job queue.

A :class:`CampaignSubmission` is the wire-level description of one
fleet campaign — app (hand-written or generated oracle genome), budget,
policy arm, seed, priority — everything a tenant sends to
``POST /submit``.  Validation is fail-fast and names the offending
field, matching the CLI convention.

Job ids are **deterministic**: ``job-<sha256(seq | canonical JSON)>``
over the submission's canonical form and its admission sequence number.
The same batch submitted to a fresh service always yields the same ids,
so clients can be replayed, logs diffed, and results content-addressed.

The :class:`JobQueue` itself is a priority queue (higher ``priority``
first, admission order as the tiebreak) safe to drive from the service
event loop and from foreign threads alike; an :class:`asyncio.Event`
wakes the scheduler on submission from either side.  It keeps at most
:data:`MAX_FINISHED_JOBS` terminal jobs, so a long-lived server's memory
does not grow with the number of jobs it has served.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.config import POLICIES, POLICY_NEAR_FIFO
from repro.errors import ServiceError, WorkloadError

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_COMPLETED = "completed"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"

FINAL_STATES = (STATE_COMPLETED, STATE_FAILED, STATE_CANCELLED)

# Terminal jobs kept for result pickup and late subscribers.  Past this
# many, the oldest terminal job is forgotten: its id answers 404 and its
# event channel goes with it.  Queued and running jobs are always kept.
MAX_FINISHED_JOBS = 64

# Non-shared campaigns have no cross-execution state, so their wave
# boundaries are a pure scheduling choice; slicing into at most this
# many waves keeps progress streaming live without changing results.
DEFAULT_WAVE_SLICES = 8

# JSON type checks for submission fields.  ``bool`` subclasses ``int``
# in Python, so integers and numbers exclude it explicitly.
_JSON_TYPES = {
    "a string": lambda v: isinstance(v, str),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a finite number": lambda v: (
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and math.isfinite(v)
    ),
    "a boolean": lambda v: isinstance(v, bool),
    "a list of strings": lambda v: (
        isinstance(v, list) and all(isinstance(item, str) for item in v)
    ),
}

# Every submission field: its JSON type, and whether null is accepted.
# Checked before construction, so a malformed body is rejected with the
# field named instead of failing somewhere inside validation.
_SUBMISSION_FIELDS: Dict[str, Tuple[str, bool]] = {
    "app": ("a string", False),
    "executions": ("an integer", False),
    "workers": ("an integer", False),
    "policy": ("a string", False),
    "share_evidence": ("a boolean", False),
    "seed": ("an integer", False),
    "priority": ("an integer", False),
    "wave_size": ("an integer", True),
    "chunk_size": ("an integer", True),
    "timeout_seconds": ("a finite number", True),
    "arms": ("a list of strings", True),
}


def _validate_app(app: str) -> None:
    """The app is one of the nine, an oracle genome, or an adv corner."""
    from repro.workloads.buggy import BUGGY_APPS
    from repro.workloads.buggy.registry import ADV_PREFIX, ORACLE_PREFIX

    if app in BUGGY_APPS:
        return
    if app.startswith(ORACLE_PREFIX):
        from repro.oracle.generator import parse_name

        try:
            parse_name(app)
        except WorkloadError as exc:
            raise ServiceError(f"app: {exc}") from None
        return
    if app.startswith(ADV_PREFIX):
        from repro.oracle.adversarial import parse_adv_name

        try:
            parse_adv_name(app)
        except WorkloadError as exc:
            raise ServiceError(f"app: {exc}") from None
        return
    raise ServiceError(
        f"app: unknown application {app!r}; expected one of "
        f"{sorted(BUGGY_APPS)}, an oracle genome "
        f"'{ORACLE_PREFIX}s<seed>:i<index>:<defect>', or a solved "
        f"adversarial corner '{ADV_PREFIX}s<seed>:t<target>'"
    )


@dataclass(frozen=True)
class CampaignSubmission:
    """One tenant's request for one fleet campaign."""

    app: str
    executions: int = 50
    workers: int = 1
    policy: str = POLICY_NEAR_FIFO
    share_evidence: bool = False
    seed: int = 0
    priority: int = 0
    wave_size: Optional[int] = None
    chunk_size: Optional[int] = None
    timeout_seconds: Optional[float] = 60.0
    # Detector arm override: a single fleet-capable arm name (e.g.
    # ["csod-random"]); None keeps the policy-derived CSOD config.
    # Part of the job identity, so arm variants hash to distinct jobs.
    arms: Optional[Tuple[str, ...]] = None

    def validate(self) -> None:
        """Fail fast with the offending field named, CLI-style."""
        _validate_app(self.app)
        if self.executions < 1:
            raise ServiceError(
                f"executions: must be >= 1, got {self.executions}"
            )
        if self.workers < 1:
            raise ServiceError(f"workers: must be >= 1, got {self.workers}")
        if self.policy not in POLICIES:
            raise ServiceError(
                f"policy: unknown policy {self.policy!r}; expected one of "
                f"{list(POLICIES)}"
            )
        if self.wave_size is not None and self.wave_size < 1:
            raise ServiceError(
                f"wave_size: must be >= 1, got {self.wave_size}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ServiceError(
                f"chunk_size: must be >= 1, got {self.chunk_size}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ServiceError(
                f"timeout_seconds: must be positive, got "
                f"{self.timeout_seconds}"
            )
        if self.arms is not None:
            from repro.detectors import get as get_detector
            from repro.detectors import resolve_arms

            try:
                resolved = resolve_arms(tuple(self.arms))
            except Exception as exc:  # ReproError -> field-named error
                raise ServiceError(f"arms: {exc}") from None
            if len(resolved) != 1:
                raise ServiceError(
                    f"arms: fleet campaigns run exactly one arm, got "
                    f"{list(resolved)}"
                )
            if not get_detector(resolved[0]).fleet:
                raise ServiceError(
                    f"arms: {resolved[0]!r} is an inline baseline, not a "
                    f"fleet arm"
                )
            object.__setattr__(self, "arms", resolved)  # frozen dataclass

    def effective_wave_size(self) -> int:
        """The wave plan — a function of the submission alone.

        Shared-evidence campaigns keep the historical ``workers``-sized
        waves (the evidence visibility protocol); non-shared campaigns
        are sliced into at most :data:`DEFAULT_WAVE_SLICES` waves, never
        smaller than the worker count, purely so progress streams while
        results stay byte-identical to any other slicing.  Depending
        only on the submission — never on queue state — is what makes a
        job's results independent of what else is running.
        """
        if self.wave_size is not None:
            return self.wave_size
        if self.share_evidence:
            return max(1, self.workers)
        slice_size = -(-self.executions // DEFAULT_WAVE_SLICES)
        return max(max(1, self.workers), slice_size)

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "executions": self.executions,
            "workers": self.workers,
            "policy": self.policy,
            "share_evidence": self.share_evidence,
            "seed": self.seed,
            "priority": self.priority,
            "wave_size": self.wave_size,
            "chunk_size": self.chunk_size,
            "timeout_seconds": self.timeout_seconds,
            "arms": None if self.arms is None else list(self.arms),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSubmission":
        if not isinstance(payload, dict):
            raise ServiceError(
                f"submission: expected an object, got {type(payload).__name__}"
            )
        if "app" not in payload:
            raise ServiceError("app: required field missing")
        unknown = sorted(set(payload) - set(_SUBMISSION_FIELDS))
        if unknown:
            raise ServiceError(f"submission: unknown fields {unknown}")
        for name, value in payload.items():
            kind, nullable = _SUBMISSION_FIELDS[name]
            if value is None and nullable:
                continue
            if not _JSON_TYPES[kind](value):
                null = " or null" if nullable else ""
                raise ServiceError(
                    f"{name}: must be {kind}{null}, got {value!r}"
                )
        if payload.get("arms") is not None:
            payload = dict(payload, arms=tuple(payload["arms"]))
        submission = cls(**payload)
        submission.validate()
        return submission

    def job_id(self, seq: int) -> str:
        """Content-addressed, admission-ordered, reproducible."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        digest = hashlib.sha256(f"{seq}|{canonical}".encode()).hexdigest()
        return f"job-{digest[:12]}"


@dataclass
class JobRecord:
    """One submission's lifecycle inside the service."""

    job_id: str
    seq: int
    submission: CampaignSubmission
    state: str = STATE_QUEUED
    waves_total: int = 0
    waves_done: int = 0
    executions_done: int = 0
    executions_detected: int = 0
    unique_reports: int = 0
    dedup_ratio: float = 0.0
    evidence_epoch: int = 0
    error: Optional[str] = None
    cancel_requested: bool = False
    # The deterministic result document (aggregate + scorecard),
    # populated when the job reaches a final state.
    result_payload: Optional[dict] = None
    # Runtime-only handle to the live campaign (never serialised).
    campaign: object = field(default=None, repr=False, compare=False)

    @property
    def finished(self) -> bool:
        return self.state in FINAL_STATES

    def to_dict(self) -> dict:
        """The status view served by ``GET /jobs/<id>``."""
        return {
            "job_id": self.job_id,
            "seq": self.seq,
            "state": self.state,
            "submission": self.submission.to_dict(),
            "waves_total": self.waves_total,
            "waves_done": self.waves_done,
            "executions_done": self.executions_done,
            "executions_detected": self.executions_detected,
            "unique_reports": self.unique_reports,
            "dedup_ratio": self.dedup_ratio,
            "evidence_epoch": self.evidence_epoch,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
        }


class JobQueue:
    """Priority-ordered admission of campaign jobs.

    ``submit``/``cancel``/``get`` are thread-safe; ``claim_next`` is
    meant for the single scheduler task.  Finished records stay
    retrievable for result pickup until :data:`MAX_FINISHED_JOBS` newer
    jobs have finished; ``on_evict`` is then called with the forgotten
    job's id (the service drops its event channel there).
    """

    def __init__(self, on_evict: Optional[Callable[[str], None]] = None):
        self._lock = threading.Lock()
        self._seq = 0
        self._jobs: Dict[str, JobRecord] = {}
        self._pending: List[JobRecord] = []
        # Terminal job ids, oldest first.
        self._finished: Deque[str] = deque()
        self._on_evict = on_evict
        # Wired to the service loop on start; submissions from foreign
        # threads wake the scheduler through it.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None

    def attach_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._wake = asyncio.Event()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(self, submission: CampaignSubmission) -> JobRecord:
        submission.validate()
        with self._lock:
            self._seq += 1
            job = JobRecord(
                job_id=submission.job_id(self._seq),
                seq=self._seq,
                submission=submission,
            )
            if job.job_id in self._jobs:
                # Same content at the same seq cannot recur; a clash
                # means a hash collision at 48 bits — fail loudly.
                raise ServiceError(f"job id collision for {job.job_id}")
            self._jobs[job.job_id] = job
            self._pending.append(job)
            # Higher priority first; admission order breaks ties.
            self._pending.sort(key=lambda j: (-j.submission.priority, j.seq))
        self._signal()
        return job

    def cancel(self, job_id: str) -> Optional[JobRecord]:
        """Request cancellation; returns the record, or None if unknown.

        Queued jobs flip straight to ``cancelled``; running jobs get
        their live campaign's stop flag set and transition when the
        in-flight wave unwinds (releasing the worker slots it held).
        """
        evicted: List[str] = []
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.finished:
                return job
            job.cancel_requested = True
            if job.state == STATE_QUEUED:
                self._pending = [j for j in self._pending if j.job_id != job_id]
                job.state = STATE_CANCELLED
                evicted = self._retire_locked(job)
            campaign = job.campaign
        self._evict(evicted)
        if campaign is not None:
            campaign.cancel()
        self._signal()
        return job

    def retire(self, job: JobRecord) -> None:
        """Count a job that reached a final state toward the bound.

        Called once per job, after its final event is published; evicts
        the oldest terminal jobs beyond :data:`MAX_FINISHED_JOBS`.
        """
        with self._lock:
            evicted = self._retire_locked(job)
        self._evict(evicted)

    def _retire_locked(self, job: JobRecord) -> List[str]:
        finished = self._finished
        finished.append(job.job_id)
        evicted = []
        while len(finished) > MAX_FINISHED_JOBS:
            job_id = finished.popleft()
            del self._jobs[job_id]
            evicted.append(job_id)
        return evicted

    def _evict(self, job_ids: List[str]) -> None:
        if self._on_evict is not None:
            for job_id in job_ids:
                self._on_evict(job_id)

    # ------------------------------------------------------------------
    # Scheduler side
    # ------------------------------------------------------------------
    def claim_next(self) -> Optional[JobRecord]:
        """Pop the highest-priority queued job (None if queue is idle)."""
        with self._lock:
            if not self._pending:
                return None
            job = self._pending.pop(0)
            job.state = STATE_RUNNING
            return job

    async def wait_for_work(self, timeout: float = 1.0) -> None:
        """Park the scheduler until a submit/cancel or the timeout."""
        if self._wake is None:
            await asyncio.sleep(timeout)
            return
        try:
            await asyncio.wait_for(self._wake.wait(), timeout)
        except asyncio.TimeoutError:
            return
        finally:
            self._wake.clear()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[JobRecord]:
        """Every retained job, admission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts: Dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            return counts

    # ------------------------------------------------------------------
    def _signal(self) -> None:
        loop, wake = self._loop, self._wake
        if loop is None or wake is None:
            return
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            wake.set()
        else:
            try:
                loop.call_soon_threadsafe(wake.set)
            except RuntimeError:
                pass  # loop closed: nobody left to wake
