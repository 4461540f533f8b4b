"""The fleet worker pool.

Fans :class:`ExecutionSpec`s out over a ``ProcessPoolExecutor`` of
independent OS processes — the closest a simulation gets to the paper's
deployment story, where each production process runs its own sampled
CSOD and only reports flow back centrally.

The pool is built for campaign throughput:

* **One warm executor per process** — every :class:`FleetPool` (fleet
  campaigns, ``run_oracle``, service jobs, the CLI) leases the same
  lazily created executor instead of forking its own.  It is created
  on the first parallel wave (or map), with as many workers as the
  widest live campaign asked for, and a campaign keeps at most
  ``workers`` of its chunks (or calls) in flight.  Apps are warmed in
  the parent before a fork, so workers inherit their schedules and
  interned call sites; a worker meeting an app it was not forked with
  builds it by name.
  :meth:`FleetPool.close` releases the lease, and the executor
  terminates its workers once no campaign has held it for
  :data:`IDLE_SHUTDOWN_SECONDS`.  It is rebuilt only when a worker
  hangs past its deadline or the pool breaks (``executor_rebuilds``
  counts those, and only those).
* **Chunked dispatch** — specs are submitted in :class:`WorkChunk`s
  (``chunk_size`` configurable, default ``ceil(wave / workers)``), so
  one pickle/IPC round trip and one config transfer amortise over many
  executions; inside a chunk the worker runs serially and returns one
  batched :class:`ChunkOutcome`.
* **Evidence rides in the chunk** — each chunk carries the wave's full
  evidence set (the campaign-start base plus every signature merged
  since), so any worker can run any campaign's chunk.
* **One result type** — the worker answers with the
  :class:`ExecutionResult`s it built, the same objects the inline path
  returns; callers fold them with
  :meth:`repro.fleet.aggregate.FleetAggregator.add`.
* **Calls as well as chunks** — :meth:`FleetPool.map` runs a
  module-level function once per item on the same workers, through the
  same submission path, lease and stop handling (``run_oracle`` judges
  its programs this way).
* **Flat worker memory** — every execution leaves its simulated machine
  in reference cycles that only a full collection frees.  Workers
  freeze the heap they were forked with (``gc.freeze``) and collect
  after every chunk and every call, so a long-lived worker stays as
  small as a fresh one and each collection scans only what the chunk
  or call left behind.

Failure policy, per execution:

* a **per-execution timeout** — a chunk's deadline is
  ``timeout × len(chunk)``; when it fires the chunk's specs are re-run
  as single-spec chunks on a rebuilt executor so the hung spec times
  out *alone* and is recorded as ``timeout``, while its innocent
  chunk-mates complete.  A confirmed-hung spec (a re-run single that
  hangs again) just costs the pool one worker of capacity instead of a
  second rebuild.
* **retry-once-on-crash** — a spec that raises is retried *inside its
  worker* (the coordinator never blocks; other chunks keep executing),
  and a spec whose worker process died is resubmitted to the pool as a
  second-attempt chunk.
* Executions that fail twice come back as failed
  :class:`ExecutionResult`s rather than exceptions.
* Chunks that die because *another* campaign's timeout rebuild (or
  stop) terminated the shared workers are resubmitted at the same
  attempt number and count no crash.
* A stopped campaign cancels its queued chunks and discards its running
  ones; it terminates the workers only when no other campaign holds
  the executor.

``workers <= 1`` runs every chunk inline through the *same* chunk
executor, and every :meth:`FleetPool.map` call inline, so serial callers
share one code path and one set of semantics with the parallel fleet.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import os
import threading
import time
import traceback
import weakref
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeout,
    wait as wait_futures,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.core import CSODRuntime
from repro.core.evidence import observed_signatures
from repro.errors import CampaignCancelled, InvalidFreeError
from repro.fleet.specs import (
    OUTCOME_CRASH,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    ExecutionResult,
    ExecutionSpec,
    ReportRecord,
    WorkChunk,
)
from repro.workloads.base import SimProcess
from repro.workloads.buggy import app_for

DEFAULT_TIMEOUT_SECONDS = 60.0

T = TypeVar("T")
R = TypeVar("R")

# Seconds the shared executor may go without a lease before it
# terminates its workers: back-to-back campaigns reuse warm workers,
# and a process done with the fleet has no idle children a second on.
IDLE_SHUTDOWN_SECONDS = 1.0


def execute_spec(spec: ExecutionSpec) -> ExecutionResult:
    """Run one simulated execution; the single-spec entry point.

    Evidence flows through the spec/result, never through worker-side
    files: the coordinator owns the store, so two workers can never
    race on a persistence path.
    """
    return _execute_one(spec, frozenset())


def _execute_one(
    spec: ExecutionSpec, chunk_evidence: FrozenSet[str]
) -> ExecutionResult:
    started = time.perf_counter()
    # Workers must not write evidence files of their own.
    config = spec.config
    if config.persistence_path is not None:
        # dataclasses.replace keeps the config's own type and re-runs
        # __init__, so configs with derived (non-init) fields survive.
        config = dataclasses.replace(config, persistence_path=None)
    app = app_for(spec.app, spec.scale)
    process = SimProcess(seed=spec.seed)
    runtime = CSODRuntime(process.machine, process.heap, config, seed=spec.seed)
    evidence = set(spec.evidence) if spec.evidence else set(chunk_evidence)
    if evidence:
        runtime.sampling.preload_known_bad(evidence)
    try:
        app.run(process)
    except InvalidFreeError as exc:
        # The allocator aborted on an invalid free (a double-free
        # workload).  That is the production crash; whether it becomes
        # a *report* depends on the arm: with evidence mode the
        # surviving object header diagnoses the double free, without
        # it the abort stays unattributed (no report, normal outcome).
        runtime.diagnose_invalid_free(process.main_thread, exc.address)
    runtime.shutdown()
    stats = runtime.stats()
    new_evidence = observed_signatures(runtime.sampling.records())
    reports = [
        ReportRecord(
            signature=report.signature(),
            kind=report.kind,
            source=report.source,
            allocation_context=tuple(
                str(frame) for frame in report.allocation_context.frames
            ),
            access_context=tuple(str(frame) for frame in report.access_frames),
        )
        for report in runtime.reports
    ]
    return ExecutionResult(
        app=spec.app,
        seed=spec.seed,
        index=spec.index,
        outcome=OUTCOME_OK,
        detected=runtime.detected,
        detected_by_watchpoint=runtime.detected_by_watchpoint,
        reports=reports,
        new_evidence=new_evidence,
        allocations=stats.allocations,
        contexts=stats.contexts,
        watched_times=stats.watched_times,
        traps_handled=stats.traps_handled,
        canary_corruptions=stats.canary_corruptions,
        wall_seconds=time.perf_counter() - started,
    )


@dataclass
class ChunkOutcome:
    """One worker's batched answer for one :class:`WorkChunk`."""

    results: List[ExecutionResult] = field(default_factory=list)
    crashes: int = 0
    retries: int = 0
    # Wall-clock of each in-chunk crash retry, ms.
    retry_wall_ms: List[float] = field(default_factory=list)


def run_chunk(
    specs: Tuple[ExecutionSpec, ...],
    evidence: FrozenSet[str],
    retry_crashed: bool = True,
    base_attempts: int = 1,
    should_stop: Optional[Callable[[], bool]] = None,
) -> ChunkOutcome:
    """Run a chunk of specs serially; the shared serial/worker core.

    ``should_stop`` gives the serial/inline path sub-wave cancellation:
    it is polled between specs and raises :class:`CampaignCancelled`
    mid-chunk.  Worker processes never pass it — a parallel wave is
    cancelled coordinator-side by terminating the executor instead.
    """
    outcome = ChunkOutcome()
    for spec in specs:
        if should_stop is not None and should_stop():
            raise CampaignCancelled(
                f"chunk stopped after {len(outcome.results)}/{len(specs)} "
                f"executions"
            )
        try:
            result = _execute_one(spec, evidence)
            result.attempts = base_attempts
        except Exception as first_exc:  # noqa: BLE001 — one bad execution
            # must not kill the chunk, whatever it raised.
            outcome.crashes += 1
            if retry_crashed and base_attempts == 1:
                outcome.retries += 1
                retry_started = time.perf_counter()
                try:
                    result = _execute_one(spec, evidence)
                    result.attempts = 2
                except Exception as second_exc:  # noqa: BLE001
                    outcome.crashes += 1
                    result = _failed_result(
                        spec, OUTCOME_CRASH, 2, _describe(second_exc)
                    )
                outcome.retry_wall_ms.append(
                    (time.perf_counter() - retry_started) * 1e3
                )
            else:
                result = _failed_result(
                    spec, OUTCOME_CRASH, base_attempts, _describe(first_exc)
                )
        outcome.results.append(result)
    return outcome


def _execute_chunk(chunk: WorkChunk) -> ChunkOutcome:
    """The worker-side entry point of :meth:`FleetPool.run_wave`."""
    outcome = run_chunk(
        chunk.specs,
        frozenset(chunk.evidence),
        retry_crashed=chunk.retry_crashed,
        base_attempts=chunk.attempts,
    )
    # The chunk's simulated machines are garbage cycles now; the heap
    # inherited at fork is frozen, so this scans only what they left.
    gc.collect()
    return outcome


def _execute_call(fn: Callable[[T], R], item: T) -> R:
    """The worker-side entry point of :meth:`FleetPool.map`."""
    result = fn(item)
    # Whatever simulated machines the call built are garbage cycles now.
    gc.collect()
    return result


def _failed_result(
    spec: ExecutionSpec, outcome: str, attempts: int, error: str
) -> ExecutionResult:
    return ExecutionResult(
        app=spec.app,
        seed=spec.seed,
        index=spec.index,
        outcome=outcome,
        attempts=attempts,
        error=error,
    )


def _describe(exc: Exception) -> str:
    return "".join(
        traceback.format_exception_only(type(exc), exc)
    ).strip()


# ----------------------------------------------------------------------
# The process-wide executor
# ----------------------------------------------------------------------
class _SharedExecutor:
    """The one ``ProcessPoolExecutor`` every campaign in a process leases.

    A lease runs from a campaign's first parallel wave (or map) to its
    close.
    The executor is forked at the first submission after it is needed,
    and terminated once no lease has been held for
    :data:`IDLE_SHUTDOWN_SECONDS`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._size = 0
        self._leases: Dict[int, int] = {}  # campaign token -> workers
        # Executors terminated on purpose (a timeout rebuild, a stop, an
        # idle shutdown): a chunk that dies with one was not at fault.
        self._killed: "weakref.WeakSet[ProcessPoolExecutor]" = (
            weakref.WeakSet()
        )
        self._idle: Optional[threading.Timer] = None

    def lease(self, token: int, workers: int) -> None:
        with self._lock:
            self._leases[token] = workers
            if self._idle is not None:
                self._idle.cancel()
                self._idle = None

    def release(self, token: int) -> None:
        with self._lock:
            self._leases.pop(token, None)
            busy = self._leases or self._idle is not None
            if busy or self._executor is None:
                return
            self._idle = threading.Timer(
                IDLE_SHUTDOWN_SECONDS, self._shutdown_idle
            )
            self._idle.daemon = True
            self._idle.start()

    def held_by_others(self, token: int) -> bool:
        """Whether a campaign other than ``token`` holds a lease."""
        with self._lock:
            return any(other != token for other in self._leases)

    def submit(
        self, fn: Callable, args: tuple, apps: Iterable[str] = ()
    ) -> Tuple[ProcessPoolExecutor, Future]:
        """Submit ``fn(*args)`` to the live executor, forking one if needed.

        ``apps`` are built before a fork, so the new workers inherit them.
        """
        with self._lock:
            while True:
                size = max(self._leases.values(), default=1)
                executor = self._executor
                if executor is None or self._size < size:
                    if executor is not None:
                        # A wider campaign arrived: retire the narrower
                        # executor; chunks already on it still finish.
                        executor.shutdown(wait=False)
                    _warm(apps)
                    executor = ProcessPoolExecutor(
                        max_workers=size, initializer=gc.freeze
                    )
                    self._executor, self._size = executor, size
                try:
                    return executor, executor.submit(fn, *args)
                except BrokenProcessPool:
                    # A worker died since the last submission: whoever
                    # waits on its chunks counts the crash; fork anew.
                    self._executor = None
                    _terminate(executor)

    def kill(
        self, executor: ProcessPoolExecutor, on_purpose: bool = True
    ) -> bool:
        """Terminate ``executor``'s workers; True if it was the live one."""
        with self._lock:
            if on_purpose:
                self._killed.add(executor)
            live = executor is self._executor
            if live:
                self._executor = None
        _terminate(executor)
        return live

    def killed(self, executor: ProcessPoolExecutor) -> bool:
        with self._lock:
            return executor in self._killed

    def close(self) -> None:
        """Terminate the live executor's workers now (idempotent)."""
        with self._lock:
            if self._idle is not None:
                self._idle.cancel()
                self._idle = None
            executor = self._executor
        if executor is not None:
            self.kill(executor)

    def _shutdown_idle(self) -> None:
        with self._lock:
            # A lease taken since this timer started cancelled it; one
            # released again since then started a newer timer.
            if self._leases or self._idle is not threading.current_thread():
                return
        self.close()


def _warm(apps: Iterable[str]) -> None:
    """Build apps before a fork, so every worker inherits them."""
    for name in apps:
        try:
            app_for(name)
        except Exception:  # noqa: BLE001 — a bad app name fails its
            # own executions (crash + retry), not the whole campaign.
            pass


def _terminate(executor: ProcessPoolExecutor) -> None:
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 — already-dead workers are fine
            pass
    executor.shutdown(wait=False, cancel_futures=True)


_SHARED = _SharedExecutor()
_CAMPAIGN_TOKENS = itertools.count(1)


def _forget_shared_executor() -> None:
    # A worker is forked while the submitting thread holds the lock; the
    # child gets a fresh, unleased state, not a lock it can never take.
    global _SHARED
    _SHARED = _SharedExecutor()


os.register_at_fork(after_in_child=_forget_shared_executor)


def close_executor() -> None:
    """Terminate the shared executor's workers now.

    For hosts that must not leave idle workers behind for
    :data:`IDLE_SHUTDOWN_SECONDS` (the service on shutdown), and for
    callers that change what a freshly forked worker inherits.  Live
    campaigns fork a new executor on their next submission.
    """
    _SHARED.close()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
@dataclass
class _Pending:
    """A dispatchable unit of work, coordinator-side."""

    specs: Tuple[ExecutionSpec, ...]
    attempts: int = 1
    # True when these specs were salvaged from a timed-out chunk: one
    # of them is known to hang, so a single-spec timeout here is
    # attributed without another rebuild.
    suspect: bool = False


class FleetPool:
    """One campaign's view of the shared worker processes.

    Create once per campaign; :meth:`run_wave` (one call per wave) and
    :meth:`map` may be called many times.  The first parallel call
    leases the process-wide executor; call :meth:`close` (or use as a
    context manager) when the campaign ends.  A pool collected unclosed
    releases its lease then.
    """

    def __init__(
        self,
        workers: int = 1,
        timeout_seconds: Optional[float] = DEFAULT_TIMEOUT_SECONDS,
        retry_crashed: bool = True,
        chunk_size: Optional[int] = None,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers
        self.timeout_seconds = timeout_seconds
        self.retry_crashed = retry_crashed
        self.chunk_size = chunk_size
        self.crashes = 0
        self.timeouts = 0
        self.retries = 0
        self.executor_rebuilds = 0
        # Wall-clock of every crash retry (worker- or pool-side), ms.
        self.retry_wall_ms: List[float] = []
        self._token = next(_CAMPAIGN_TOKENS)
        # Set while this pool leases the shared executor; calling it
        # releases the lease (once), as does collecting the pool.
        self._lease: Optional[weakref.finalize] = None
        # The executor this campaign last submitted to.
        self._executor: Optional[ProcessPoolExecutor] = None
        self._capacity = max(1, workers)
        self._hung_workers = 0
        self._evidence: FrozenSet[str] = frozenset()
        self._evidence_epoch = 0
        # Cooperative cancellation: set from any thread; the dispatch
        # loop notices within one poll slice, abandons the wave's
        # chunks, and raises CampaignCancelled.
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask the pool to abandon in-flight work at the next boundary.

        Safe to call from any thread (a service cancellation handler, a
        signal handler).  The wave currently running raises
        :class:`CampaignCancelled` after cancelling its chunks (and
        terminating the workers, unless another campaign holds them);
        later ``run_wave`` calls raise immediately.
        """
        self._stop.set()

    def _check_stop(self) -> None:
        if self._stop.is_set():
            raise CampaignCancelled("fleet pool stop requested")

    def _abandon(self, in_flight: Iterable[tuple]) -> None:
        """Drop this campaign's chunks and release its lease.

        Queued chunks are cancelled and running ones' outcomes dropped.
        The workers are terminated unless another campaign holds them,
        so a lone stopped run still frees its processes at once.
        """
        for entry in in_flight:
            entry[1].cancel()
        lone = not _SHARED.held_by_others(self._token)
        if lone and self._executor is not None:
            _SHARED.kill(self._executor)
        self.close()

    # ------------------------------------------------------------------
    # Evidence broadcast
    # ------------------------------------------------------------------
    @property
    def evidence_epoch(self) -> int:
        return self._evidence_epoch

    def set_evidence_base(self, signatures: Iterable[str]) -> None:
        """Install the campaign-start evidence snapshot.

        Must happen before the first parallel wave: the epoch counts
        merges from this base, so replacing it mid-campaign would
        desynchronise the two.
        """
        if self._lease is not None:
            raise RuntimeError(
                "set_evidence_base() must be called before the first wave; "
                "use advance_evidence() for signatures merged mid-campaign"
            )
        self._evidence = frozenset(signatures)

    def advance_evidence(self, new_signatures: Iterable[str]) -> int:
        """Broadcast newly merged signatures; returns the new epoch.

        Only genuinely new signatures advance the epoch — a wave that
        merged nothing leaves epoch and evidence untouched, so chunk
        payloads stay identical.
        """
        new = frozenset(new_signatures) - self._evidence
        if new:
            self._evidence |= new
            self._evidence_epoch += 1
        return self._evidence_epoch

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run_wave(self, specs: Iterable[ExecutionSpec]) -> List[ExecutionResult]:
        """Execute one wave; results come back in spec order."""
        specs = list(specs)
        if self._stop.is_set():
            self._abandon(())
            raise CampaignCancelled("fleet pool stop requested")
        if not specs:
            return []
        if self.workers <= 1:
            outcome = run_chunk(
                tuple(specs),
                self._evidence,
                retry_crashed=self.retry_crashed,
                should_stop=self._stop.is_set,
            )
            results: Dict[int, ExecutionResult] = {}
            self._ingest(outcome, results)
            return [results[s.index] for s in specs]
        return self._run_parallel(specs)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Call ``fn`` once per item on the workers; results in item order.

        For per-item work that is not an execution spec (the oracle
        judges each program this way).  ``fn`` must be a module-level
        function and the items picklable.  At most ``workers`` calls
        are in flight; ``workers <= 1`` calls ``fn`` inline.  There is
        no deadline.  An exception ``fn`` raises propagates and
        releases the lease.  A call whose worker died is resubmitted
        once (when ``retry_crashed``), and a second death raises
        ``BrokenProcessPool``: a call never falls back to the
        coordinator.
        """
        items = list(items)
        if self._stop.is_set():
            self._abandon(())
            raise CampaignCancelled("fleet pool stop requested")
        if not items:
            return []
        if self.workers <= 1:
            results = []
            for item in items:
                self._check_stop()
                results.append(fn(item))
            return results
        self._hold_lease()
        waiting: Deque[Tuple[int, int]] = deque(
            (index, 1) for index in range(len(items))
        )
        # ((index, attempts), future, no deadline, executor), oldest first.
        in_flight: Deque[tuple] = deque()
        done: Dict[int, R] = {}
        try:
            while waiting or in_flight:
                self._check_stop()
                while waiting and len(in_flight) < self._capacity:
                    index, attempts = waiting.popleft()
                    executor, future = _SHARED.submit(
                        _execute_call, (fn, items[index])
                    )
                    self._executor = executor
                    in_flight.append(((index, attempts), future, None, executor))
                (index, attempts), future, _, executor = self._await_first(
                    in_flight
                )
                try:
                    done[index] = future.result(timeout=0)
                except (BrokenProcessPool, CancelledError):
                    if _SHARED.killed(executor):
                        # Another campaign's rebuild or stop terminated
                        # the workers under it: same attempt, no crash.
                        waiting.appendleft((index, attempts))
                        continue
                    # A worker died, and every call on its executor with
                    # it: replace the executor once, resubmit them all.
                    lost = [(index, attempts)] + [
                        e[0] for e in in_flight if e[3] is executor
                    ]
                    alive = [e for e in in_flight if e[3] is not executor]
                    in_flight.clear()
                    in_flight.extend(alive)
                    if _SHARED.kill(executor, on_purpose=False):
                        self.executor_rebuilds += 1
                    for lost_index, lost_attempts in lost:
                        self.crashes += 1
                        if not self.retry_crashed or lost_attempts > 1:
                            raise
                        self.retries += 1
                        waiting.append((lost_index, lost_attempts + 1))
        except (CampaignCancelled, KeyboardInterrupt):
            self._abandon(in_flight)
            raise
        except BaseException:
            # The calls still running finish on their own; their
            # results are dropped with the lease.
            for entry in in_flight:
                entry[1].cancel()
            self.close()
            raise
        return [done[index] for index in range(len(items))]

    def close(self) -> None:
        """Release this campaign's lease on the workers (idempotent)."""
        if self._lease is not None:
            self._lease()
            self._lease = None
        self._forget_executor()

    def __enter__(self) -> "FleetPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Parallel path
    # ------------------------------------------------------------------
    def _hold_lease(self) -> None:
        if self._lease is None:
            _SHARED.lease(self._token, self.workers)
            self._lease = weakref.finalize(self, _SHARED.release, self._token)
            # Exit tears the workers down anyway; no thread may start then.
            self._lease.atexit = False

    def _run_parallel(self, specs: List[ExecutionSpec]) -> List[ExecutionResult]:
        self._hold_lease()
        apps = sorted({spec.app for spec in specs})
        # Evidence only advances between waves, so every chunk of this
        # wave (timeout and crash requeues included) carries the same
        # set: worker scheduling cannot leak into detection outcomes.
        evidence = tuple(sorted(self._evidence))
        size = self.chunk_size or max(1, math.ceil(len(specs) / self.workers))
        waiting: Deque[_Pending] = deque(
            _Pending(specs=tuple(specs[i : i + size]))
            for i in range(0, len(specs), size)
        )
        # (_Pending, future, deadline, executor), oldest first.
        in_flight: Deque[tuple] = deque()
        results: Dict[int, ExecutionResult] = {}
        try:
            while waiting or in_flight:
                self._check_stop()
                while waiting and len(in_flight) < self._capacity:
                    pending = waiting.popleft()
                    chunk = WorkChunk(
                        specs=pending.specs,
                        evidence=evidence,
                        attempts=pending.attempts,
                        retry_crashed=self.retry_crashed,
                    )
                    deadline = (
                        time.monotonic()
                        + self.timeout_seconds * len(pending.specs)
                        if self.timeout_seconds is not None
                        else None
                    )
                    executor, future = _SHARED.submit(
                        _execute_chunk, (chunk,), apps
                    )
                    self._executor = executor
                    in_flight.append((pending, future, deadline, executor))
                pending, future, _, executor = self._await_first(in_flight)
                try:
                    outcome = future.result(timeout=0)
                except (CampaignCancelled, KeyboardInterrupt):
                    raise
                except FutureTimeout:
                    self._on_timeout(
                        pending, executor, in_flight, waiting, results
                    )
                except (BrokenProcessPool, CancelledError):
                    self._on_broken(
                        pending, executor, in_flight, waiting, results
                    )
                except Exception as exc:  # noqa: BLE001 — dispatch/pickling
                    # failure for this chunk; its specs get one pool retry.
                    self._requeue_crashed(
                        pending, waiting, results, _describe(exc)
                    )
                else:
                    self._ingest(outcome, results)
        except (CampaignCancelled, KeyboardInterrupt):
            # Stop request or Ctrl-C mid-wave: no chunk of this wave may
            # outlive it — cancel or drop them all before unwinding.
            self._abandon(in_flight)
            raise
        if self._hung_workers:
            # Confirmed-hung workers are still burning slots of the
            # shared executor; terminating it now frees them without
            # counting as a rebuild — the next submission forks anew.
            _SHARED.kill(self._executor)
            self._forget_executor()
        return [results[spec.index] for spec in specs]

    # Poll slice while waiting on in-flight futures: long enough to stay
    # off the hot path, short enough that a stop request (cancel,
    # Ctrl-C relayed from another thread) interrupts a wave promptly.
    _WAIT_SLICE_SECONDS = 0.05

    def _await_first(self, in_flight: Deque[tuple]) -> tuple:
        """Pop the first ``(item, future, deadline, executor)`` entry whose
        call finished or whose deadline passed (the oldest if several).

        Its ``future.result(timeout=0)`` then returns, raises the call's
        error, or raises ``FutureTimeout``.  Any finished call frees its
        slot, not only the oldest, and the sliced wait notices
        :meth:`request_stop` within ``_WAIT_SLICE_SECONDS``.
        """
        while True:
            self._check_stop()
            now = time.monotonic()
            wait = self._WAIT_SLICE_SECONDS
            for entry in in_flight:
                deadline = entry[2]
                if entry[1].done() or (deadline is not None and deadline <= now):
                    in_flight.remove(entry)
                    return entry
                if deadline is not None:
                    wait = min(wait, deadline - now)
            wait_futures(
                [entry[1] for entry in in_flight],
                timeout=wait,
                return_when=FIRST_COMPLETED,
            )

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _on_timeout(
        self,
        pending: _Pending,
        executor: ProcessPoolExecutor,
        in_flight: Deque[tuple],
        waiting: Deque[_Pending],
        results: Dict[int, ExecutionResult],
    ) -> None:
        if len(pending.specs) == 1:
            # Exact attribution: this spec hung.
            spec = pending.specs[0]
            self.timeouts += 1
            results[spec.index] = _failed_result(
                spec,
                OUTCOME_TIMEOUT,
                attempts=pending.attempts,
                error=f"execution exceeded {self.timeout_seconds}s",
            )
            if pending.suspect:
                # Known hang, already paid for one rebuild: writing off
                # the worker it wedged is cheaper than killing the pool
                # again.  Capacity shrinks; a rebuild only happens if
                # every worker ends up wedged.
                self._hung_workers += 1
                self._capacity = max(0, self._capacity - 1)
                if self._capacity > 0:
                    return
            self._rebuild(executor, in_flight, waiting)
            return
        # A multi-spec chunk timed out: some spec in it hung, but which
        # one is unknowable without finishing — so the chunk's specs are
        # re-run as single-spec chunks (marked suspect) on a rebuilt
        # executor.  The hung one times out alone and is attributed;
        # its chunk-mates complete.  Deterministic re-execution makes
        # the re-run free of side effects.
        for spec in reversed(pending.specs):
            waiting.appendleft(
                _Pending(specs=(spec,), attempts=pending.attempts, suspect=True)
            )
        self._rebuild(executor, in_flight, waiting)

    def _rebuild(
        self,
        executor: ProcessPoolExecutor,
        in_flight: Deque[tuple],
        waiting: Deque[_Pending],
    ) -> None:
        """Kill a hung executor; in-flight chunks ride the next one."""
        self.executor_rebuilds += 1
        for entry in reversed(in_flight):
            waiting.appendleft(entry[0])
        in_flight.clear()
        _SHARED.kill(executor)
        self._forget_executor()

    def _on_broken(
        self,
        pending: _Pending,
        executor: ProcessPoolExecutor,
        in_flight: Deque[tuple],
        waiting: Deque[_Pending],
        results: Dict[int, ExecutionResult],
    ) -> None:
        if _SHARED.killed(executor):
            # Another campaign's rebuild (or stop) terminated the workers
            # under this chunk: run it again, same attempt, no crash.
            waiting.appendleft(pending)
            return
        # The pool broke: every chunk in flight on it died with it.
        # Drain them all, replace the executor once, then resubmit — the
        # coordinator never falls back to executing inline.
        dead = [pending] + [e[0] for e in in_flight if e[3] is executor]
        alive = [e for e in in_flight if e[3] is not executor]
        in_flight.clear()
        in_flight.extend(alive)
        if _SHARED.kill(executor, on_purpose=False):
            self.executor_rebuilds += 1
        for lost in dead:
            self._requeue_crashed(lost, waiting, results)

    def _requeue_crashed(
        self,
        pending: _Pending,
        waiting: Deque[_Pending],
        results: Dict[int, ExecutionResult],
        error: str = "worker pool broke",
    ) -> None:
        """Resubmit a crashed chunk's specs to the pool (never inline)."""
        for spec in pending.specs:
            self.crashes += 1
            if self.retry_crashed and pending.attempts == 1:
                self.retries += 1
                waiting.append(_Pending(specs=(spec,), attempts=2))
            else:
                results[spec.index] = _failed_result(
                    spec, OUTCOME_CRASH, pending.attempts, error
                )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _ingest(
        self, outcome: ChunkOutcome, results: Dict[int, ExecutionResult]
    ) -> None:
        """File one chunk's results and fault counters under the wave."""
        self.crashes += outcome.crashes
        self.retries += outcome.retries
        self.retry_wall_ms.extend(outcome.retry_wall_ms)
        for result in outcome.results:
            results[result.index] = result

    # ------------------------------------------------------------------
    # Executor lifecycle
    # ------------------------------------------------------------------
    @property
    def executor(self) -> Optional[ProcessPoolExecutor]:
        """The shared executor this campaign last submitted to.

        ``None`` before the first parallel wave and after :meth:`close`;
        stable across healthy waves and back-to-back campaigns.
        """
        return self._executor

    def _forget_executor(self) -> None:
        self._executor = None
        self._capacity = max(1, self.workers)
        self._hung_workers = 0
