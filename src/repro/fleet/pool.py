"""The fleet worker pool.

Fans :class:`ExecutionSpec`s out over a ``ProcessPoolExecutor`` of
independent OS processes — the closest a simulation gets to the paper's
deployment story, where each production process runs its own sampled
CSOD and only reports flow back centrally.

The pool is built for campaign throughput:

* **Persistent workers** — one executor per :class:`FleetPool`, created
  lazily on the first parallel wave and reused across waves.  The
  worker initializer pre-imports the runtime (this module's imports)
  and pre-warms the per-app schedule/call-site caches once per process,
  instead of once per execution.  The executor is rebuilt only when a
  worker hangs past its deadline or the pool breaks
  (``executor_rebuilds`` counts those, and only those).
* **Chunked dispatch** — specs are submitted in :class:`WorkChunk`s
  (``chunk_size`` configurable, default ``ceil(wave / workers)``), so
  one pickle/IPC round trip and one config transfer amortise over many
  executions; inside a chunk the worker runs serially and returns one
  batched :class:`ChunkOutcome`.
* **Delta evidence** — workers hold the evidence snapshot from campaign
  start (:meth:`FleetPool.set_evidence_base`, shipped once via the
  initializer); each chunk carries only the signatures merged since
  (:meth:`FleetPool.advance_evidence`), reconstructed worker-side as
  ``base | delta`` — a set, so detection behaviour is byte-for-byte the
  same as shipping the full snapshot.
* **Mergeable partial aggregation** — the worker folds its chunk into a
  :class:`PartialAggregate` and ships signatures, not frame strings
  (those travel once per novel signature); the coordinator rehydrates
  full :class:`ExecutionResult`s from its context registry.

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

``workers <= 1`` runs every chunk inline through the *same* chunk
executor, so serial callers share one code path and one set of
semantics with the parallel fleet.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
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
    Set,
    Tuple,
)

from repro.core import CSODConfig, CSODRuntime
from repro.core.sampling import context_signature
from repro.errors import CampaignCancelled, InvalidFreeError
from repro.fleet.aggregate import PartialAggregate
from repro.fleet.specs import (
    OUTCOME_CRASH,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    ContextTable,
    ExecutionResult,
    ExecutionSpec,
    LeanExecutionResult,
    ReportRecord,
    WorkChunk,
    lean_from,
)
from repro.workloads.base import SimProcess
from repro.workloads.buggy import app_for

DEFAULT_TIMEOUT_SECONDS = 60.0


# ----------------------------------------------------------------------
# Worker-side campaign state
# ----------------------------------------------------------------------
# One campaign per pool, one pool per executor: the initializer stamps
# this once per worker process (and inherits pre-warmed app caches on
# fork platforms for free).
_WORKER_CAMPAIGN: Dict[str, object] = {
    "base_evidence": frozenset(),
    "shipped": set(),
}


def _init_worker(
    apps: Tuple[str, ...], base_evidence: Tuple[str, ...]
) -> None:
    """Per-process warm-up: campaign evidence base + app caches."""
    _WORKER_CAMPAIGN["base_evidence"] = frozenset(base_evidence)
    _WORKER_CAMPAIGN["shipped"] = set()
    for name in apps:
        try:
            app_for(name)
        except Exception:  # noqa: BLE001 — a bad app name fails its own
            # executions (crash + retry), not worker start-up.
            pass


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
    new_evidence = tuple(
        sorted(
            context_signature(record.context)
            for record in runtime.sampling.records()
            if record.overflow_observed
        )
    )
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

    results: List[LeanExecutionResult] = field(default_factory=list)
    partial: PartialAggregate = field(default_factory=PartialAggregate)
    crashes: int = 0
    retries: int = 0


def run_chunk(
    specs: Tuple[ExecutionSpec, ...],
    evidence: FrozenSet[str],
    shipped: Set[str],
    retry_crashed: bool = True,
    base_attempts: int = 1,
    should_stop: Optional[Callable[[], bool]] = None,
) -> ChunkOutcome:
    """Run a chunk of specs serially; the shared serial/worker core.

    ``shipped`` is the caller's per-campaign memory of which report
    signatures have already had their frame strings transferred —
    contexts for those are stripped from the outcome (the coordinator
    keeps a registry), so steady-state result payloads carry counters
    and signatures only.

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
        retry_wall_ms = 0.0
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
                retry_wall_ms = (time.perf_counter() - retry_started) * 1e3
            else:
                result = _failed_result(
                    spec, OUTCOME_CRASH, base_attempts, _describe(first_exc)
                )
        outcome.partial.observe(result)
        outcome.results.append(lean_from(result, retry_wall_ms=retry_wall_ms))
    # Ship frame strings once per signature per campaign per worker.
    for signature in list(outcome.partial.contexts):
        if signature in shipped:
            del outcome.partial.contexts[signature]
        else:
            shipped.add(signature)
    return outcome


def _execute_chunk(chunk: WorkChunk) -> ChunkOutcome:
    """The worker-side entry point: evidence is ``base | delta``."""
    base = _WORKER_CAMPAIGN["base_evidence"]
    evidence = frozenset(base | set(chunk.evidence_delta))
    return run_chunk(
        chunk.specs,
        evidence,
        _WORKER_CAMPAIGN["shipped"],
        retry_crashed=chunk.retry_crashed,
        base_attempts=chunk.attempts,
    )


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
# Coordinator
# ----------------------------------------------------------------------
@dataclass
class WaveResult:
    """Everything one wave produced, pre-folded."""

    results: List[ExecutionResult]
    partial: PartialAggregate


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
    """Executes specs across persistent worker processes.

    Create once per campaign; ``run``/``run_wave`` may be called many
    times (one per wave) against the same executor.  Call :meth:`close`
    (or use as a context manager) when the campaign ends.
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
        self._executor: Optional[ProcessPoolExecutor] = None
        self._capacity = max(1, workers)
        self._hung_workers = 0
        self._apps: Tuple[str, ...] = ()
        self._evidence_base: FrozenSet[str] = frozenset()
        self._evidence_delta: FrozenSet[str] = frozenset()
        self._evidence_epoch = 0
        self._context_registry: ContextTable = {}
        # The serial path's counterpart of a worker's shipped-set.
        self._inline_shipped: Set[str] = set()
        # Cooperative cancellation: set from any thread; the dispatch
        # loop notices within one poll slice, terminates the workers,
        # and raises CampaignCancelled.
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask the pool to abandon in-flight work at the next boundary.

        Safe to call from any thread (a service cancellation handler, a
        signal handler).  The wave currently running raises
        :class:`CampaignCancelled` after terminating worker processes;
        later ``run_wave`` calls raise immediately.
        """
        self._stop.set()

    def _check_stop(self) -> None:
        if self._stop.is_set():
            self._dispose()
            raise CampaignCancelled("fleet pool stop requested")

    # ------------------------------------------------------------------
    # Evidence broadcast (delta protocol)
    # ------------------------------------------------------------------
    @property
    def evidence_epoch(self) -> int:
        return self._evidence_epoch

    def set_evidence_base(self, signatures: Iterable[str]) -> None:
        """Install the campaign-start snapshot (shipped to workers once).

        Must happen before the first parallel wave — the base rides in
        the executor initializer, so changing it afterwards would
        desynchronise coordinator and workers.
        """
        if self._executor is not None:
            raise RuntimeError(
                "set_evidence_base() must be called before the first wave; "
                "use advance_evidence() for signatures merged mid-campaign"
            )
        self._evidence_base = frozenset(signatures)

    def advance_evidence(self, new_signatures: Iterable[str]) -> int:
        """Broadcast newly merged signatures; returns the new epoch.

        Only genuinely new signatures advance the epoch — a wave that
        merged nothing leaves epoch and delta untouched, so chunk
        payloads stay identical and workers skip nothing.
        """
        new = frozenset(new_signatures) - self._evidence_base - self._evidence_delta
        if new:
            self._evidence_delta |= new
            self._evidence_epoch += 1
        return self._evidence_epoch

    def _full_evidence(self) -> FrozenSet[str]:
        return self._evidence_base | self._evidence_delta

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self, specs: Iterable[ExecutionSpec]) -> List[ExecutionResult]:
        """Execute every spec; results come back in spec order."""
        return self.run_wave(specs).results

    def run_wave(self, specs: Iterable[ExecutionSpec]) -> WaveResult:
        """Execute one wave; results in spec order plus their fold."""
        specs = list(specs)
        self._check_stop()
        if not specs:
            return WaveResult([], PartialAggregate())
        if self.workers <= 1:
            outcome = run_chunk(
                tuple(specs),
                self._full_evidence(),
                self._inline_shipped,
                retry_crashed=self.retry_crashed,
                should_stop=self._stop.is_set,
            )
            self.crashes += outcome.crashes
            self.retries += outcome.retries
            partial = PartialAggregate()
            results: Dict[int, ExecutionResult] = {}
            self._ingest(outcome, results, partial)
            return WaveResult([results[s.index] for s in specs], partial)
        return self._run_parallel(specs)

    def close(self) -> None:
        """Terminate the executor's worker processes (idempotent)."""
        self._dispose()

    def __enter__(self) -> "FleetPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Parallel path
    # ------------------------------------------------------------------
    def _run_parallel(self, specs: List[ExecutionSpec]) -> WaveResult:
        self._apps = tuple(
            sorted(set(self._apps) | {spec.app for spec in specs})
        )
        # Warm the app cache before forking so every worker inherits
        # the same interned call sites (and nobody rebuilds a 57k-event
        # schedule per process); spawn platforms re-warm in the
        # initializer instead.
        for name in self._apps:
            try:
                app_for(name)
            except Exception:  # noqa: BLE001 — a bad app name fails its
                # own executions (crash + retry), not the whole campaign.
                pass
        size = self.chunk_size or max(1, math.ceil(len(specs) / self.workers))
        waiting: Deque[_Pending] = deque(
            _Pending(specs=tuple(specs[i : i + size]))
            for i in range(0, len(specs), size)
        )
        in_flight: Deque[tuple] = deque()  # (_Pending, future, deadline)
        results: Dict[int, ExecutionResult] = {}
        partial = PartialAggregate()
        executor = self._ensure_executor()
        try:
            while waiting or in_flight:
                self._check_stop()
                while waiting and len(in_flight) < self._capacity:
                    pending = waiting.popleft()
                    chunk = self._build_chunk(pending)
                    deadline = (
                        time.monotonic()
                        + self.timeout_seconds * len(pending.specs)
                        if self.timeout_seconds is not None
                        else None
                    )
                    in_flight.append(
                        (pending, executor.submit(_execute_chunk, chunk), deadline)
                    )
                pending, future, deadline = in_flight.popleft()
                try:
                    outcome = self._await_result(future, deadline)
                    self.crashes += outcome.crashes
                    self.retries += outcome.retries
                    self._ingest(outcome, results, partial)
                except FutureTimeout:
                    executor = self._on_timeout(
                        pending, in_flight, waiting, results, partial, executor
                    )
                except BrokenProcessPool:
                    # Every in-flight future died with the pool: drain them
                    # all before rebuilding once, then resubmit — the
                    # coordinator never falls back to executing inline.
                    dead = [pending] + [entry[0] for entry in in_flight]
                    in_flight.clear()
                    executor = self._rebuild(executor)
                    for lost in dead:
                        self._requeue_crashed(lost, waiting, results, partial)
                except (CampaignCancelled, KeyboardInterrupt):
                    raise
                except Exception as exc:  # noqa: BLE001 — dispatch/pickling
                    # failure for this chunk; its specs get one pool retry.
                    self._requeue_crashed(
                        pending, waiting, results, partial, _describe(exc)
                    )
        except (CampaignCancelled, KeyboardInterrupt):
            # Stop request or Ctrl-C mid-wave: the executor (and any
            # worker process still running a chunk) must not outlive
            # the wave — terminate everything before unwinding.
            self._dispose()
            raise
        if self._hung_workers:
            # Confirmed-hung workers are still burning a pool slot;
            # disposing now frees them without counting as a rebuild —
            # the next wave lazily builds a fresh executor.
            self._dispose()
        return WaveResult([results[spec.index] for spec in specs], partial)

    def _build_chunk(self, pending: _Pending) -> WorkChunk:
        """One dispatchable chunk carrying the wave's evidence delta.

        Evidence only advances between waves, so every chunk built
        during a wave (including timeout/crash requeues) carries the
        same delta — worker scheduling cannot leak into detection
        outcomes.
        """
        return WorkChunk(
            specs=pending.specs,
            evidence_delta=tuple(sorted(self._evidence_delta)),
            attempts=pending.attempts,
            retry_crashed=self.retry_crashed,
        )

    # Poll slice while waiting on a chunk future: long enough to stay
    # off the hot path, short enough that a stop request (cancel,
    # Ctrl-C relayed from another thread) interrupts a wave promptly.
    _WAIT_SLICE_SECONDS = 0.05

    def _await_result(self, future, deadline: Optional[float]) -> ChunkOutcome:
        """Wait for one chunk, honouring both deadline and stop requests.

        Equivalent to ``future.result(timeout=remaining)`` except the
        wait is sliced so :meth:`request_stop` is noticed within
        ``_WAIT_SLICE_SECONDS`` instead of after the full chunk deadline
        (which defaults to a minute per spec).  Raises ``FutureTimeout``
        exactly when the single blocking wait would have.
        """
        while True:
            if self._stop.is_set():
                raise CampaignCancelled("fleet pool stop requested")
            wait = self._WAIT_SLICE_SECONDS
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return future.result(timeout=0)
                wait = min(wait, remaining)
            try:
                return future.result(timeout=wait)
            except FutureTimeout:
                if deadline is not None and time.monotonic() >= deadline:
                    raise
                continue

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _on_timeout(
        self,
        pending: _Pending,
        in_flight: Deque[tuple],
        waiting: Deque[_Pending],
        results: Dict[int, ExecutionResult],
        partial: PartialAggregate,
        executor: ProcessPoolExecutor,
    ) -> ProcessPoolExecutor:
        if len(pending.specs) == 1:
            # Exact attribution: this spec hung.
            spec = pending.specs[0]
            self.timeouts += 1
            result = _failed_result(
                spec,
                OUTCOME_TIMEOUT,
                attempts=pending.attempts,
                error=f"execution exceeded {self.timeout_seconds}s",
            )
            results[spec.index] = result
            partial.observe(result)
            if pending.suspect:
                # Known hang, already paid for one rebuild: writing off
                # the worker it wedged is cheaper than killing the pool
                # again.  Capacity shrinks; a rebuild only happens if
                # every worker ends up wedged.
                self._hung_workers += 1
                self._capacity = max(0, self._capacity - 1)
                if self._capacity > 0:
                    return executor
            return self._requeue_in_flight(in_flight, waiting, executor)
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
        return self._requeue_in_flight(in_flight, waiting, executor)

    def _requeue_in_flight(
        self,
        in_flight: Deque[tuple],
        waiting: Deque[_Pending],
        executor: ProcessPoolExecutor,
    ) -> ProcessPoolExecutor:
        """Rebuild the executor; in-flight chunks ride the new one."""
        for entry in reversed(in_flight):
            waiting.appendleft(entry[0])
        in_flight.clear()
        return self._rebuild(executor)

    def _requeue_crashed(
        self,
        pending: _Pending,
        waiting: Deque[_Pending],
        results: Dict[int, ExecutionResult],
        partial: PartialAggregate,
        error: str = "worker pool broke",
    ) -> None:
        """Resubmit a crashed chunk's specs to the pool (never inline)."""
        for spec in pending.specs:
            self.crashes += 1
            if self.retry_crashed and pending.attempts == 1:
                self.retries += 1
                waiting.append(_Pending(specs=(spec,), attempts=2))
            else:
                result = _failed_result(
                    spec, OUTCOME_CRASH, pending.attempts, error
                )
                results[spec.index] = result
                partial.observe(result)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _ingest(
        self,
        outcome: ChunkOutcome,
        results: Dict[int, ExecutionResult],
        partial: PartialAggregate,
    ) -> None:
        """Fold one chunk outcome into the wave, rehydrating results."""
        self._context_registry.update(outcome.partial.contexts)
        # Backfill stripped contexts so the partial handed to callers
        # is self-contained even when this worker shipped them earlier.
        for signature in outcome.partial.counts:
            if signature not in outcome.partial.contexts:
                frames = self._context_registry.get(signature)
                if frames is not None:
                    outcome.partial.contexts[signature] = frames
        for lean in outcome.results:
            if lean.retry_wall_ms:
                self.retry_wall_ms.append(lean.retry_wall_ms)
            result = lean.hydrate(self._context_registry)
            results[result.index] = result
        partial.merge(outcome.partial)

    # ------------------------------------------------------------------
    # Executor lifecycle
    # ------------------------------------------------------------------
    @property
    def executor(self) -> Optional[ProcessPoolExecutor]:
        """The live executor, if any (stable across healthy waves)."""
        return self._executor

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self._apps, tuple(sorted(self._evidence_base))),
            )
            self._capacity = self.workers
            self._hung_workers = 0
        return self._executor

    def _rebuild(self, executor: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Kill a broken/hung pool and hand back a fresh one."""
        self.executor_rebuilds += 1
        self._terminate(executor)
        self._executor = None
        return self._ensure_executor()

    def _dispose(self) -> None:
        if self._executor is None:
            return
        self._terminate(self._executor)
        self._executor = None
        self._capacity = max(1, self.workers)
        self._hung_workers = 0

    @staticmethod
    def _terminate(executor: ProcessPoolExecutor) -> None:
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 — already-dead workers are fine
                pass
        executor.shutdown(wait=False, cancel_futures=True)
