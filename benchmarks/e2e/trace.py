"""Span recorder and per-layer metrics for the end-to-end benchmark.

A traced run wraps public functions of the system from the outside (no
product code changes) and records one *span* per call at each layer
boundary: name, start/end ``perf_counter_ns``, the enclosing span
(``parent``), a trace id (campaign, program or job) and the pid.  Calls
on the per-allocation hot path (``malloc``/``free``, context interning,
watch installs, wire encode/decode) are far too frequent for one record
each, so they are *tallies*: their total time, the part of it covered by
nested tallies, and a call count, folded into the enclosing span.

Spans stay in memory.  Forked fleet workers append theirs to
``spans-<pid>.jsonl`` at the end of every chunk; coordinator and server
processes write theirs when they exit.  A span's *self time* is its
duration minus the time its direct children (spans and tallies) cover.

:func:`layer_metrics` turns the span files of one traced run into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import os
import statistics
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

_now = time.perf_counter_ns

_ALL = ("fleet-short", "fleet-heavy", "oracle-7arm", "service-mixed")
_SHORT_RUNTIME = [("execs_per_s", "fleet-short"),
                  ("job_latency_p50_ms", "oracle-7arm")]
_HOT_PATH = [("execs_per_s", "fleet-heavy")]
_DISPATCH = [("execs_per_s", "fleet-short")]
_CAMPAIGN = [("job_latency_p50_ms", "service-mixed")]
_ORACLE = [("execs_per_s", "oracle-7arm"), ("job_latency_p50_ms", "oracle-7arm")]

# Which end-to-end metric, on which workload, each per-layer metric
# should move: written down before any optimisation is measured.
LAYER_TARGETS: Dict[str, List[tuple]] = {
    "core.runtime.init_ms": _SHORT_RUNTIME,
    "core.runtime.init_share": _SHORT_RUNTIME,
    "core.runtime.shutdown_ms": _HOT_PATH,
    "core.sampling.records_scan_ms": _SHORT_RUNTIME,
    "core.sampling.records_scan_share": _SHORT_RUNTIME,
    "heap.malloc_calls_per_exec": _HOT_PATH,
    "heap.pair_us": _HOT_PATH,
    "heap.share": _HOT_PATH,
    "callstack.intern_calls_per_exec": _HOT_PATH,
    "callstack.intern_us": _HOT_PATH,
    "core.watchpoints.try_watch_calls_per_exec": _HOT_PATH,
    "core.watchpoints.try_watch_share": _HOT_PATH,
    "workloads.process_init_share": _DISPATCH,
    "workloads.app_run_ms": _HOT_PATH,
    "workloads.app_self_share": _HOT_PATH,
    # Modelled counts: a pure speed-up must leave them unchanged.
    "perfmodel.modelled_us_per_exec": _HOT_PATH,
    "perfmodel.context_lookups_per_exec": _HOT_PATH,
    "perfmodel.watch_installs_per_exec": _HOT_PATH,
    "perfmodel.syscalls_per_exec": _HOT_PATH,
    "fleet.pool.exec_wall_p50_ms": _DISPATCH + _HOT_PATH,
    "fleet.pool.exec_wall_p95_ms": _DISPATCH + _HOT_PATH,
    "fleet.pool.wave_ms": _DISPATCH + _CAMPAIGN,
    "fleet.pool.busy_frac": _DISPATCH + [("execs_per_s", "service-mixed")],
    "fleet.pool.close_ms": _CAMPAIGN,
    "fleet.pool.retries": _DISPATCH,
    "fleet.pool.timeouts": _DISPATCH,
    "fleet.campaign.setup_share": _CAMPAIGN,
    "fleet.campaign.first_wave_share": _CAMPAIGN,
    "fleet.campaign.finish_share": _CAMPAIGN,
    "fleet.wire.encode_us": _DISPATCH,
    "fleet.wire.decode_us": _DISPATCH,
    "fleet.aggregate.merge_ms": _DISPATCH,
    "fleet.evidence.absorb_share": [("job_latency_p50_ms", "service-mixed")],
    "fleet.evidence.advance_share": [("job_latency_p50_ms", "service-mixed")],
    "fleet.evidence.signatures_merged_per_job":
        [("job_latency_p50_ms", "service-mixed")],
    "oracle.generate_share": _ORACLE,
    "oracle.observe_share": _ORACLE,
    "oracle.probe_share": _ORACLE,
    "oracle.attribute_share": _ORACLE,
    "oracle.converge_share": _ORACLE,
    "oracle.classify_share": _ORACLE,
    "oracle.scorecard_share": _ORACLE,
    "oracle.fleet_wave_share": _ORACLE,
    "oracle.fp_programs": _ORACLE,
    "detectors.asan.observe_share": _ORACLE,
    "detectors.guardpage.observe_share": _ORACLE,
    "detectors.gwp-asan.observe_share": _ORACLE,
    "detectors.doubletake.observe_share": _ORACLE,
    "triage.cluster_share": _ORACLE + [("job_latency_p50_ms", "service-mixed")],
    "triage.bugdb_update_share":
        _ORACLE + [("job_latency_p50_ms", "service-mixed")],
    "triage.record_detectors_share": _ORACLE,
    "service.submit_share": _CAMPAIGN,
    "service.queue_wait_share": _CAMPAIGN,
    "service.event_lag_share": _CAMPAIGN,
    "service.slot_wait_share": [("job_latency_p50_ms", "service-mixed")],
    "service.publish_share": [("execs_per_s", "service-mixed")],
    "service.job_exec_share": [("execs_per_s", "service-mixed")],
    # Measurement quality: how far tracing perturbs each workload.
    "trace.overhead_frac": [("execs_per_s", w) for w in _ALL],
    "trace.exec_coverage": [("execs_per_s", w) for w in _ALL],
    "trace.job_coverage": [("job_latency_p50_ms", w) for w in _ALL],
}


class _Frame:
    """One open span (or hot-path tally) on a thread's stack."""

    __slots__ = ("name", "id", "parent", "trace", "start", "child_ns",
                 "tallies", "owner", "attrs")

    def __init__(self, name, span_id, parent, trace, owner):
        self.name = name
        self.id = span_id
        self.parent = parent
        self.trace = trace
        self.start = _now()
        self.child_ns = 0
        self.tallies: Optional[Dict[str, List[int]]] = None
        # The span a tally folds into (itself, for a span).
        self.owner = owner if owner is not None else self
        self.attrs: Optional[dict] = None


class Recorder:
    """Per-process span recorder; fork-aware and thread-aware."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked child inherits the parent's open stack and buffered
        # spans; both belong to the parent, so the child starts empty.
        self.pid = os.getpid()
        self.records: List[dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._root = _Frame("root", 0, 0, "", None)
        self._root.tallies = {}

    @property
    def in_worker(self) -> bool:
        return self.pid != self.root_pid

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def open(self, name: str, trace: Optional[str] = None) -> _Frame:
        stack = self._stack()
        parent = stack[-1].owner if stack else None
        frame = _Frame(
            name,
            next(self._ids),
            parent.id if parent is not None else 0,
            trace if trace is not None else (parent.trace if parent else ""),
            None,
        )
        stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        end = _now()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child_ns += duration
        record = {
            "name": frame.name,
            "id": frame.id,
            "parent": frame.parent,
            "trace": frame.trace,
            "pid": self.pid,
            "start_ns": frame.start,
            "end_ns": end,
            "child_ns": frame.child_ns,
        }
        if frame.attrs:
            record["attrs"] = frame.attrs
        with self._lock:
            self.records.append(record)
            for name, (total, child, count) in (frame.tallies or {}).items():
                self.records.append(
                    _tally_record(name, frame.id, frame.trace, self.pid,
                                  frame.start, total, child, count)
                )

    def detached(self, name: str, start_ns: int, end_ns: int,
                 trace: str = "") -> None:
        """A span measured outside any stack (e.g. across an ``await``)."""
        with self._lock:
            self.records.append({
                "name": name, "id": next(self._ids), "parent": 0,
                "trace": trace, "pid": self.pid, "start_ns": start_ns,
                "end_ns": end_ns, "child_ns": 0,
            })

    # ------------------------------------------------------------------
    # Tallies
    # ------------------------------------------------------------------
    def tally_open(self, name: str) -> _Frame:
        stack = self._stack()
        owner = stack[-1].owner if stack else self._root
        frame = _Frame(name, 0, owner.id, owner.trace, owner)
        stack.append(frame)
        return frame

    def tally_close(self, frame: _Frame) -> None:
        self.add_tally(frame.name, _now() - frame.start, frame.child_ns,
                       pop=True, owner=frame.owner)

    def add_tally(self, name: str, total_ns: int, child_ns: int = 0,
                  pop: bool = False, owner: Optional[_Frame] = None) -> None:
        stack = self._stack()
        if pop:
            stack.pop()
        if stack:
            stack[-1].child_ns += total_ns
        if owner is None:
            owner = stack[-1].owner if stack else self._root
        if owner is self._root:
            # Threads with no open span share the root: serialise them.
            with self._lock:
                _fold(self._root.tallies, name, total_ns, child_ns)
            return
        if owner.tallies is None:
            owner.tallies = {}
        _fold(owner.tallies, name, total_ns, child_ns)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Append buffered spans to this process's ``spans-<pid>.jsonl``."""
        with self._lock:
            records, self.records = self.records, []
            flushed = _now()
            for name, (total, child, count) in self._root.tallies.items():
                records.append(_tally_record(name, 0, "", self.pid, flushed,
                                             total, child, count))
            self._root.tallies = {}
        if not records:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as handle:
            handle.write("".join(json.dumps(r) + "\n" for r in records))


def _fold(tallies: Dict[str, List[int]], name: str, total_ns: int,
          child_ns: int) -> None:
    entry = tallies.get(name)
    if entry is None:
        tallies[name] = [total_ns, child_ns, 1]
    else:
        entry[0] += total_ns
        entry[1] += child_ns
        entry[2] += 1


def _tally_record(name, parent, trace, pid, at, total, child, count) -> dict:
    # ``at_ns``: the owning span's start, or the flush time for tallies
    # made outside any span; it places the tally inside or before the
    # measured window.
    return {"name": name, "tally": True, "parent": parent, "trace": trace,
            "pid": pid, "at_ns": at, "total_ns": total, "child_ns": child,
            "count": count}


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def span_wrapper(rec: Recorder, name: str, fn: Callable,
                 trace_of: Optional[Callable] = None,
                 before: Optional[Callable] = None,
                 after: Optional[Callable] = None,
                 flush_in_worker: bool = False) -> Callable:
    """Wrap ``fn`` so each call records a span named ``name``.

    ``trace_of(args, kwargs)`` names the trace; ``before``/``after``
    return attrs for the span (``after`` also sees the result).
    """

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        frame = rec.open(name, trace_of(args, kwargs) if trace_of else None)
        if before is not None:
            frame.attrs = before(args, kwargs)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                frame.attrs = dict(frame.attrs or {}, **after(args, result))
            return result
        finally:
            rec.close(frame)
            if flush_in_worker and rec.in_worker:
                rec.flush()

    return wrapped


def tally_wrapper(rec: Recorder, name: str, fn: Callable,
                  flush_in_worker: bool = False) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        frame = rec.tally_open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.tally_close(frame)
            if flush_in_worker and rec.in_worker:
                rec.flush()

    return wrapped


def async_span_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    """Coroutines interleave on one thread, so their spans are detached."""

    @functools.wraps(fn)
    async def wrapped(*args, **kwargs):
        start = _now()
        try:
            return await fn(*args, **kwargs)
        finally:
            rec.detached(name, start, _now())

    return wrapped


def _timed_iterator(rec: Recorder, name: str, iterator):
    """Times each ``next()``; one tally per full iteration."""
    total = 0
    iterator = iter(iterator)
    while True:
        start = _now()
        try:
            item = next(iterator)
        except StopIteration:
            total += _now() - start
            rec.add_tally(name, total)
            return
        total += _now() - start
        yield item


# ----------------------------------------------------------------------
# Hook installation
# ----------------------------------------------------------------------
def install(rec: Recorder) -> List[str]:
    """Wrap the system's public layer boundaries; returns missing hooks.

    Must run before any fleet pool forks: workers inherit the wrapped
    functions.  Hot-path methods are patched on their classes so that
    the batched driver, which binds them once per runtime, captures the
    wrapped versions.
    """
    from repro.callstack.contexts import ContextInterner
    from repro.core.runtime import CSODRuntime
    from repro.core.sampling import SamplingManagementUnit
    from repro.core.watchpoints import WatchpointManagementUnit
    from repro.fleet import pool as pool_mod
    from repro.fleet.aggregate import FleetAggregator
    from repro.fleet.evidence_store import EvidenceStore
    from repro.fleet.runner import FleetCampaign
    from repro.machine.syscall_cost import EVENT_WATCHPOINT_BATCH
    from repro.oracle import harness, runner as oracle_runner
    from repro.perfmodel.costs import CSOD_OVERHEAD_EVENTS
    from repro.service.scheduler import WorkerSlots
    from repro.service.stream import EventBus
    from repro.triage import bugdb, clustering
    from repro.workloads.base import SimProcess, SyntheticBuggyApp

    missing: List[str] = []

    def patch(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(original))

    def span(name, **kw):
        return lambda fn: span_wrapper(rec, name, fn, **kw)

    def tally(name, **kw):
        return lambda fn: tally_wrapper(rec, name, fn, **kw)

    # --- worker side: one chunk, its executions, their layers ----------
    patch(pool_mod, "run_chunk", span(
        "fleet.worker.chunk", flush_in_worker=True,
        trace_of=lambda a, k: a[0][0].app if a and a[0] else ""))
    # The per-execution boundary is private; without it the exec-relative
    # metrics read 0 and results.json lists the hook as missing.
    patch(pool_mod, "_execute_one", span(
        "exec", trace_of=lambda a, k: a[0].app))
    patch(SimProcess, "__init__", span("workloads.process_init"))
    patch(SyntheticBuggyApp, "run", span("workloads.app_run"))

    overhead_events = tuple(CSOD_OVERHEAD_EVENTS) + (EVENT_WATCHPOINT_BATCH,)

    def runtime_init(original):
        @functools.wraps(original)
        def wrapped(self, machine, interposer, *args, **kwargs):
            frame = rec.open("core.runtime.init")
            try:
                original(self, machine, interposer, *args, **kwargs)
            finally:
                rec.close(frame)
            # The batched driver binds malloc/free per interposer instance
            # at preload, so they are rebound here, after preload.
            interposer.malloc = tally_wrapper(rec, "heap.malloc",
                                              interposer.malloc)
            interposer.free = tally_wrapper(rec, "heap.free",
                                            interposer.free)
        return wrapped

    patch(CSODRuntime, "__init__", runtime_init)

    def ledger_attrs(args, result):
        ledger = args[0].machine.ledger
        counts = ledger.counts()
        return {
            "modelled_ns": sum(ledger.nanos(e) for e in overhead_events),
            "context_lookups": counts.get("csod.context_lookup", 0),
            "watch_installs": counts.get("csod.watch_install", 0),
            "syscalls": sum(c for e, c in counts.items()
                            if e.startswith("syscall.")),
        }

    patch(CSODRuntime, "shutdown", span("core.runtime.shutdown",
                                        after=ledger_attrs))

    def records(original):
        @functools.wraps(original)
        def wrapped(self):
            return _timed_iterator(rec, "core.sampling.records_scan",
                                   original(self))
        return wrapped

    patch(SamplingManagementUnit, "records", records)
    patch(ContextInterner, "intern_keyed", tally("callstack.intern"))
    patch(WatchpointManagementUnit, "try_watch",
          tally("core.watchpoints.try_watch"))
    patch(pool_mod, "encode_chunk_outcome",
          tally("fleet.wire.encode", flush_in_worker=True))

    # --- coordinator side -----------------------------------------------
    patch(pool_mod, "decode_chunk_outcome", tally("fleet.wire.decode"))
    patch(pool_mod.FleetPool, "run_wave", span("fleet.pool.wave"))
    patch(pool_mod.FleetPool, "close", span(
        "fleet.pool.close",
        before=lambda a, k: {"retries": a[0].retries,
                             "timeouts": a[0].timeouts}))
    patch(pool_mod.FleetPool, "advance_evidence",
          span("fleet.evidence.advance"))

    def campaign_trace(args, kwargs):
        return kwargs.get("campaign_id") or ""

    patch(FleetCampaign, "__init__", span("fleet.campaign.setup",
                                          trace_of=campaign_trace))
    patch(FleetCampaign, "run_next_wave", span(
        "fleet.campaign.wave",
        trace_of=lambda a, k: a[0].campaign_id or "",
        before=lambda a, k: {"first": a[0].waves_done == 0}))
    patch(FleetCampaign, "finish", span(
        "fleet.campaign.finish",
        trace_of=lambda a, k: a[0].campaign_id or ""))
    patch(FleetAggregator, "merge_partial", span("fleet.aggregate.merge"))
    patch(EvidenceStore, "absorb", span(
        "fleet.evidence.absorb",
        after=lambda a, result: {"merged": len(result)}))

    for attr, name, kind in (
        ("generate", "oracle.generate", tally),
        ("observe_app", "oracle.observe", span),
        ("probe_invariants", "oracle.probe", span),
        ("attribute_fn", "oracle.attribute", span),
        ("evidence_converges", "oracle.converge", span),
        ("classify_csod_results", "oracle.classify", tally),
        ("build_scorecard", "oracle.scorecard", span),
    ):
        patch(oracle_runner, attr, kind(name))
    for arm, observe in list(harness.INLINE_OBSERVERS.items()):
        harness.INLINE_OBSERVERS[arm] = span_wrapper(
            rec, f"detectors.{arm}.observe", observe)

    patch(clustering, "cluster_reports", span("triage.cluster"))
    patch(bugdb.BugDatabase, "update", span("triage.bugdb_update"))
    patch(bugdb.BugDatabase, "record_detectors",
          span("triage.record_detectors"))

    patch(EventBus, "publish", span("service.publish"))
    patch(WorkerSlots, "acquire",
          lambda fn: async_span_wrapper(rec, "service.slot_wait", fn))
    return missing


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------
def load_spans(trace_dir: str) -> List[dict]:
    spans: List[dict] = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def duration(span: dict) -> int:
    return span["total_ns"] if span.get("tally") else (
        span["end_ns"] - span["start_ns"])


def self_ns(span: dict) -> int:
    """Duration minus the time covered by direct children."""
    return duration(span) - span["child_ns"]


def check_spans(spans: Iterable[dict]) -> List[str]:
    """Structural problems: dangling parents, negative self time."""
    spans = list(spans)
    ids = {(s["pid"], s["id"]) for s in spans if not s.get("tally")}
    problems = []
    for s in spans:
        if s["parent"] and (s["pid"], s["parent"]) not in ids:
            problems.append(f"{s['name']}: parent {s['parent']} missing "
                            f"in pid {s['pid']}")
        if self_ns(s) < 0:
            problems.append(f"{s['name']}: negative self time {self_ns(s)}")
    return problems


class SpanIndex:
    """Parent lookups over the spans of one run's measured window."""

    def __init__(self, spans: List[dict], window_start_ns: int = 0):
        # The set-up phase (warm-up job, server start) is traced too;
        # only records that begin inside the measured window count.
        self.spans = [s for s in spans
                      if s.get("start_ns", s.get("at_ns", 0)) >= window_start_ns]
        self.by_id = {(s["pid"], s["id"]): s for s in self.spans
                      if not s.get("tally")}

    def parent(self, span: dict) -> Optional[dict]:
        return self.by_id.get((span["pid"], span["parent"]))

    def ancestor(self, span: dict, name: str) -> Optional[dict]:
        """The nearest ancestor of ``span`` named ``name``."""
        node = self.parent(span)
        while node is not None and node["name"] != name:
            node = self.parent(node)
        return node

    def named(self, name: str, under: Optional[str] = None) -> List[dict]:
        return [s for s in self.spans if s["name"] == name
                and (under is None or self.ancestor(s, under) is not None)]


def _total(spans: Iterable[dict]) -> int:
    return sum(duration(s) for s in spans)


def _count(spans: Iterable[dict]) -> int:
    return sum(s.get("count", 1) for s in spans)


def _mean_ms(spans: List[dict]) -> float:
    return _total(spans) / len(spans) / 1e6 if spans else 0.0


def _per_call_us(spans: List[dict]) -> float:
    calls = _count(spans)
    return _total(spans) / calls / 1e3 if calls else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentile(values: List[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: List[dict], jobs: List[dict], workers: int,
                  window_start_ns: int,
                  overhead_frac: float) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``jobs`` are the traced child's measured jobs (client-side latency
    and, for the service, its submit/queue/event timings).  An *exec* is
    one fleet execution in a pool worker; exec-relative shares are of
    the summed exec wall.  Job-relative shares are of the summed job
    latency.  Layers a workload never enters read 0.
    """
    idx = SpanIndex(spans, window_start_ns)
    execs = idx.named("exec", under="fleet.worker.chunk")
    exec_keys = {(s["pid"], s["id"]) for s in execs}
    exec_ns = _total(execs)
    n_exec = len(execs)
    job_ns = sum(j["latency_s"] for j in jobs) * 1e9
    n_jobs = len(jobs)
    service = bool(idx.named("job.service"))

    def in_exec(name):
        found = []
        for s in idx.named(name):
            owner = s if name == "exec" else idx.ancestor(s, "exec")
            if owner is not None and (owner["pid"], owner["id"]) in exec_keys:
                found.append(s)
        return found

    init = in_exec("core.runtime.init")
    shutdown = in_exec("core.runtime.shutdown")
    scans = in_exec("core.sampling.records_scan")
    mallocs = in_exec("heap.malloc")
    frees = in_exec("heap.free")
    interns = in_exec("callstack.intern")
    watches = in_exec("core.watchpoints.try_watch")
    apps = in_exec("workloads.app_run")

    def ledger_sum(key):
        return sum(s.get("attrs", {}).get(key, 0) for s in shutdown)

    def job_share(name, under=None):
        return _share(_total(idx.named(name, under=under)), job_ns)

    def service_share(key):
        return _share(sum(j.get(key, 0.0) for j in jobs) * 1e9, job_ns)

    waves = idx.named("fleet.pool.wave")
    closes = idx.named("fleet.pool.close")
    first_waves = [s for s in idx.named("fleet.campaign.wave")
                   if s["attrs"]["first"]]
    exec_walls = sorted(duration(s) / 1e6 for s in execs)
    m = {
        "core.runtime.init_ms": _mean_ms(init),
        "core.runtime.init_share": _share(_total(init), exec_ns),
        "core.runtime.shutdown_ms": _mean_ms(shutdown),
        "core.sampling.records_scan_ms": _mean_ms(scans),
        "core.sampling.records_scan_share": _share(_total(scans), exec_ns),
        "heap.malloc_calls_per_exec": _share(_count(mallocs), n_exec),
        "heap.pair_us": _share(_total(mallocs) + _total(frees),
                               _count(mallocs)) / 1e3,
        "heap.share": _share(_total(mallocs) + _total(frees), exec_ns),
        "callstack.intern_calls_per_exec": _share(_count(interns), n_exec),
        "callstack.intern_us": _per_call_us(interns),
        "core.watchpoints.try_watch_calls_per_exec":
            _share(_count(watches), n_exec),
        "core.watchpoints.try_watch_share": _share(_total(watches), exec_ns),
        "workloads.process_init_share":
            _share(_total(in_exec("workloads.process_init")), exec_ns),
        "workloads.app_run_ms": _mean_ms(apps),
        "workloads.app_self_share":
            _share(sum(self_ns(s) for s in apps), exec_ns),
        "perfmodel.modelled_us_per_exec":
            _share(ledger_sum("modelled_ns"), n_exec) / 1e3,
        "perfmodel.context_lookups_per_exec":
            _share(ledger_sum("context_lookups"), n_exec),
        "perfmodel.watch_installs_per_exec":
            _share(ledger_sum("watch_installs"), n_exec),
        "perfmodel.syscalls_per_exec": _share(ledger_sum("syscalls"), n_exec),
        "fleet.pool.exec_wall_p50_ms": _percentile(exec_walls, 50),
        "fleet.pool.exec_wall_p95_ms": _percentile(exec_walls, 95),
        "fleet.pool.wave_ms": _mean_ms(waves),
        "fleet.pool.busy_frac": _share(exec_ns, workers * _total(waves)),
        "fleet.pool.close_ms": _mean_ms(closes),
        "fleet.pool.retries": sum(s["attrs"]["retries"] for s in closes),
        "fleet.pool.timeouts": sum(s["attrs"]["timeouts"] for s in closes),
        "fleet.campaign.setup_share": job_share("fleet.campaign.setup"),
        "fleet.campaign.first_wave_share": _share(_total(first_waves), job_ns),
        "fleet.campaign.finish_share": job_share("fleet.campaign.finish"),
        "fleet.wire.encode_us": _per_call_us(idx.named("fleet.wire.encode")),
        "fleet.wire.decode_us": _per_call_us(idx.named("fleet.wire.decode")),
        "fleet.aggregate.merge_ms":
            _mean_ms(idx.named("fleet.aggregate.merge")),
        "fleet.evidence.absorb_share": job_share("fleet.evidence.absorb"),
        "fleet.evidence.advance_share": job_share("fleet.evidence.advance"),
        "fleet.evidence.signatures_merged_per_job": _share(
            sum(s["attrs"]["merged"]
                for s in idx.named("fleet.evidence.absorb")), n_jobs),
        "oracle.generate_share": job_share("oracle.generate"),
        "oracle.observe_share": job_share("oracle.observe"),
        "oracle.probe_share": job_share("oracle.probe"),
        "oracle.attribute_share": job_share("oracle.attribute"),
        "oracle.converge_share": job_share("oracle.converge"),
        "oracle.classify_share": job_share("oracle.classify"),
        "oracle.scorecard_share": job_share("oracle.scorecard"),
        "oracle.fleet_wave_share": job_share("fleet.pool.wave",
                                             under="job.oracle"),
        "oracle.fp_programs": sum(j.get("fp_programs", 0) for j in jobs),
        "triage.cluster_share": job_share("triage.cluster"),
        "triage.bugdb_update_share": job_share("triage.bugdb_update"),
        "triage.record_detectors_share": job_share("triage.record_detectors"),
        "service.submit_share": service_share("submit_s"),
        "service.queue_wait_share": service_share("queue_wait_s"),
        "service.event_lag_share": service_share("event_lag_s"),
        "service.slot_wait_share": job_share("service.slot_wait"),
        "service.publish_share": job_share("service.publish"),
        "service.job_exec_share": _share(exec_ns, job_ns) if service else 0.0,
        "trace.overhead_frac": overhead_frac,
        "trace.exec_coverage": _share(sum(s["child_ns"] for s in execs),
                                      exec_ns),
        "trace.job_coverage": job_coverage(idx, jobs, service),
    }
    for arm in ("asan", "guardpage", "gwp-asan", "doubletake"):
        m[f"detectors.{arm}.observe_share"] = job_share(
            f"detectors.{arm}.observe")
    return m


def job_coverage(idx: SpanIndex, jobs: List[dict], service: bool) -> float:
    """Share of summed job latency that spans account for.

    In-process jobs (fleet, oracle) are ``job.*`` spans and their direct
    children cover them.  A service job is covered by its submit round
    trip, the server-side campaign spans carrying its job id, and the
    worker-slot waits between its waves.
    """
    if not service:
        job_spans = [s for s in idx.spans if s["name"].startswith("job.")]
        return _share(sum(s["child_ns"] for s in job_spans),
                      _total(job_spans))
    ids = {j["job_id"] for j in jobs}
    campaign = sum(duration(s) for s in idx.spans
                   if s["name"].startswith("fleet.campaign.")
                   and s["trace"] in ids)
    covered = (sum(j["submit_s"] for j in jobs) * 1e9 + campaign
               + _total(idx.named("service.slot_wait")))
    return min(1.0, _share(covered, sum(j["latency_s"] for j in jobs) * 1e9))
