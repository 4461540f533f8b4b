"""Replayable heap traces for the performance applications.

A :class:`PerfApp` replays (a slice of) the application's allocation
trace at the application's *true allocation rate*: virtual time advances
by ``base_runtime / allocations`` per allocation, so rate-dependent
runtime rules — the 5,000-allocations-in-10-seconds throttle, watchpoint
ageing, reviving — engage exactly as they would over the full run.

Full-scale PARSEC traces (up to 48M allocations) are too large to replay
per-allocation in Python, so the replay is capped (default 20,000
events) and the overhead model extrapolates the per-allocation event
costs linearly — the scaling the paper itself asserts ("CSOD's overhead
is proportional to the number of allocations", §V-B).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.callstack.frames import CallSite, FrameChain
from repro.workloads.base import SimProcess
from repro.workloads.perf.specs import PerfAppSpec

DEFAULT_SIM_ALLOC_CAP = 20_000


@dataclass
class PerfRunMeasurement:
    """Everything one replay yields for the models."""

    spec: PerfAppSpec
    sim_allocations: int
    scale: float  # sim_allocations / spec.allocations
    watched_times: int
    contexts_seen: int
    replacements: int
    peak_live_blocks: int
    ledger_counts: Dict[str, int]
    ledger_nanos: Dict[str, int]

    def nanos(self, event: str) -> int:
        return self.ledger_nanos.get(event, 0)

    def count(self, event: str) -> int:
        return self.ledger_counts.get(event, 0)


@dataclass(frozen=True)
class _TraceEvent:
    context_id: int
    size: int
    free_after: Optional[int]


class PerfApp:
    """One Table IV application as a replayable trace."""

    def __init__(self, spec: PerfAppSpec, sim_alloc_cap: int = DEFAULT_SIM_ALLOC_CAP):
        self.spec = spec
        self.sim_allocations = min(spec.allocations, sim_alloc_cap)
        self.scale = self.sim_allocations / spec.allocations
        self._trace = self._build_trace()
        self._sites: Optional[Dict[int, List[CallSite]]] = None
        self._chains: Optional[Dict[int, FrameChain]] = None

    # ------------------------------------------------------------------
    # Trace construction
    # ------------------------------------------------------------------
    def _build_trace(self) -> List[_TraceEvent]:
        """A deterministic trace with zipf-skewed context reuse.

        Every context appears at least once (spread uniformly through
        the run, as programs discover code paths over time); remaining
        allocations reuse contexts with a 1/rank weight, giving the
        hot-context concentration that the throttle rule targets.
        """
        spec = self.spec
        rng = random.Random(spec.structural_seed)
        n = self.sim_allocations
        contexts = min(spec.contexts, n)
        sequence: List[Optional[int]] = [None] * n
        # First occurrences, spread through the run.
        stride = n / contexts
        for c in range(contexts):
            slot = int(c * stride)
            while sequence[slot] is not None:
                slot = (slot + 1) % n
            sequence[slot] = c
        weights = [1.0 / (rank + 1) for rank in range(contexts)]
        pool = list(range(contexts))
        filler = iter(rng.choices(pool, weights=weights, k=n))
        events: List[_TraceEvent] = []
        for i in range(n):
            context_id = sequence[i]
            if context_id is None:
                context_id = next(filler)
            if rng.random() < spec.churn:
                free_after = i + 1 + rng.randrange(max(1, spec.churn_lifetime))
            else:
                free_after = None
            size = rng.choice((16, 24, 32, 48, 64, 96, 128, 192, 256, 512))
            events.append(_TraceEvent(context_id, size, free_after))
        return events

    def _build_sites(self) -> Dict[int, List[CallSite]]:
        app = self.spec.name.upper()
        main = CallSite(app, "main.c", 1, "main", frame_size=64)
        sites: Dict[int, List[CallSite]] = {}
        contexts = min(self.spec.contexts, self.sim_allocations)
        for c in range(contexts):
            sites[c] = [
                main,
                CallSite(app, f"mod{c % 11}.c", 50 + c, f"fn_{c}", frame_size=48),
                CallSite(app, "alloc.c", 900 + c, f"alloc_{c}", frame_size=32),
            ]
        return sites

    def sites(self) -> Dict[int, List[CallSite]]:
        if self._sites is None:
            self._sites = self._build_sites()
        return self._sites

    def chains(self) -> Dict[int, FrameChain]:
        """:meth:`sites` as frame chains, built once per app."""
        if self._chains is None:
            self._chains = {
                c: FrameChain.of(chain) for c, chain in self.sites().items()
            }
        return self._chains

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def run(self, process: SimProcess, csod=None) -> PerfRunMeasurement:
        """Replay the trace; ``csod`` (if given) is read for WT stats."""
        spec = self.spec
        sites = self.sites()
        seen = set()
        for chain in sites.values():
            for site in chain:
                if site.return_address not in seen:
                    seen.add(site.return_address)
                    process.symbols.add(site)
        # The paper ran every workload with 16 threads; watchpoint
        # installation costs scale with the alive-thread count, and
        # allocations round-robin over the workers so each thread's
        # lock-free RNG stream (§III-A1's design point) is exercised.
        workers = [process.main_thread] + [
            process.spawn_thread(f"worker-{i}") for i in range(spec.threads - 1)
        ]
        heap = process.heap
        chains = self.chains()
        clock = process.machine.clock
        work_ns = spec.work_ns_per_alloc

        addresses: Dict[int, int] = {}
        owners: Dict[int, object] = {}
        pending: Dict[int, List[int]] = {}
        quantum = process.machine.quantum
        for index, event in enumerate(self._trace):
            # Each replayed trace event is one scheduler quantum.
            quantum.advance()
            thread = workers[index % len(workers)]
            for j in pending.pop(index, ()):
                address = addresses.pop(j, None)
                if address is not None:
                    heap.free(owners.pop(j), address)
            address = thread.call_stack.call_under(
                chains[event.context_id], heap.malloc, thread, event.size
            )
            addresses[index] = address
            owners[index] = thread
            if event.free_after is not None:
                pending.setdefault(event.free_after, []).append(index)
            clock.advance(work_ns)
        for index in sorted(addresses):
            heap.free(owners[index], addresses[index])

        stats = csod.stats() if csod is not None else None
        return PerfRunMeasurement(
            spec=spec,
            sim_allocations=self.sim_allocations,
            scale=self.scale,
            watched_times=stats.watched_times if stats else 0,
            contexts_seen=stats.contexts if stats else len(sites),
            replacements=stats.replacements if stats else 0,
            peak_live_blocks=process.allocator.stats.peak_live_blocks,
            ledger_counts=process.machine.ledger.counts(),
            ledger_nanos={
                event: process.machine.ledger.nanos(event)
                for event in process.machine.ledger.counts()
            },
        )
