"""Workload framework: simulated processes and synthetic buggy programs.

A :class:`SimProcess` bundles one machine with its heap and symbol
table — the "application + libc" a runtime library gets preloaded into.

A :class:`SyntheticBuggyApp` replays a deterministic *allocation
schedule* derived from a :class:`BuggyAppSpec`, whose fields mirror the
paper's Table III: total calling contexts, total allocations, how many
of each occur before the overflow access, where the overflowing object
is allocated, and the bug kind.  The schedule is fixed per application
(program logic does not change between runs); all run-to-run variation
comes from CSOD's own sampling RNG and the scheduler seed — exactly the
paper's setting, where each of the 1,000 executions re-ran the same
program on the same buggy input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.callstack.frames import CallSite, FrameChain
from repro.callstack.symbols import SymbolTable
from repro.errors import WorkloadError
from repro.heap.allocator import FreeListAllocator
from repro.heap.interpose import LibraryInterposer, RawHeap
from repro.machine.machine import DEFAULT_HEAP_BASE, DEFAULT_HEAP_SIZE, Machine
from repro.machine.threads import SimThread

KIND_OVER_READ = "over-read"
KIND_OVER_WRITE = "over-write"


class SimProcess:
    """One simulated process: machine + heap + symbols.

    ``allocator`` selects the baseline heap implementation — the
    first-fit free-list allocator (the default, glibc-like) or the
    segregated size-class allocator (tcmalloc-like).  CSOD interposes
    on either without knowing which: the paper's "no custom allocator"
    property.
    """

    ALLOCATORS = ("first_fit", "segregated")

    def __init__(
        self,
        seed: int = 0,
        heap_base: int = DEFAULT_HEAP_BASE,
        heap_size: int = DEFAULT_HEAP_SIZE,
        allocator: str = "first_fit",
    ):
        self.machine = Machine(seed=seed)
        arena = self.machine.map_heap_arena(heap_base, heap_size)
        if allocator == "first_fit":
            self.allocator = FreeListAllocator(arena.start, arena.size)
        elif allocator == "segregated":
            from repro.heap.segregated import SegregatedAllocator

            self.allocator = SegregatedAllocator(arena.start, arena.size)
        else:
            raise WorkloadError(
                f"unknown allocator {allocator!r}; expected one of "
                f"{self.ALLOCATORS}"
            )
        self.raw_heap = RawHeap(self.machine, self.allocator)
        self.heap = LibraryInterposer(self.raw_heap)
        self.symbols = SymbolTable()
        self.seed = seed

    @property
    def main_thread(self) -> SimThread:
        return self.machine.main_thread

    def spawn_thread(self, name: str = "") -> SimThread:
        """pthread_create: the runtime's thread hooks fire here."""
        return self.machine.threads.create(name)

    def register_sites(self, sites) -> None:
        self.symbols.add_all(sites)


@dataclass(frozen=True)
class AllocationEvent:
    """One allocation in a schedule.

    ``free_after`` is the (0-based) allocation index after which the
    object is freed; ``None`` leaves it alive until program end.
    """

    index: int
    context_id: int
    size: int
    free_after: Optional[int]
    is_victim: bool = False


@dataclass(frozen=True)
class BuggyAppSpec:
    """Structural description of one Table I/III application."""

    name: str
    bug_kind: str  # over-read / over-write
    vuln_module: str  # module containing the overflowing code
    reference: str  # BugBench / CVE id
    total_contexts: int
    total_allocations: int
    # Events that occur before the overflow access (Table III cols 4-5).
    before_contexts: int
    before_allocations: int
    # 1-based allocation index at which the overflowing object is
    # allocated; must be <= before_allocations.
    victim_alloc_index: int
    # How many allocations from the victim's own context occur before the
    # victim itself (shapes the context's watch probability).
    victim_context_prior_allocs: int = 0
    # Fraction of non-victim objects freed shortly after allocation;
    # drives watchpoint slot churn.
    churn: float = 0.0
    # How long a churned object lives, in subsequent allocations.
    churn_lifetime: int = 8
    # Bytes the overflow runs past the boundary (continuous overflows
    # touch the very next word; CSOD only detects continuous ones).
    overflow_length: int = 8
    # Where past the object the overflow STARTS.  0 = continuous (the
    # next byte).  A positive skip models the §VI limitation: "CSOD may
    # not be able to detect non-continuous overflows that skip the
    # addresses of installed watchpoints".
    overflow_skip: int = 0
    # Fixed seed for the *structure* (not the per-execution randomness).
    structural_seed: int = 1234
    # Stack depth of allocation contexts (affects backtrace costs).
    context_depth: int = 4
    # Virtual nanoseconds of application work between allocations.  This
    # is what lets time-based rules (watchpoint ageing, the throttle
    # window, reviving) engage the way they do on real runs: a server
    # that allocates for minutes ages its installed watchpoints, a
    # millisecond-long utility never does.
    work_ns_per_alloc: int = 0
    # How many leading objects are long-lived (they pin the naive
    # policy's watchpoints).  4 models programs whose startup objects
    # persist; 0 models allocate-free-loop programs like libdwarf.
    long_lived_first: int = 4
    # Per-execution jitter of the victim's position: the victim swaps
    # places with one of the next ``jitter`` allocations, chosen from the
    # run seed.  Models input/interleaving-driven variation in which of
    # several same-shaped early objects is the one that overflows.
    victim_position_jitter: int = 0
    # Server-style programs (memcached, mysql): the request-handling
    # worker thread performs the overflow, not the thread that allocated
    # the object.  Detection must not depend on this — CSOD arms every
    # watchpoint on every alive thread (Fig. 3).
    overflow_from_worker: bool = False

    def __post_init__(self):
        if self.bug_kind not in (KIND_OVER_READ, KIND_OVER_WRITE):
            raise WorkloadError(f"bad bug kind {self.bug_kind!r}")
        if not 1 <= self.before_contexts <= self.total_contexts:
            raise WorkloadError(f"{self.name}: bad before_contexts")
        if not 1 <= self.before_allocations <= self.total_allocations:
            raise WorkloadError(f"{self.name}: bad before_allocations")
        if not 1 <= self.victim_alloc_index <= self.before_allocations:
            raise WorkloadError(f"{self.name}: victim must precede the overflow")
        if not 0.0 <= self.churn <= 1.0:
            raise WorkloadError(f"{self.name}: churn must be a fraction")

    def scaled(self, factor: float) -> "BuggyAppSpec":
        """A structurally similar spec with allocation counts scaled down.

        Used by the 1,000-execution effectiveness runs for the largest
        applications (MySQL-scale full simulation is too slow to repeat
        a thousand times in pure Python).  Context counts scale with the
        square root so the allocations-per-context ratio shrinks more
        gently; positions scale proportionally.
        """
        if factor >= 1.0:
            return self
        if factor <= 0.0:
            raise WorkloadError("scale factor must be positive")

        def scale_allocs(value: int) -> int:
            return max(1, int(round(value * factor)))

        ctx_factor = factor**0.5
        total_ctx = max(1, int(round(self.total_contexts * ctx_factor)))
        before_ctx = min(
            total_ctx, max(1, int(round(self.before_contexts * ctx_factor)))
        )
        total_allocs = scale_allocs(self.total_allocations)
        before_allocs = min(total_allocs, scale_allocs(self.before_allocations))
        victim_index = min(
            before_allocs, max(1, int(round(self.victim_alloc_index * factor)))
        )
        return replace(
            self,
            total_contexts=max(total_ctx, before_ctx),
            total_allocations=max(total_allocs, before_allocs),
            before_contexts=before_ctx,
            before_allocations=before_allocs,
            victim_alloc_index=victim_index,
            victim_context_prior_allocs=min(
                self.victim_context_prior_allocs, max(0, victim_index - 1)
            ),
            # Keep the total virtual runtime (and therefore the ageing
            # and throttling dynamics) roughly invariant under scaling.
            work_ns_per_alloc=int(self.work_ns_per_alloc / factor),
        )


def build_schedule(spec: BuggyAppSpec) -> Tuple[List[AllocationEvent], int]:
    """Derive the deterministic allocation schedule from a spec.

    Returns (events, victim_event_index).  The schedule satisfies, by
    construction:

    * exactly ``before_contexts`` distinct contexts and
      ``before_allocations`` allocations occur up to the overflow access;
    * the victim is allocated at ``victim_alloc_index``;
    * the victim's context has ``victim_context_prior_allocs`` earlier
      allocations;
    * the remaining contexts/allocations happen after the access.
    """
    rng = random.Random(spec.structural_seed)
    victim_context = 0  # context 0 is the buggy one, by convention
    events: List[AllocationEvent] = []

    before = spec.before_allocations
    after = spec.total_allocations - before
    victim_pos = spec.victim_alloc_index - 1  # 0-based

    # --- contexts for the "before" phase --------------------------------
    context_sequence: List[Optional[int]] = [None] * before
    context_sequence[victim_pos] = victim_context

    # Prior allocations from the victim's context, placed before it.
    prior = min(spec.victim_context_prior_allocs, victim_pos)
    prior_slots = rng.sample(range(victim_pos), prior) if prior else []
    for slot in prior_slots:
        context_sequence[slot] = victim_context

    # Every "before" context appears at least once.
    other_before = [c for c in range(1, spec.before_contexts)]
    free_slots = [i for i, c in enumerate(context_sequence) if c is None]
    rng.shuffle(free_slots)
    if len(other_before) > len(free_slots):
        raise WorkloadError(
            f"{spec.name}: not enough allocations before the overflow to "
            f"cover {spec.before_contexts} contexts"
        )
    for context_id, slot in zip(other_before, free_slots):
        context_sequence[slot] = context_id
    # Remaining slots: weighted reuse of the before-contexts (heap-heavy
    # contexts exist in every real program).  The buggy context (0) is
    # excluded — its appearance count is controlled solely by
    # ``victim_context_prior_allocs``, because every extra watch of it
    # halves the victim's own sampling probability.
    before_pool = list(range(1, spec.before_contexts)) or [0]
    weights = [1.0 / (1 + i % 7) for i in range(len(before_pool))]
    for i, context_id in enumerate(context_sequence):
        if context_id is None:
            context_sequence[i] = rng.choices(before_pool, weights=weights)[0]

    # --- contexts for the "after" phase ---------------------------------
    # Contexts that only appear after the overflow.  Some specs (e.g.
    # Heartbleed's published numbers) name more late contexts than there
    # are late allocations; the surplus simply never materializes — one
    # allocation can only exercise one context.
    after_new = list(range(spec.before_contexts, spec.total_contexts))[:after]
    after_sequence: List[int] = []
    for i in range(after):
        if i < len(after_new):
            after_sequence.append(after_new[i])
        else:
            after_sequence.append(rng.choice(before_pool + after_new))

    # --- assemble events with lifetimes ---------------------------------
    full_sequence = context_sequence + after_sequence
    for index, context_id in enumerate(full_sequence):
        is_victim = index == victim_pos
        if is_victim:
            free_after = None  # the victim lives until the access
        elif index < spec.long_lived_first:
            # Leading long-lived objects fill the watchpoints under the
            # naive policy, which is what makes naive miss
            # late-allocated victims entirely (§V-A1).
            free_after = None
        elif rng.random() < spec.churn:
            free_after = index + 1 + rng.randrange(max(1, spec.churn_lifetime))
        else:
            free_after = None
        size = rng.choice((16, 24, 32, 48, 64, 96, 128, 256))
        events.append(
            AllocationEvent(
                index=index,
                context_id=context_id,
                size=size,
                free_after=free_after,
                is_victim=is_victim,
            )
        )
    return events, victim_pos


@dataclass
class RunResult:
    """What one execution of a buggy app produced."""

    victim_address: int
    victim_size: int
    overflow_performed: bool
    allocations: int
    contexts_touched: int


class SyntheticBuggyApp:
    """Replays a :class:`BuggyAppSpec` schedule against a process."""

    def __init__(self, spec: BuggyAppSpec):
        self.spec = spec
        self.events, self.victim_index = build_schedule(spec)
        self._sites_cache: Optional[Dict[int, List[CallSite]]] = None
        self._chains_cache: Optional[Dict[int, FrameChain]] = None
        # A _pre_access hook that moves or resizes the victim (realloc)
        # publishes the new (address, size) here; the injected access
        # and the RunResult then target the post-hook victim.  Reset at
        # the top of every run — apps are cached and reused.
        self._victim_override: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    # Program image
    # ------------------------------------------------------------------
    def _build_sites(self) -> Dict[int, List[CallSite]]:
        """One call chain per context: main -> ... -> allocation site.

        Context 0 (the buggy one) allocates inside ``vuln_module``; other
        contexts spread over the application's own modules.
        """
        sites: Dict[int, List[CallSite]] = {}
        depth = max(2, self.spec.context_depth)
        main = CallSite(self.spec.name.upper(), "main.c", 10, "main", frame_size=64)
        for context_id in range(self.spec.total_contexts):
            module = (
                self.spec.vuln_module
                if context_id == 0
                else f"{self.spec.name.upper()}/mod{context_id % 5}"
            )
            chain = [main]
            for level in range(1, depth - 1):
                chain.append(
                    CallSite(
                        module,
                        f"layer{level}.c",
                        100 + context_id * 10 + level,
                        f"ctx{context_id}_fn{level}",
                        frame_size=32 + 16 * (context_id % 3),
                    )
                )
            chain.append(
                CallSite(
                    module,
                    "alloc.c",
                    500 + context_id,
                    f"ctx{context_id}_alloc",
                    frame_size=48,
                )
            )
            sites[context_id] = chain
        # The overflow access site (e.g. the memcpy in t1_lib.c).
        self.access_site = CallSite(
            self.spec.vuln_module, "overflow.c", 42, "overflowing_statement",
            frame_size=32,
        )
        return sites

    def sites(self) -> Dict[int, List[CallSite]]:
        if self._sites_cache is None:
            self._sites_cache = self._build_sites()
        return self._sites_cache

    def chains(self) -> Dict[int, FrameChain]:
        """:meth:`sites` as frame chains, built once per app."""
        if self._chains_cache is None:
            self._chains_cache = {
                context_id: FrameChain.of(chain)
                for context_id, chain in self.sites().items()
            }
        return self._chains_cache

    def all_sites(self) -> List[CallSite]:
        flattened = []
        seen = set()
        for chain in self.sites().values():
            for site in chain:
                if site.return_address not in seen:
                    seen.add(site.return_address)
                    flattened.append(site)
        flattened.append(self.access_site)
        return flattened

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _events_for_run(self, run_seed: int) -> List[AllocationEvent]:
        """The schedule for one execution, with victim-position jitter.

        The structure is fixed; only which of a few interchangeable
        early objects turns out to be the overflowing one varies with
        the run seed (modelling input/interleaving variation).
        """
        jitter = self.spec.victim_position_jitter
        if jitter <= 0:
            return self.events
        rng = random.Random(run_seed * 2654435761 + self.spec.structural_seed)
        victim_pos = self.victim_index
        target = min(victim_pos + rng.randint(0, jitter), len(self.events) - 1)
        if target == victim_pos:
            return self.events
        events = list(self.events)
        a, b = events[victim_pos], events[target]
        events[victim_pos] = replace(
            b, index=a.index, is_victim=False, free_after=None
        )
        events[target] = replace(
            a, index=b.index, is_victim=True, free_after=None
        )
        return events

    def _pre_access(
        self,
        process: SimProcess,
        thread,
        heap,
        addresses: Dict[int, int],
        live: Dict[int, AllocationEvent],
    ) -> None:
        """Hook invoked once, immediately before the injected access.

        The base program does nothing here.  Generated oracle workloads
        override it to mutate heap state first — e.g. freeing the victim
        so the access becomes a use-after-free.  Implementations that
        free an object must also drop it from ``live`` so teardown does
        not free it twice.
        """

    def run(self, process: SimProcess) -> RunResult:
        """Execute the program once inside ``process``."""
        sites = self.sites()
        process.register_sites(self.all_sites())
        thread = process.main_thread
        heap = process.heap
        call_under = thread.call_stack.call_under
        chains = self.chains()
        cpu = process.machine.cpu
        events = self._events_for_run(process.seed)
        self._victim_override = None

        addresses: Dict[int, int] = {}
        live: Dict[int, AllocationEvent] = {}
        pending_frees: Dict[int, List[int]] = {}
        victim_address = -1
        victim_size = 0
        overflow_done = False

        # Server-style apps overflow from a worker thread that exists
        # from startup (the request handler); CSOD's pthread_create
        # interposition has armed every watchpoint on it.
        overflow_thread = thread
        if self.spec.overflow_from_worker:
            overflow_thread = process.spawn_thread("request-worker")

        def do_overflow() -> None:
            self._pre_access(process, overflow_thread, heap, addresses, live)
            if self.spec.overflow_length <= 0:
                # Heap-state-only defects (double-free) inject no
                # load/store; the _pre_access hook was the defect.
                return
            v_address, v_size = victim_address, victim_size
            if self._victim_override is not None:
                v_address, v_size = self._victim_override
            with overflow_thread.call_stack.calling(sites[0][0]):
                with overflow_thread.call_stack.calling(self.access_site):
                    boundary = v_address + v_size + self.spec.overflow_skip
                    if self.spec.bug_kind == KIND_OVER_READ:
                        cpu.load(
                            overflow_thread, boundary, self.spec.overflow_length
                        )
                    else:
                        junk = b"\xa5" * self.spec.overflow_length
                        cpu.store(overflow_thread, boundary, junk)

        quantum = process.machine.quantum
        for event in events:
            # Each replayed trace event is one scheduler quantum.
            quantum.advance()
            # Scheduled frees due before this allocation.
            for index in pending_frees.pop(event.index, []):
                address = addresses.pop(index, None)
                if address is not None and index in live:
                    del live[index]
                    heap.free(thread, address)
            # The allocation itself, under its context's call chain.
            address = call_under(
                chains[event.context_id], heap.malloc, thread, event.size
            )
            addresses[event.index] = address
            live[event.index] = event
            if self.spec.work_ns_per_alloc:
                process.machine.clock.advance(self.spec.work_ns_per_alloc)
            if event.free_after is not None:
                pending_frees.setdefault(event.free_after, []).append(event.index)
            if event.is_victim:
                victim_address = address
                victim_size = event.size
            # The overflow access fires right after the last "before"
            # allocation — the Table III position.
            if event.index + 1 == self.spec.before_allocations:
                do_overflow()
                overflow_done = True

        if not overflow_done:
            do_overflow()
            overflow_done = True

        # Program teardown: free everything still live (victim included,
        # which is what hands the canary checker its evidence).
        for index, address in sorted(addresses.items()):
            if index in live:
                heap.free(thread, address)
        if self._victim_override is not None:
            victim_address, victim_size = self._victim_override
        return RunResult(
            victim_address=victim_address,
            victim_size=victim_size,
            overflow_performed=overflow_done,
            allocations=len(events),
            contexts_touched=self.spec.total_contexts,
        )
