"""The batched per-allocation driver (``CSODConfig.hotpath="batched"``).

:class:`FastAllocDealloc` replaces the unit-by-unit dispatch of
:class:`~repro.core.monitor.AllocDeallocMonitoringUnit` with one flat
routine per operation.  The simulated machine behaves identically — the
same context records mutate through the same rules, the same RNG streams
are consumed in the same order, the same debug registers arm, and the
cost ledger receives the same counts and nanoseconds — but the Python
work per interposed call collapses:

* every per-rule call is inlined into one flat body per driver — the
  sampler rules are inlined copies of :mod:`repro.core.sampling`'s spec
  functions, and ``tests/core/test_fastpath_spec.py`` checks them
  against the spec after every step;
* runs of ledger records with no observation point between them are
  charged as precompiled
  :class:`~repro.machine.syscall_cost.CostBundle`\\ s, tallied into the
  ledger's deferred-bundle map;
* the drivers are *compiled closures* — ``_compile`` builds
  ``malloc``/``free`` functions whose unit state, configuration
  constants, and container methods are all closure locals, erasing the
  per-call attribute traffic of a bound-method implementation;
* header/canary words are written and read straight into the address
  space's page ``bytearray``\\ s when the block sits in the hot region;
* the first-fit allocator's hot bodies are inlined when the baseline
  heap is the stock :class:`~repro.heap.allocator.FreeListAllocator`;
* watched-object / perf-event / watchpoint shells are pooled: a clean
  free returns the three fully detached objects to per-driver free
  lists and the next installation re-initializes every field, so the
  steady state allocates no Python objects at all.

Fusion safety.  The virtual clock is readable at four points inside an
allocation (the throttle window, the revive rule, the sampling draw, and
the installation timestamp) and at one point inside a corrupted-canary
deallocation (the report timestamp).  Every fused run below lies
strictly between two such observation points, so the clock value at each
observation — and therefore every time-dependent decision — is identical
to the legacy path's.  Deferred tallies are order-free entirely: only
the clock adds must land at the right points, which lets one tally cover
charge runs on both sides of an observation.
``tests/integration/test_hotpath_equivalence.py`` pins this end to end.

The fast driver covers the paper's full configuration (evidence and
watchpoints enabled).  Other configurations, and instrumentation that
monkeypatches the individual unit methods (the oracle's invariant
probes), use the legacy driver.
"""

from __future__ import annotations

from struct import error as _struct_error

from repro.callstack.backtrace import PEEK_COST_NS
from repro.callstack.contexts import ContextKey
from repro.core.canary import CANARY_CHECK_COST_NS, CANARY_SET_COST_NS
from repro.core.monitor import AllocDeallocMonitoringUnit
from repro.core.policies import ReplacementPolicy
from repro.core.reporting import (
    KIND_OVER_WRITE,
    OverflowReport,
    SOURCE_FREE_CANARY,
)
from repro.core.rng import RNG_DRAW_COST_NS, _UNIFORM_SCALE
from repro.core.context_key import LOOKUP_COST_NS
from repro.core.sampling import revive_period_ns, throttle_window_ns
from repro.core.watchpoints import WatchedObject
from repro.errors import (
    DebugRegisterError,
    DoubleFreeError,
    InvalidFreeError,
    OutOfMemoryError,
)
from repro.heap.allocator import FreeListAllocator
from repro.machine.address_space import _PACK_WORD, _WORD_STRUCTS
from repro.machine.debug_registers import (
    FastWatchpoint,
    NUM_USABLE_DEBUG_REGISTERS,
)
from repro.heap.interpose import FREE_COST_NS, MALLOC_COST_NS
from repro.heap.layout import (
    CANARY_SIZE,
    CSOD_HEADER_SIZE,
    HEADER_IDENTIFIER,
)
from repro.machine.perf_events import (
    _INSTALL_BUNDLE,
    _REMOVE_BUNDLE,
    HW_BREAKPOINT_RW,
    PerfEvent,
    PerfEventAttr,
)
from repro.machine.signals import SIGTRAP
from repro.machine.syscall_cost import (
    CostBundle,
    EVENT_CANARY_CHECK,
    EVENT_CANARY_SET,
    EVENT_CONTEXT_LOOKUP,
    EVENT_FREE,
    EVENT_MALLOC,
    EVENT_RNG_DRAW,
    EVENT_WATCH_INSTALL,
    EVENT_WATCH_REMOVE,
)
from repro.machine.threads import SimThread

# Fused charge runs.  Each bundle spans ledger records that the legacy
# path emits back to back with no clock observation in between.
_PEEK_LOOKUP = CostBundle(
    (
        ("callstack.peek", 1, PEEK_COST_NS),
        (EVENT_CONTEXT_LOOKUP, 1, LOOKUP_COST_NS),
    )
)
_MALLOC_CANARY = CostBundle(
    (
        (EVENT_MALLOC, 1, MALLOC_COST_NS),
        (EVENT_CANARY_SET, 1, CANARY_SET_COST_NS),
    )
)
_CHECK_FREE = CostBundle(
    (
        (EVENT_CANARY_CHECK, 1, CANARY_CHECK_COST_NS),
        (EVENT_FREE, 1, FREE_COST_NS),
    )
)
_RNG_DRAW_ONLY = CostBundle(((EVENT_RNG_DRAW, 1, RNG_DRAW_COST_NS),))
# Every malloc charges peek+lookup and then malloc+canary-set; the
# *tally* is order-free (only the clock adds must land at the right
# observation points), so both runs fold into one deferred entry.
_MALLOC_COMMON = _PEEK_LOOKUP.merged(_MALLOC_CANARY)
# Precomputed clock charges for the inline bundle tallies below.
_PEEK_LOOKUP_NS = _PEEK_LOOKUP.total_nanos
_MALLOC_CANARY_NS = _MALLOC_CANARY.total_nanos
_CHECK_FREE_NS = _CHECK_FREE.total_nanos
_RNG_DRAW_NS = _RNG_DRAW_ONLY.total_nanos
# Zero-cost marker events, merged into the scaled syscall bundles so an
# install (or a clean watched free) is one ledger application total.
_WATCH_INSTALL_ONLY = CostBundle(((EVENT_WATCH_INSTALL, 1, 0),))
_WATCH_REMOVE_ONLY = CostBundle(((EVENT_WATCH_REMOVE, 1, 0),))
# Clean watched free: remove syscalls (scaled per thread) + watch-remove
# marker + canary check + libc free, all between two observation points.
_REMOVE_CHECK_FREE_TAIL = _WATCH_REMOVE_ONLY.merged(_CHECK_FREE)

# Per-alive-thread-count caches for the fused install / watched-free
# charges.  n == 0 (no alive threads holds fds) charges the markers only,
# matching the legacy early-return in ``remove_fast``.
_INSTALL_FULL: dict = {}
_FREE_WATCHED_CLEAN: dict = {0: _REMOVE_CHECK_FREE_TAIL}
_REMOVE_WATCHED: dict = {0: _WATCH_REMOVE_ONLY}

# Whole-malloc deferred tallies: every successful malloc tallies exactly
# ONE pending entry — (peek+lookup+malloc+canary-set), optionally merged
# with the sampling draw and the per-thread install syscalls.  Tallies
# are order-free, so a single entry per call is equivalent to the legacy
# record sequence as long as each clock add lands at its observation
# point (which the drivers do separately).
_M_DRAW = _MALLOC_COMMON.merged(_RNG_DRAW_ONLY)
_M_INSTALL: dict = {}
_M_DRAW_INSTALL: dict = {}
# Legacy charges peek+lookup+malloc and *not* the canary set before the
# allocator raises OOM; this bundle makes the fast path's unwind
# charge-exact.
_OOM_MALLOC = _PEEK_LOOKUP.merged(
    CostBundle(((EVENT_MALLOC, 1, MALLOC_COST_NS),))
)


def _install_bundle_for(n: int) -> CostBundle:
    bundle = _INSTALL_FULL.get(n)
    if bundle is None:
        bundle = _INSTALL_FULL[n] = _INSTALL_BUNDLE.scaled(n).merged(
            _WATCH_INSTALL_ONLY
        )
    return bundle


def _free_clean_bundle_for(n: int) -> CostBundle:
    bundle = _FREE_WATCHED_CLEAN.get(n)
    if bundle is None:
        bundle = _FREE_WATCHED_CLEAN[n] = _REMOVE_BUNDLE.scaled(n).merged(
            _REMOVE_CHECK_FREE_TAIL
        )
    return bundle


def _remove_bundle_for(n: int) -> CostBundle:
    bundle = _REMOVE_WATCHED.get(n)
    if bundle is None:
        bundle = _REMOVE_WATCHED[n] = _REMOVE_BUNDLE.scaled(n).merged(
            _WATCH_REMOVE_ONLY
        )
    return bundle


def _malloc_install_entry_for(n: int, drawn: bool):
    """(whole-call bundle, install-only nanos) for an installing malloc.

    The bundle tallies peek+lookup+malloc+canary-set (+draw) and the
    n-thread install syscalls as one pending entry; the second element
    is the clock charge still owed at the install point (the earlier
    phases already advanced the clock at their own points).
    """
    cache = _M_DRAW_INSTALL if drawn else _M_INSTALL
    entry = cache.get(n)
    if entry is None:
        base = _M_DRAW if drawn else _MALLOC_COMMON
        inst = _install_bundle_for(n)
        entry = cache[n] = (base.merged(inst), inst.total_nanos)
    return entry


class FastAllocDealloc(AllocDeallocMonitoringUnit):
    """Flat malloc/free drivers over the shared unit state.

    ``__init__`` compiles the two drivers into closures and binds them
    as the instance's ``malloc``/``free`` attributes (shadowing the
    inherited methods).  ``memalign`` and ``usable_size`` (cold paths)
    inherit the legacy implementations; they mutate the same state the
    fast paths read, so interleavings stay coherent.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not (self._config.evidence_enabled and self._config.watchpoints_enabled):
            raise ValueError(
                "the batched hot path covers the full configuration only"
            )
        if NUM_USABLE_DEBUG_REGISTERS != 4:
            raise ValueError(
                "the unrolled free-slot scan assumes 4 debug registers"
            )
        sampling = self._sampling
        # Unit internals, hoisted once.  The fast drivers and the legacy
        # units share this state, so cold paths (memalign, the signal
        # handler, exit sweeps) interleave correctly with hot ones.
        self._ledger = self._canary._ledger
        self._memory = self._canary._machine.memory
        self._allocator = self._raw.allocator
        self._interner = sampling._interner
        self._table = sampling._table
        self._thread_cache = sampling._thread_cache
        self._batched_syscalls = self._config.batched_syscalls
        self._clock_obj = self._clock
        self._streams = {}
        # tid -> bound ``uniform`` of that thread's stream: one dict get
        # per draw instead of two lookups and a method hop.
        self._uniforms = {}
        wmu = self._wmu
        self._perf = wmu._perf
        # The base-class ``on_freed`` is a no-op in every shipped policy;
        # skip the call entirely unless a policy actually overrides it.
        policy = wmu._policy
        self._policy_on_freed = (
            None
            if type(policy).on_freed is ReplacementPolicy.on_freed
            else policy.on_freed
        )
        self.malloc, self.free = self._compile()

    def _stream(self, tid: int):
        stream = self._streams.get(tid)
        if stream is None:
            stream = self._streams[tid] = self._rng.stream(tid)
        return stream

    def _uniform_fn(self, tid: int):
        fn = self._uniforms.get(tid)
        if fn is None:
            fn = self._uniforms[tid] = self._stream(tid).uniform
        return fn

    # ------------------------------------------------------------------
    # Driver compilation
    # ------------------------------------------------------------------
    def _compile(self):
        """Build the malloc/free closures over hoisted unit state.

        Every name the hot loops touch resolves as a closure variable:
        configuration constants, the shared mutable containers (which
        their owners only ever mutate in place, never rebind), and the
        bound methods of the cold fallbacks.  The containers are the
        *same objects* the legacy units use, so cold paths interleave
        coherently with the compiled drivers.
        """
        unit = self
        sampling = self._sampling
        interner = self._interner
        table = self._table
        intern_keyed = interner.intern_keyed
        get_uncharged = table.get_uncharged
        table_put = table.put
        new_record = sampling._new_record
        thread_cache = self._thread_cache
        tc_get = thread_cache.get

        ledger = self._ledger
        ledger_record = ledger.record
        charge_bundle = ledger.charge_bundle
        pending = ledger._pending
        pget = pending.get
        lclk = ledger._clock
        clock = self._clock_obj

        config = self._config
        floor = config.floor_probability
        degradation = config.degradation_per_alloc
        throttle_threshold = config.throttle_alloc_threshold
        throttle_probability = config.throttle_probability
        window_ns = throttle_window_ns(config)
        revive_ns = revive_period_ns(config)
        revive_chance = config.revive_chance
        revive_probability = config.revive_probability
        watch_factor = config.watch_degradation_factor
        batched = self._batched_syscalls

        canary = self._canary
        canary_value = canary.canary_value
        addr_slot = canary._addr_slot
        addr_slot_get = addr_slot.get
        slot_addr = canary._slot_addr
        slot_size = canary._slot_size
        slot_real = canary._slot_real
        slot_record = canary._slot_record
        free_slots = canary._free_slots

        mem = self._memory
        pages = mem._pages
        pages_get = pages.get
        w_words = mem.write_words
        w_word = mem.write_word
        r_words = mem.read_words
        r_word = mem.read_word
        pack4 = _WORD_STRUCTS[4].pack_into
        pack1 = _PACK_WORD.pack_into
        unpack1 = _PACK_WORD.unpack_from

        allocator = self._allocator
        alloc_malloc = allocator.malloc
        alloc_free = allocator.free
        raw_free = self._raw.free
        # The stock first-fit allocator's hot bodies inline into the
        # drivers (bit-identical list/stats surgery); any other
        # allocator (e.g. segregated) goes through its own methods.
        inline_alloc = type(allocator) is FreeListAllocator
        if inline_alloc:
            a_free_list = allocator._free
            a_live = allocator._live
            a_live_pop = a_live.pop
            a_freed_once = allocator._freed_once
            a_freed_add = a_freed_once.add
            a_freed_discard = a_freed_once.discard
            a_stats = allocator.stats
        else:
            a_free_list = a_live = a_live_pop = None
            a_freed_once = a_freed_add = a_freed_discard = a_stats = None

        wmu = self._wmu
        wslots = wmu._slots
        by_address = wmu._by_address
        by_address_pop = by_address.pop
        alive_cached = wmu.alive_threads_cached
        alive_tids = wmu.alive_tids
        try_watch = wmu.try_watch
        wmu_remove = wmu._remove
        perf = self._perf
        events = perf._events
        events_pop = events.pop
        next_fd = perf._fds.__next__
        batch_install = perf.batch_install
        # Thread objects are never removed from the registry (exit only
        # marks them dead), so fds' tids always resolve directly.
        registry = wmu._threads._threads
        on_freed_hook = self._policy_on_freed
        boost = sampling.boost_to_certain
        sink = self._sink

        streams_get = self._streams.get
        stream_for = self._stream
        uniforms_get = self._uniforms.get
        uniform_fn = self._uniform_fn

        hdr_size = CSOD_HEADER_SIZE
        wrap_extra = CSOD_HEADER_SIZE + CANARY_SIZE
        identifier = HEADER_IDENTIFIER
        # One-entry attr cache: allocation-dense workloads re-wrap the
        # same (address, size) over and over, and PerfEventAttr is
        # frozen, so sharing one instance across installs is safe.
        attr_addr = -1
        attr_obj = None
        # Recycled shells for the three per-installation objects.  A
        # clean (non-batched) free fully detaches all three — fds
        # cleared, events popped and closed, registers disarmed — so
        # the next installation can overwrite every field in place.
        # Pool sizes are naturally capped: a push only follows a pop (or
        # a construction that happened because the pool was empty), so a
        # pool never exceeds the peak number of concurrently installed
        # objects/events — at most four slots across all threads.
        wo_pool: list = []
        ev_pool: list = []
        wp_pool: list = []

        def malloc(thread: SimThread, size: int) -> int:
            nonlocal attr_addr, attr_obj
            unit.allocation_count += 1
            tid = thread.tid
            stack = thread.call_stack

            # --- sampling.on_allocation, flattened ---------------------
            # One return-address peek + one hash-table lookup; the costs
            # fuse because the first clock observation (the throttle
            # rule) comes after both.  The tally itself is deferred into
            # the ``_MALLOC_COMMON`` entry below — only the clock must
            # advance here, before the throttle rule reads it.
            frames = stack._frames
            first_ra = frames[-1].site.return_address if frames else 0
            offset = stack._offset
            # ``cnow`` carries the virtual-clock value through the call:
            # nothing else can advance the clock between this driver's
            # own charge points, so each observation reads the local and
            # each charge is one add + one store.  Without a charging
            # clock the value is simply constant for the whole call.
            if lclk is not None:
                cnow = lclk._now_ns + _PEEK_LOOKUP_NS
                lclk._now_ns = cnow
            else:
                cnow = clock._now_ns
            cached = tc_get(tid)
            if cached is not None and cached[0] == first_ra and cached[1] == offset:
                record = cached[2]
                # interner.note_hit + table.charge_hit bookkeeping, inline.
                interner.hits += 1
                if cached[3] != len(frames):
                    interner.collisions_possible += 1
                table.lock_acquisitions += 1
                table.chain_walk_steps += 1
            else:
                key = ContextKey(first_level_ra=first_ra, stack_offset=offset)
                context = intern_keyed(key, stack)
                record = get_uncharged(key)
                if record is None:
                    record = new_record(key, context)
                    table_put(key, record)
                thread_cache[tid] = (
                    first_ra,
                    offset,
                    record,
                    len(record.context.return_addresses),
                )
                # Interning a new context charges the clock internally
                # (backtrace walk, context creation), so the carried
                # value is stale on this cold path — re-read it before
                # the throttle rule observes it.
                if lclk is not None:
                    cnow = lclk._now_ns
            sampling.total_allocations_seen += 1
            record.allocation_count += 1
            pinned = record.overflow_observed
            if not pinned:
                # Degradation on each allocation.
                probability = record.probability - degradation
                record.probability = floor if probability < floor else probability
                # Throttle window ([start, start + window), half-open).
                now = cnow
                if now - record.window_start_ns >= window_ns:
                    record.window_start_ns = now
                    record.window_alloc_count = 1
                else:
                    record.window_alloc_count += 1
                if (
                    record.window_alloc_count > throttle_threshold
                    and record.throttled_until_ns <= now
                ):
                    record.throttled_until_ns = record.window_start_ns + window_ns
                    record.probability = floor
                # Reviving.
                if record.probability > floor:
                    record.floor_since_ns = -1
                else:
                    floor_since = record.floor_since_ns
                    if floor_since < 0:
                        record.floor_since_ns = now
                    elif now - floor_since >= revive_ns:
                        record.floor_since_ns = now
                        pending[_RNG_DRAW_ONLY] = pget(_RNG_DRAW_ONLY, 0) + 1
                        if lclk is not None:
                            cnow += _RNG_DRAW_NS
                            lclk._now_ns = cnow
                        ufn = uniforms_get(tid)
                        if ufn is None:
                            ufn = uniform_fn(tid)
                        if ufn() < revive_chance:
                            record.probability = revive_probability

            # --- canary wrap (raw malloc + header + canary) -------------
            # The libc-malloc and canary-set costs fuse with the peek
            # and lookup above into the single whole-call tally applied
            # at the end of the call; only the clock add (below, after a
            # successful allocation) must precede the next observation —
            # the sampling draw's throttle check.
            wrap = wrap_extra + size
            if inline_alloc and wrap > 0:
                # FreeListAllocator.malloc, inlined (first-fit with
                # split; identical list and stats surgery).
                block_size = (wrap + 15) & -16
                real = -1
                i = 0
                n_extents = len(a_free_list)
                while i < n_extents:
                    se = a_free_list[i]
                    extent = se[1]
                    if extent >= block_size:
                        start = se[0]
                        remainder = extent - block_size
                        if remainder:
                            a_free_list[i] = (start + block_size, remainder)
                        else:
                            del a_free_list[i]
                        a_live[start] = block_size
                        a_freed_discard(start)
                        a_stats.total_allocations += 1
                        live_bytes = a_stats.live_bytes + block_size
                        a_stats.live_bytes = live_bytes
                        live_blocks = a_stats.live_blocks + 1
                        a_stats.live_blocks = live_blocks
                        if live_bytes > a_stats.peak_live_bytes:
                            a_stats.peak_live_bytes = live_bytes
                        if live_blocks > a_stats.peak_live_blocks:
                            a_stats.peak_live_blocks = live_blocks
                        real = start
                        break
                    i += 1
                if real < 0:
                    # Legacy charges peek+lookup+malloc (no canary set)
                    # before the allocator raises; stay charge-exact.
                    pending[_OOM_MALLOC] = pget(_OOM_MALLOC, 0) + 1
                    if lclk is not None:
                        lclk._now_ns = cnow + MALLOC_COST_NS
                    raise OutOfMemoryError(wrap)
            else:
                try:
                    real = alloc_malloc(wrap)
                except OutOfMemoryError:
                    pending[_OOM_MALLOC] = pget(_OOM_MALLOC, 0) + 1
                    if lclk is not None:
                        lclk._now_ns = cnow + MALLOC_COST_NS
                    raise
            if lclk is not None:
                cnow += _MALLOC_CANARY_NS
                lclk._now_ns = cnow
            object_address = real + hdr_size
            canary_address = object_address + size
            # The Fig. 5 header + canary stores, written straight into
            # the page bytearrays when the whole wrapped block sits in
            # the hot region (the address-space fast path, inlined).
            if mem._hot_start <= real and canary_address + 8 <= mem._hot_end:
                pi = -1
                page = None
                off = real & 4095
                if off <= 4064:
                    pi = real >> 12
                    page = pages_get(pi)
                    if page is None:
                        page = pages[pi] = bytearray(4096)
                    try:
                        pack4(page, off, real, size, first_ra, identifier)
                    except _struct_error:
                        # Out-of-range word (e.g. a synthetic negative
                        # return address): the byte path masks it.
                        w_words(real, (real, size, first_ra, identifier))
                else:
                    w_words(real, (real, size, first_ra, identifier))
                off = canary_address & 4095
                if off <= 4088:
                    ci = canary_address >> 12
                    if ci != pi:
                        page = pages_get(ci)
                        if page is None:
                            page = pages[ci] = bytearray(4096)
                    pack1(page, off, canary_value)
                else:
                    w_word(canary_address, canary_value)
            else:
                w_words(real, (real, size, first_ra, identifier))
                w_word(canary_address, canary_value)
            # Header-table slot acquisition (index-addressed, no
            # per-allocation record objects).
            if free_slots:
                slot = free_slots.pop()
                slot_addr[slot] = object_address
                slot_size[slot] = size
                slot_real[slot] = real
                slot_record[slot] = record
            else:
                slot = len(slot_addr)
                slot_addr.append(object_address)
                slot_size.append(size)
                slot_real.append(real)
                slot_record.append(record)
            addr_slot[object_address] = slot

            # --- sampling draw (should_watch) ---------------------------
            # The draw's ledger count folds into the whole-call tally
            # below (``drawn`` selects the bundle); only the clock add
            # happens here, before the install timestamp is read.
            drawn = False
            if pinned:
                draw_passed = True
            else:
                if record.throttled_until_ns > cnow:
                    probability = throttle_probability
                else:
                    probability = record.probability
                if probability >= 1.0:
                    draw_passed = True
                else:
                    drawn = True
                    if lclk is not None:
                        cnow += _RNG_DRAW_NS
                        lclk._now_ns = cnow
                    # One buffered draw, inline (rng.uniform's body:
                    # blocks grow from a few values up to
                    # DRAW_BLOCK_SIZE, so test against this block's
                    # length).
                    s = streams_get(tid)
                    if s is None:
                        s = stream_for(tid)
                    pos = s._pos
                    block = s._block
                    if pos >= len(block):
                        s._refill()
                        pos = 0
                        block = s._block
                    s._pos = pos + 1
                    draw_passed = (block[pos] >> 11) * _UNIFORM_SCALE < probability

            # --- watchpoint installation --------------------------------
            if wslots[0] is None:
                free_index = 0
            elif wslots[1] is None:
                free_index = 1
            elif wslots[2] is None:
                free_index = 2
            elif wslots[3] is None:
                free_index = 3
            else:
                free_index = -1
            if free_index >= 0:
                # "Installation due to availability": a free debug
                # register is used whether or not the draw passed.
                watch_address = canary_address
                now = cnow
                if pinned:
                    install_probability = 1.0
                elif record.throttled_until_ns > now:
                    install_probability = throttle_probability
                else:
                    install_probability = record.probability
                if wo_pool:
                    watched = wo_pool.pop()
                    watched.object_address = object_address
                    watched.object_size = size
                    watched.watch_address = watch_address
                    watched.record = record
                    watched.install_time_ns = now
                    watched.install_probability = install_probability
                    watched.slot_index = free_index
                else:
                    watched = WatchedObject(
                        object_address,
                        size,
                        watch_address,
                        record,
                        now,
                        install_probability,
                        free_index,
                    )
                if attr_addr != watch_address:
                    attr_obj = PerfEventAttr(
                        bp_type=HW_BREAKPOINT_RW, bp_addr=watch_address
                    )
                    attr_addr = watch_address
                attr = attr_obj
                if batched:
                    mb = _M_DRAW if drawn else _MALLOC_COMMON
                    pending[mb] = pget(mb, 0) + 1
                    watched.fds = batch_install(attr, alive_tids(), SIGTRAP)
                    ledger_record(EVENT_WATCH_INSTALL)
                else:
                    # The Fig. 3 sequence per alive thread, fully
                    # inlined: fd allocation, event bookkeeping, and
                    # debug-register arming — tallied together with the
                    # whole call as ONE pending entry (six syscalls per
                    # thread + the zero-cost install marker + the
                    # peek/lookup/malloc/canary[/draw] phases above).
                    if wmu._alive_tids is None:
                        alive_cached()
                    alive = wmu._alive_list
                    n_alive = len(alive)
                    cache = _M_DRAW_INSTALL if drawn else _M_INSTALL
                    entry = cache.get(n_alive)
                    if entry is None:
                        entry = _malloc_install_entry_for(n_alive, drawn)
                    bundle, inst_ns = entry
                    pending[bundle] = pget(bundle, 0) + 1
                    if lclk is not None:
                        lclk._now_ns = cnow + inst_ns
                    fds = watched.fds
                    for th in alive:
                        tid_t = th.tid
                        fd = next_fd()
                        if ev_pool:
                            event = ev_pool.pop()
                            event.fd = fd
                            event.closed = False
                            if event.tid != tid_t or event.attr is not attr:
                                event.attr = attr
                                event.tid = tid_t
                                event.signo = SIGTRAP
                                event.owner_tid = tid_t
                                event.async_notify = True
                        else:
                            event = PerfEvent(fd, attr, tid_t, SIGTRAP, tid_t, True)
                        events[fd] = event
                        regs = th.debug_registers._slots
                        if wp_pool:
                            watchpoint = wp_pool.pop()
                            watchpoint.address = watch_address
                            watchpoint.cookie = fd
                        else:
                            watchpoint = FastWatchpoint(watch_address, fd)
                        if regs[0] is None:
                            regs[0] = watchpoint
                        elif regs[1] is None:
                            regs[1] = watchpoint
                        elif regs[2] is None:
                            regs[2] = watchpoint
                        elif regs[3] is None:
                            regs[3] = watchpoint
                        else:
                            raise DebugRegisterError(
                                "all usable debug registers are armed"
                            )
                        event.enabled = True
                        fds[tid_t] = fd
                wslots[free_index] = watched
                by_address[object_address] = watched
                # sampling.on_watched, inline: halve after each watch.
                record.watch_count += 1
                if not pinned:
                    probability = record.probability * watch_factor
                    record.probability = (
                        floor if probability < floor else probability
                    )
                wmu.install_count += 1
            else:
                # No free register: tally the whole-call bundle, then
                # let the replacement policy decide (it charges its own
                # syscalls through the legacy units).
                mb = _M_DRAW if drawn else _MALLOC_COMMON
                pending[mb] = pget(mb, 0) + 1
                if draw_passed:
                    try_watch(
                        thread,
                        object_address,
                        size,
                        canary_address,
                        record,
                        probability_checked=True,
                    )
            return object_address

        def free(thread: SimThread, address: int) -> None:
            if address == 0:
                return  # free(NULL) is a no-op
            unit.free_count += 1
            watched = by_address_pop(address, None)
            removed_fds = -1  # >= 0 when a removal must be charged below
            if watched is not None:
                index = watched.slot_index
                if batched:
                    by_address[address] = watched  # _remove pops it
                    wmu_remove(watched)
                else:
                    # The Fig. 4 removal per holding thread, fully
                    # inlined; the charge folds into one fused bundle.
                    # The single-holder case (one alive thread — the
                    # common shape) skips the items() iteration.
                    removed_fds = 0
                    fds_d = watched.fds
                    if len(fds_d) == 1:
                        tid_t, fd = fds_d.popitem()
                        th = registry[tid_t]
                        if th.alive:
                            removed_fds = 1
                            event = events_pop(fd, None)
                            if event is not None and not event.closed:
                                if event.enabled:
                                    regs = th.debug_registers._slots
                                    wp = regs[0]
                                    if wp is not None and wp.cookie == fd:
                                        regs[0] = None
                                    else:
                                        wp = regs[1]
                                        if wp is not None and wp.cookie == fd:
                                            regs[1] = None
                                        else:
                                            wp = regs[2]
                                            if wp is not None and wp.cookie == fd:
                                                regs[2] = None
                                            else:
                                                wp = regs[3]
                                                if wp is not None and wp.cookie == fd:
                                                    regs[3] = None
                                                else:
                                                    raise DebugRegisterError(
                                                        f"perf event fd {fd} "
                                                        "enabled but not armed "
                                                        f"on tid {tid_t}"
                                                    )
                                    event.enabled = False
                                    if wp.__class__ is FastWatchpoint:
                                        wp_pool.append(wp)
                                event.closed = True
                                ev_pool.append(event)
                    else:
                        for tid_t, fd in fds_d.items():
                            th = registry[tid_t]
                            if not th.alive:
                                continue
                            removed_fds += 1
                            event = events_pop(fd, None)
                            if event is None or event.closed:
                                continue
                            if event.enabled:
                                regs = th.debug_registers._slots
                                wp = regs[0]
                                if wp is not None and wp.cookie == fd:
                                    regs[0] = None
                                else:
                                    wp = regs[1]
                                    if wp is not None and wp.cookie == fd:
                                        regs[1] = None
                                    else:
                                        wp = regs[2]
                                        if wp is not None and wp.cookie == fd:
                                            regs[2] = None
                                        else:
                                            wp = regs[3]
                                            if wp is not None and wp.cookie == fd:
                                                regs[3] = None
                                            else:
                                                raise DebugRegisterError(
                                                    f"perf event fd {fd} enabled "
                                                    f"but not armed on tid {tid_t}"
                                                )
                                event.enabled = False
                                if wp.__class__ is FastWatchpoint:
                                    wp_pool.append(wp)
                            event.closed = True
                            ev_pool.append(event)
                        fds_d.clear()
                    wslots[index] = None
                    watched.slot_index = -1
                    watched.record = None
                    wo_pool.append(watched)
                if on_freed_hook is not None:
                    on_freed_hook(index)
            slot = addr_slot_get(address)
            if slot is None:
                # Not a CSOD-wrapped object (allocated before
                # interposition): fall through to the underlying free.
                if removed_fds >= 0:
                    bundle = _REMOVE_WATCHED.get(removed_fds)
                    if bundle is None:
                        bundle = _remove_bundle_for(removed_fds)
                    pending[bundle] = pget(bundle, 0) + 1
                    if lclk is not None:
                        lclk._now_ns += bundle.total_nanos
                raw_free(thread, address)
                return
            size = slot_size[slot]
            real = slot_real[slot]
            canary_address = address + size
            # Canary verification, inline.  Only the header identifier
            # word and the canary word decide corruption; read them
            # straight out of the page bytearrays when in the hot
            # region.  A corrupted identifier means the *previous*
            # object overran into our header — itself evidence of an
            # overflow here.
            ident_address = address - 8  # header word 3 (the identifier)
            if (
                mem._hot_start <= address - hdr_size
                and canary_address + 8 <= mem._hot_end
                and (ident_address & 4095) <= 4088
                and (canary_address & 4095) <= 4088
            ):
                ii = ident_address >> 12
                page = pages_get(ii)
                ident = (
                    0 if page is None else unpack1(page, ident_address & 4095)[0]
                )
                if ident != identifier:
                    corrupted = True
                else:
                    ci = canary_address >> 12
                    if ci != ii:
                        page = pages_get(ci)
                    value = (
                        0
                        if page is None
                        else unpack1(page, canary_address & 4095)[0]
                    )
                    corrupted = value != canary_value
            else:
                words = r_words(address - hdr_size, 4)
                corrupted = words[3] != identifier or (
                    r_word(canary_address) != canary_value
                )
            if not corrupted:
                # Remove syscalls, watch-remove marker, canary check, and
                # libc-free all fuse: nothing observes the clock in
                # between on the clean path.
                if removed_fds >= 0:
                    bundle = _FREE_WATCHED_CLEAN.get(removed_fds)
                    if bundle is None:
                        bundle = _free_clean_bundle_for(removed_fds)
                    total = bundle.total_nanos
                else:
                    bundle = _CHECK_FREE
                    total = _CHECK_FREE_NS
                pending[bundle] = pget(bundle, 0) + 1
                if lclk is not None:
                    lclk._now_ns += total
                del addr_slot[address]
                slot_record[slot] = None
                free_slots.append(slot)
                if inline_alloc:
                    # FreeListAllocator.free, inlined (binary-search
                    # insert + two-neighbour coalesce; identical list
                    # and stats surgery).
                    block_size = a_live_pop(real, None)
                    if block_size is None:
                        if real in a_freed_once:
                            raise DoubleFreeError(real)
                        raise InvalidFreeError(real)
                    a_freed_add(real)
                    a_stats.total_frees += 1
                    a_stats.live_bytes -= block_size
                    a_stats.live_blocks -= 1
                    lo = 0
                    hi = len(a_free_list)
                    while lo < hi:
                        mid = (lo + hi) >> 1
                        if a_free_list[mid][0] < real:
                            lo = mid + 1
                        else:
                            hi = mid
                    end = real + block_size
                    if lo < len(a_free_list) and end == a_free_list[lo][0]:
                        successor = a_free_list[lo]
                        a_free_list[lo] = (real, block_size + successor[1])
                    else:
                        a_free_list.insert(lo, (real, block_size))
                    if lo:
                        predecessor = a_free_list[lo - 1]
                        if predecessor[0] + predecessor[1] == real:
                            merged = a_free_list[lo]
                            a_free_list[lo - 1] = (
                                predecessor[0],
                                predecessor[1] + merged[1],
                            )
                            del a_free_list[lo]
                else:
                    alloc_free(real)
                return
            # Corrupted: keep the legacy charge order around the report's
            # clock read (removal and check costs before the report, free
            # cost after).
            if removed_fds >= 0:
                charge_bundle(_remove_bundle_for(removed_fds))
            ledger_record(EVENT_CANARY_CHECK, nanos_each=CANARY_CHECK_COST_NS)
            canary.corruption_count += 1
            record = slot_record[slot]
            boost(record)
            sink(
                OverflowReport(
                    kind=KIND_OVER_WRITE,
                    source=SOURCE_FREE_CANARY,
                    fault_address=canary_address,
                    object_address=address,
                    object_size=size,
                    thread_id=thread.tid,
                    time_ns=clock.now_ns,
                    allocation_context=record.context,
                )
            )
            del addr_slot[address]
            slot_record[slot] = None
            free_slots.append(slot)
            ledger_record(EVENT_FREE, nanos_each=FREE_COST_NS)
            alloc_free(real)

        # The driver handles free(NULL) itself, so the interposer may
        # bind it directly without its NULL-guard wrapper.
        free._handles_null = True
        return malloc, free
