"""Constraint-guided adversarial workload generation.

The random oracle explores the sampler's state space by volume; this
module *solves* for its corners.  A bounded model checker searches the
pure transition relation exported by :mod:`repro.core.sampling` (plus a
mirrored GWP-ASan countdown) for a concrete allocation/free/clock
sequence that drives the victim context into a named worst case — the
probability sitting exactly on the floor, an allocation landing on the
very first nanosecond of the next throttle window, a fifth watch
candidate arriving while all four debug registers are armed, a revive
draw racing the floor timer, GWP-ASan's countdown firing into an
exhausted guarded pool.

The search is over *macro-actions* (ping-pong allocation runs, register
blockers, calibrated clock advances), which keeps the bounded search
tractable while the witness it returns is still a fully concrete op
sequence.  Solved sequences are then **lowered** into the same
:class:`~repro.oracle.generator.OracleProgram` shape the random
generator emits — ground-truth manifest included — so the existing
7-arm conformance harness scores them without knowing they were solved
rather than drawn.  The name ``adv:s<seed>:t<target>`` rebuilds the
program anywhere (fleet workers, the triage bisector) through the buggy
registry, exactly like ``oracle:`` genomes.

Corner *reachability* is verified separately by :func:`probe_corner`,
which replays the program under an instrumented legacy-driver runtime
and checks the target predicate against the live unit — the solver
trusts the abstract model, the probe distrusts it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import CSODConfig, HOTPATH_LEGACY
from repro.core.rng import PerThreadRNG
from repro.core.runtime import CSODRuntime
from repro.core.sampling import (
    SamplerState,
    allocate,
    allocation_transition,
    allocations_to_floor,
    initial_state,
    revive_period_ns,
    throttle_window_ns,
    throttled,
)
from repro.detectors import get as get_detector
from repro.detectors.gwp_asan import GwpAsanConfig, GwpAsanRuntime, countdown
from repro.errors import WorkloadError
from repro.machine.debug_registers import NUM_USABLE_DEBUG_REGISTERS
from repro.oracle.grammar import (
    ARM_CSOD,
    DEFECT_OVER_READ,
    DEFECT_OVER_WRITE,
    GroundTruth,
    expectations,
)
from repro.oracle.generator import OracleProgram
from repro.workloads.base import (
    BuggyAppSpec,
    KIND_OVER_READ,
    RunResult,
    SimProcess,
    SyntheticBuggyApp,
)

ADV_PREFIX = "adv:"

# The main thread's tid (repro.machine.threads counts from 1); revive
# and GWP draws in a single-threaded adversarial program all come from
# this stream.
MAIN_TID = 1

TARGET_FLOOR_PIN = "floor-pin"
TARGET_THROTTLE_EDGE = "throttle-edge"
TARGET_WATCH_EXHAUST = "watch-exhaust"
TARGET_REVIVE_RACE = "revive-race"
TARGET_GWP_COUNTDOWN = "gwp-countdown"

ALL_TARGETS: Tuple[str, ...] = (
    TARGET_FLOOR_PIN,
    TARGET_THROTTLE_EDGE,
    TARGET_WATCH_EXHAUST,
    TARGET_REVIVE_RACE,
    TARGET_GWP_COUNTDOWN,
)

_TARGET_IDS: Dict[str, int] = {t: i for i, t in enumerate(ALL_TARGETS)}

# The access each solved corner carries.  Write-direction corners get
# deterministic canary evidence at teardown (the CSOD arms detect even
# when the corner suppressed the watchpoint); read-direction corners
# leave detection to the watchpoint alone, which is the point for the
# sampling corners.
_TARGET_DEFECT: Dict[str, str] = {
    TARGET_FLOOR_PIN: DEFECT_OVER_READ,
    TARGET_THROTTLE_EDGE: DEFECT_OVER_WRITE,
    TARGET_WATCH_EXHAUST: DEFECT_OVER_WRITE,
    TARGET_REVIVE_RACE: DEFECT_OVER_READ,
    TARGET_GWP_COUNTDOWN: DEFECT_OVER_WRITE,
}

# GWP-ASan configuration the countdown corner is probed under: a pool
# small enough to exhaust within a short program, a countdown that
# skips roughly every other allocation.  (The 7-arm harness still runs
# the program under ORACLE_GWP_CONFIG, where the pool never exhausts.)
PROBE_GWP_CONFIG = GwpAsanConfig(
    sample_every=2, pool_slots=4, quarantine_slots=2
)

# Node budget for the bounded search; generous — the macro-action
# abstraction solves every shipped target within a few hundred nodes.
DEFAULT_NODE_BUDGET = 50_000
_MAX_DEPTH = 6
_GWP_SEARCH_BOUND = 256

# Victim sizes are 16-byte multiples: the guard-page slack is zero, so
# the guard arms' capability is deterministic and the solved corner is
# judged on the sampler behaviour alone.
_VICTIM_SIZES = (32, 48, 64, 96, 128)
_PING_SIZE = 48
_BLOCK_SIZE = 32
_GWP_FILL_SIZE = 48
# Burst allocations are bigger than a page: the page-granular arms
# (guard pages, GWP-ASan) skip oversized requests, so a 5000-strong
# burst cannot drain their guarded pools out from under the victim —
# the corner under test is the CSOD throttle, not pool exhaustion.
_BURST_SIZE = 8192

# Placeholder delta for an advance op whose exact value depends on the
# runtime's cost model; replaced by calibration during lowering.
_CALIBRATE_TO_BOUNDARY = -1


# ----------------------------------------------------------------------
# Name codec
# ----------------------------------------------------------------------
def encode_adv_name(seed: int, target: str) -> str:
    return f"{ADV_PREFIX}s{seed}:t{target}"


def is_adv_name(name: str) -> bool:
    return name.startswith(ADV_PREFIX)


def parse_adv_name(name: str) -> Tuple[int, str]:
    """``adv:s<seed>:t<target>`` -> (seed, target)."""
    parts = name.split(":")
    if (
        len(parts) != 3
        or parts[0] + ":" != ADV_PREFIX
        or not parts[1].startswith("s")
        or not parts[2].startswith("t")
    ):
        raise WorkloadError(
            f"malformed adversarial app name {name!r}; expected "
            f"'{ADV_PREFIX}s<seed>:t<target>'"
        )
    try:
        seed = int(parts[1][1:])
    except ValueError:
        raise WorkloadError(
            f"malformed adversarial app name {name!r}: seed must be an int"
        ) from None
    target = parts[2][1:]
    if target not in ALL_TARGETS:
        raise WorkloadError(
            f"unknown adversarial target {target!r} in {name!r}; "
            f"expected one of {list(ALL_TARGETS)}"
        )
    if seed < 0:
        raise WorkloadError(
            f"adversarial app name {name!r}: seed must be >= 0"
        )
    return seed, target


def _genome_seed(seed: int, target: str) -> int:
    return (seed * 1_000_003 + _TARGET_IDS[target] * 7_919 + 101) & (
        2**63 - 1
    )


# ----------------------------------------------------------------------
# The program shape a solved corner lowers into
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdversarialSpec(BuggyAppSpec):
    """A solved corner's replayable op sequence.

    ``ops`` entries are either ``("alloc", context_id, size, is_victim,
    free_now)`` or ``("advance", delta_ns)``.  The injected access runs
    after the last op; teardown frees whatever is still live (victim
    included, handing the canary checker its evidence).
    """

    target: str = ""
    ops: Tuple[Tuple, ...] = ()


class AdversarialApp(SyntheticBuggyApp):
    """Replays a solved op sequence instead of a drawn schedule."""

    spec: AdversarialSpec

    def __init__(self, spec: AdversarialSpec):
        # Deliberately NOT calling the base __init__: there is no drawn
        # schedule to build.  The site table, access injection, and
        # RunResult contract are inherited unchanged.
        self.spec = spec
        self.events = []
        self.victim_index = -1
        self._sites_cache = None
        self._chains_cache = None
        self._victim_override = None

    def run(self, process: SimProcess) -> RunResult:
        sites = self.sites()
        process.register_sites(self.all_sites())
        thread = process.main_thread
        call_under = thread.call_stack.call_under
        chains = self.chains()
        heap = process.heap
        cpu = process.machine.cpu
        clock = process.machine.clock
        quantum = process.machine.quantum
        self._victim_override = None

        addresses: Dict[int, int] = {}
        victim_address = -1
        victim_size = 0
        allocations = 0
        for op_index, op in enumerate(self.spec.ops):
            if op[0] == "advance":
                clock.advance(op[1])
                continue
            _, context_id, size, is_victim, free_now = op
            quantum.advance()
            address = call_under(chains[context_id], heap.malloc, thread, size)
            allocations += 1
            if is_victim:
                victim_address, victim_size = address, size
                addresses[op_index] = address
            elif free_now:
                heap.free(thread, address)
            else:
                addresses[op_index] = address

        with thread.call_stack.calling(sites[0][0]):
            with thread.call_stack.calling(self.access_site):
                boundary = (
                    victim_address + victim_size + self.spec.overflow_skip
                )
                if self.spec.bug_kind == KIND_OVER_READ:
                    cpu.load(thread, boundary, self.spec.overflow_length)
                else:
                    junk = b"\xa5" * self.spec.overflow_length
                    cpu.store(thread, boundary, junk)

        for op_index in sorted(addresses):
            heap.free(thread, addresses[op_index])
        return RunResult(
            victim_address=victim_address,
            victim_size=victim_size,
            overflow_performed=True,
            allocations=allocations,
            contexts_touched=self.spec.total_contexts,
        )


# ----------------------------------------------------------------------
# The bounded model checker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Node:
    """One abstract state in the search: the victim context's sampler
    state, the (model) clock, and the armed-register count."""

    sampler: SamplerState
    now_ns: int
    armed: int


@dataclass
class Solution:
    """What the solver found for one (seed, target)."""

    seed: int
    target: str
    solved: bool
    # Macro-action names along the witness path (human-readable).
    path: Tuple[str, ...] = ()
    # Concrete lowered ops (AdversarialSpec.ops, victim op last).
    ops: Tuple[Tuple, ...] = ()
    nodes_explored: int = 0
    depth: int = 0
    # Nanoseconds the throttle-edge calibration inserted (0 elsewhere).
    calibrated_ns: int = 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "target": self.target,
            "solved": self.solved,
            "path": list(self.path),
            "nodes_explored": self.nodes_explored,
            "depth": self.depth,
            "allocations": sum(1 for op in self.ops if op[0] == "alloc"),
        }


def _victim_op(rng: random.Random) -> Tuple:
    return ("alloc", 0, rng.choice(_VICTIM_SIZES), True, False)


def _allocate_run(node: _Node, count: int, config: CSODConfig) -> _Node:
    """``count`` victim-context allocations at the node's clock, each
    watched iff a debug register is free."""
    scratch = node.sampler.thaw()
    watched = node.armed < NUM_USABLE_DEBUG_REGISTERS
    for _ in range(count):
        allocate(scratch, node.now_ns, config, watched)
    return replace(node, sampler=SamplerState.of(scratch))


def _apply_macro(
    node: _Node, action: Tuple, config: CSODConfig
) -> Tuple[_Node, Tuple[Tuple, ...]]:
    """One macro-action: returns the successor node and its concrete ops."""
    kind = action[0]
    if kind == "ping":
        # n victim-context alloc+free pairs.  With a free debug register
        # each is installed unconditionally ("installation due to
        # availability"), so the halving per pair is deterministic.
        count = action[1]
        ops = tuple(
            ("alloc", 0, _PING_SIZE, False, True) for _ in range(count)
        )
        return _allocate_run(node, count, config), ops
    if kind == "block":
        # Long-lived allocations from non-victim contexts occupy every
        # debug register (availability installs them back to back).
        count = action[1]
        ops = tuple(
            ("alloc", 1 + i, _BLOCK_SIZE, False, False)
            for i in range(count)
        )
        return replace(node, armed=node.armed + count), ops
    if kind == "burst":
        # A rapid same-window allocation run from the victim context.
        count = action[1]
        ops = tuple(
            ("alloc", 0, _BURST_SIZE, False, True) for _ in range(count)
        )
        return _allocate_run(node, count, config), ops
    if kind == "advance":
        delta = action[1]
        return replace(node, now_ns=node.now_ns + delta), (
            ("advance", delta),
        )
    if kind == "edge":
        # Jump to the exact end of the victim context's current throttle
        # window.  The concrete delta depends on the runtime's cost
        # model, so the lowered op is a calibration placeholder.
        boundary = node.sampler.window_start_ns + throttle_window_ns(config)
        return replace(node, now_ns=boundary), (
            ("advance", _CALIBRATE_TO_BOUNDARY),
        )
    raise WorkloadError(f"unknown macro action {kind!r}")


def _macro_menu(node: _Node, config: CSODConfig) -> List[Tuple]:
    """Macro-actions applicable from ``node`` (the branching relation)."""
    floor_count = max(1, allocations_to_floor(config))
    menu: List[Tuple] = [
        ("ping", 1),
        ("ping", floor_count),
        # One past the floor count: the extra allocation's revive check
        # sees the floor and starts the revive timer.
        ("ping", floor_count + 1),
        ("advance", revive_period_ns(config)),
        ("burst", config.throttle_alloc_threshold + 1),
    ]
    if node.armed == 0:
        menu.append(("block", NUM_USABLE_DEBUG_REGISTERS))
    if throttled(node.sampler, node.now_ns):
        menu.append(("edge",))
    return menu


def _predicate_holds(target: str, node: _Node, config: CSODConfig) -> bool:
    """Does allocating the victim from ``node`` realize the corner?"""
    floor = config.floor_probability
    if target == TARGET_FLOOR_PIN:
        # The victim's draw happens with the stored probability exactly
        # on the floor (and a register is free, so the miss — if any —
        # is purely the sampler's).
        return (
            node.sampler.probability == floor
            and node.armed < NUM_USABLE_DEBUG_REGISTERS
            and not throttled(node.sampler, node.now_ns)
        )
    if target == TARGET_THROTTLE_EDGE:
        # The victim allocation lands on the first nanosecond past the
        # throttled window: the half-open [start, start + window) rules
        # roll the window, and the throttle that expires at this same
        # instant no longer applies.
        boundary = node.sampler.window_start_ns + throttle_window_ns(config)
        return (
            node.sampler.throttled_until_ns == boundary
            and node.now_ns == boundary
        )
    if target == TARGET_WATCH_EXHAUST:
        # The victim is the (armed + 1)-th concurrent candidate: no free
        # register, so availability cannot install it.
        return node.armed == NUM_USABLE_DEBUG_REGISTERS
    if target == TARGET_REVIVE_RACE:
        # The victim's own allocation step reaches the revive draw.
        _, draw_made = allocation_transition(
            node.sampler, node.now_ns, config, watched=False
        )
        return draw_made
    raise WorkloadError(f"unknown adversarial target {target!r}")


def _solve_sampler_target(
    seed: int, target: str, config: CSODConfig, node_budget: int
) -> Solution:
    """Breadth-first bounded search over the macro-action relation."""
    rng = random.Random(_genome_seed(seed, target))
    victim = _victim_op(rng)
    root = _Node(sampler=initial_state(config), now_ns=0, armed=0)
    queue = deque([(root, (), ())])  # (node, path, ops)
    visited = {root}
    explored = 0
    while queue and explored < node_budget:
        node, path, ops = queue.popleft()
        explored += 1
        if _predicate_holds(target, node, config):
            return Solution(
                seed=seed,
                target=target,
                solved=True,
                path=path + ("victim",),
                ops=ops + (victim,),
                nodes_explored=explored,
                depth=len(path),
            )
        if len(path) >= _MAX_DEPTH:
            continue
        for action in _macro_menu(node, config):
            successor, new_ops = _apply_macro(node, action, config)
            if successor in visited:
                continue
            visited.add(successor)
            queue.append(
                (successor, path + (action[0],), ops + new_ops)
            )
    return Solution(
        seed=seed, target=target, solved=False, nodes_explored=explored
    )


def _solve_gwp_target(
    seed: int, target: str, node_budget: int
) -> Solution:
    """Run GWP-ASan's countdown against a drained pool.

    Steps :func:`~repro.detectors.gwp_asan.countdown` with the same
    per-thread stream the live runtime seeds (``PerThreadRNG(base_seed)``,
    main-thread tid) and a pool counter, searching for the first
    allocation whose countdown fires *after* every guarded slot is held
    live — the sample that falls through to the raw allocator.
    """
    config = PROBE_GWP_CONFIG
    base_seed = _base_seed(seed, target)
    mirror = PerThreadRNG(base_seed)
    next_sample = 0
    pool_free = config.pool_slots
    explored = 0
    for index in range(min(_GWP_SEARCH_BOUND, node_budget)):
        explored += 1
        sampled, next_sample = countdown(
            next_sample, config.sample_every, mirror, MAIN_TID
        )
        if sampled:
            if pool_free == 0:
                rng = random.Random(_genome_seed(seed, target))
                fill = tuple(
                    ("alloc", 1, _GWP_FILL_SIZE, False, False)
                    for _ in range(index)
                )
                return Solution(
                    seed=seed,
                    target=target,
                    solved=True,
                    path=("fill",) * index + ("victim",),
                    ops=fill + (_victim_op(rng),),
                    nodes_explored=explored,
                    depth=index,
                )
            pool_free -= 1  # guarded and held live: the pool drains
    return Solution(
        seed=seed, target=target, solved=False, nodes_explored=explored
    )


def _csod_arm_config() -> CSODConfig:
    return get_detector(ARM_CSOD).config()


def solve_target(
    seed: int, target: str, node_budget: int = DEFAULT_NODE_BUDGET
) -> Solution:
    """Solve one named corner; deterministic in (seed, target)."""
    if target not in ALL_TARGETS:
        raise WorkloadError(
            f"unknown adversarial target {target!r}; "
            f"expected one of {list(ALL_TARGETS)}"
        )
    if target == TARGET_GWP_COUNTDOWN:
        return _solve_gwp_target(seed, target, node_budget)
    return _solve_sampler_target(
        seed, target, _csod_arm_config(), node_budget
    )


# ----------------------------------------------------------------------
# Lowering: Solution -> OracleProgram
# ----------------------------------------------------------------------
def _base_seed(seed: int, target: str) -> int:
    return (_genome_seed(seed, target) * 2_654_435_761 + 97) % (2**31)


def _spec_from_ops(
    seed: int, target: str, ops: Tuple[Tuple, ...]
) -> AdversarialSpec:
    name = encode_adv_name(seed, target)
    slug = target.upper().replace("-", "_")
    vuln_module = f"ADV_S{seed}_{slug}/VULN"
    alloc_ops = [op for op in ops if op[0] == "alloc"]
    victim_index = next(
        i for i, op in enumerate(alloc_ops) if op[3]
    )
    contexts = {op[1] for op in alloc_ops}
    total_contexts = max(contexts) + 1
    defect = _TARGET_DEFECT[target]
    return AdversarialSpec(
        name=name,
        bug_kind=defect,
        vuln_module=vuln_module,
        reference="adversarial-solved",
        total_contexts=total_contexts,
        total_allocations=len(alloc_ops),
        before_contexts=total_contexts,
        before_allocations=len(alloc_ops),
        victim_alloc_index=victim_index + 1,
        overflow_length=8,
        overflow_skip=0,
        structural_seed=_genome_seed(seed, target) & (2**31 - 1),
        context_depth=4,
        target=target,
        ops=ops,
    )


def _calibrate_boundary(
    spec: AdversarialSpec, base_seed: int
) -> Tuple[AdversarialSpec, int]:
    """Resolve the throttle-edge placeholder advance.

    The model places the victim allocation exactly at ``window_start +
    window_ns``, but the live clock also moves with every charged op
    cost, which the abstract search cannot see.  One instrumented run
    with a zero placeholder measures the victim's actual arrival time
    and the live window start; the difference is the advance that puts
    the victim on the boundary nanosecond.  Deterministic: the measured
    run is a pure function of (spec, base_seed, arm config).
    """
    placeholder_index = next(
        i
        for i, op in enumerate(spec.ops)
        if op[0] == "advance" and op[1] == _CALIBRATE_TO_BOUNDARY
    )
    probe_ops = list(spec.ops)
    probe_ops[placeholder_index] = ("advance", 0)
    probe_spec = replace(spec, ops=tuple(probe_ops))

    config = _csod_arm_config().with_hotpath(HOTPATH_LEGACY)
    process = SimProcess(seed=base_seed)
    runtime = CSODRuntime(
        process.machine, process.heap, config, seed=base_seed
    )
    sampling = runtime.sampling
    calls: List[Tuple[int, int]] = []
    original = sampling._update_throttle

    def spy(record):
        calls.append((process.machine.clock.now_ns, record.window_start_ns))
        original(record)

    sampling._update_throttle = spy
    AdversarialApp(probe_spec).run(process)
    runtime.shutdown()
    if not calls:
        raise WorkloadError(f"{spec.name}: calibration saw no allocations")
    # The victim is the last allocation of the program, so the last
    # throttle update is its own; the window it must land at the end of
    # is the one the burst opened.
    victim_now, window_start = calls[-1]
    window_ns = throttle_window_ns(config)
    delta = window_start + window_ns - victim_now
    if delta < 0:
        raise WorkloadError(
            f"{spec.name}: victim arrived {-delta}ns past the boundary "
            "before calibration; the burst overran the throttle window"
        )
    final_ops = list(spec.ops)
    final_ops[placeholder_index] = ("advance", delta)
    return replace(spec, ops=tuple(final_ops)), delta


def lower(solution: Solution) -> OracleProgram:
    """Lower a solved corner into a scoreable oracle program."""
    if not solution.solved:
        raise WorkloadError(
            f"target {solution.target!r} unsolved at seed "
            f"{solution.seed} ({solution.nodes_explored} nodes explored)"
        )
    base_seed = _base_seed(solution.seed, solution.target)
    spec = _spec_from_ops(solution.seed, solution.target, solution.ops)
    if any(
        op[0] == "advance" and op[1] == _CALIBRATE_TO_BOUNDARY
        for op in spec.ops
    ):
        spec, delta = _calibrate_boundary(spec, base_seed)
        solution.calibrated_ns = delta
        solution.ops = spec.ops
    defect = _TARGET_DEFECT[solution.target]
    access_kind = "write" if defect == DEFECT_OVER_WRITE else "read"
    victim_size = next(op[2] for op in spec.ops if op[0] == "alloc" and op[3])
    truth = GroundTruth(
        app=spec.name,
        defect=defect,
        access_kind=access_kind,
        bug_kind=defect,
        benign=False,
        victim_size=victim_size,
        access_offset=0,
        access_length=8,
        in_library=False,
        free_before_access=False,
        victim_marker=f"{spec.vuln_module}/alloc.c:500",
        access_marker=f"{spec.vuln_module}/overflow.c:42",
        expected=expectations(defect, access_kind, 0, 8, False, victim_size),
    )
    return OracleProgram(
        name=spec.name, spec=spec, truth=truth, base_seed=base_seed
    )


# Solutions and lowered programs are cached per process: fleet workers
# rebuild by name once, and repeated harness phases reuse the solve.
_solution_cache: Dict[Tuple[int, str], Solution] = {}
_program_cache: Dict[Tuple[int, str], OracleProgram] = {}


def solve_program(
    seed: int, target: str, node_budget: int = DEFAULT_NODE_BUDGET
) -> OracleProgram:
    """Solve + lower, cached; the ``adv:`` name resolves through here."""
    key = (seed, target)
    program = _program_cache.get(key)
    if program is None:
        solution = _solution_cache.get(key)
        if solution is None:
            solution = solve_target(seed, target, node_budget)
            _solution_cache[key] = solution
        program = lower(solution)
        _program_cache[key] = program
    return program


def program_from_name(name: str) -> OracleProgram:
    """Rebuild a solved program from its self-describing name."""
    seed, target = parse_adv_name(name)
    return solve_program(seed, target)


def adversarial_app_from_name(
    name: str, scale: Optional[float] = None
) -> AdversarialApp:
    """The runnable app for an ``adv:`` name (the registry hook).

    Solved corners do not scale: shrinking the op sequence would break
    the very predicate the solver established.
    """
    if scale is not None and scale < 1.0:
        raise WorkloadError(
            f"adversarial program {name!r} cannot be scaled: the solved "
            "op sequence realizes an exact sampler corner"
        )
    return AdversarialApp(program_from_name(name).spec)


# ----------------------------------------------------------------------
# Corner probes: verify the predicate against the live runtime
# ----------------------------------------------------------------------
@dataclass
class CornerReport:
    """Did the live runtime actually reach the solved corner?"""

    app: str
    target: str
    seed: int
    reached: bool
    details: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "target": self.target,
            "seed": self.seed,
            "reached": self.reached,
            "details": dict(sorted(self.details.items())),
        }


def _probe_csod_corner(program: OracleProgram) -> CornerReport:
    """One instrumented legacy-driver run checking the sampler corner."""
    spec: AdversarialSpec = program.spec  # type: ignore[assignment]
    target = spec.target
    config = _csod_arm_config().with_hotpath(HOTPATH_LEGACY)
    process = SimProcess(seed=program.base_seed)
    runtime = CSODRuntime(
        process.machine, process.heap, config, seed=program.base_seed
    )
    sampling = runtime.sampling
    wmu = runtime.wmu
    clock = process.machine.clock
    report = CornerReport(
        app=program.name,
        target=target,
        seed=program.base_seed,
        reached=False,
    )

    alloc_probs: List[float] = []
    original_on_allocation = sampling.on_allocation

    def spy_on_allocation(stack, tid=0):
        record = original_on_allocation(stack, tid)
        alloc_probs.append(record.probability)
        return record

    sampling.on_allocation = spy_on_allocation

    # (now, window start before the update, sampler state after it)
    throttle_calls: List[Tuple[int, int, SamplerState]] = []
    original_throttle = sampling._update_throttle

    def spy_throttle(record):
        before = (clock.now_ns, record.window_start_ns)
        original_throttle(record)
        throttle_calls.append(before + (SamplerState.of(record),))

    sampling._update_throttle = spy_throttle

    watch_states: List[Tuple[int, int]] = []
    original_try_watch = wmu.try_watch

    def spy_try_watch(*args, **kwargs):
        watch_states.append(
            (len(wmu.watched_objects()), wmu.free_slots())
        )
        return original_try_watch(*args, **kwargs)

    wmu.try_watch = spy_try_watch

    revive_draws: List[int] = []
    in_revive: List[bool] = [False]
    original_revive = sampling._maybe_revive
    rng = sampling._rng
    original_uniform = rng.uniform

    def spy_uniform(tid):
        if in_revive[0]:
            revive_draws.append(tid)
        return original_uniform(tid)

    rng.uniform = spy_uniform

    revive_events: List[int] = []

    def spy_revive(record, tid=0):
        in_revive[0] = True
        draws_before = len(revive_draws)
        try:
            original_revive(record, tid)
        finally:
            in_revive[0] = False
        if len(revive_draws) > draws_before:
            revive_events.append(len(alloc_probs))

    sampling._maybe_revive = spy_revive

    AdversarialApp(spec).run(process)
    runtime.shutdown()

    floor = config.floor_probability
    if target == TARGET_FLOOR_PIN:
        victim_probability = alloc_probs[-1] if alloc_probs else -1.0
        report.reached = victim_probability == floor
        report.details = {
            "victim_probability": victim_probability,
            "floor": floor,
        }
    elif target == TARGET_THROTTLE_EDGE:
        now, window_start, after = throttle_calls[-1]
        window_ns = throttle_window_ns(config)
        on_boundary = now == window_start + window_ns
        engaged_before = any(
            state.throttled_until_ns == w_start + window_ns
            and throttled(state, t_now)
            for t_now, w_start, state in throttle_calls[:-1]
        )
        # The boundary allocation opens the next window (count resets
        # to 1) and is NOT throttled: the throttle no longer applies at
        # its expiry instant.
        throttled_at_victim = throttled(after, now)
        report.reached = on_boundary and engaged_before and (
            after.window_alloc_count == 1
        ) and not throttled_at_victim
        report.details = {
            "victim_now_ns": now,
            "window_start_ns": window_start,
            "window_ns": window_ns,
            "count_after": after.window_alloc_count,
            "engaged_before": engaged_before,
            "throttled_at_victim": throttled_at_victim,
        }
    elif target == TARGET_WATCH_EXHAUST:
        armed, free = watch_states[-1] if watch_states else (-1, -1)
        report.reached = (
            armed == NUM_USABLE_DEBUG_REGISTERS and free == 0
        )
        report.details = {
            "armed_at_victim": armed,
            "free_slots_at_victim": free,
            "limit": NUM_USABLE_DEBUG_REGISTERS,
        }
    elif target == TARGET_REVIVE_RACE:
        # _maybe_revive runs inside on_allocation, before the spy above
        # appends that allocation's probability: the event index it
        # records is 0-based, so the victim (the final allocation) shows
        # up as len(alloc_probs) - 1.
        victim_call = len(alloc_probs) - 1
        draw_at_victim = bool(revive_events) and (
            revive_events[-1] == victim_call
        )
        from_main = bool(revive_draws) and revive_draws[-1] == MAIN_TID
        report.reached = draw_at_victim and from_main
        report.details = {
            "revive_draw_at_victim": draw_at_victim,
            "draw_tid": revive_draws[-1] if revive_draws else None,
            "main_tid": MAIN_TID,
        }
    else:
        raise WorkloadError(f"unknown CSOD corner target {target!r}")
    return report


def _probe_gwp_corner(program: OracleProgram) -> CornerReport:
    """Run under the small-pool GWP config; verify the raw fallback."""
    spec: AdversarialSpec = program.spec  # type: ignore[assignment]
    process = SimProcess(seed=program.base_seed)
    runtime = GwpAsanRuntime(
        process.machine,
        process.heap,
        PROBE_GWP_CONFIG,
        seed=program.base_seed,
    )
    samples: List[Tuple[bool, bool]] = []  # (sampled, pool_empty)
    original_should_sample = runtime._should_sample
    pool = runtime.pool

    def spy_should_sample(thread):
        sampled = original_should_sample(thread)
        samples.append((sampled, len(pool._free) == 0))
        return sampled

    runtime._should_sample = spy_should_sample

    AdversarialApp(spec).run(process)
    runtime.shutdown()

    sampled, pool_empty = samples[-1] if samples else (False, False)
    return CornerReport(
        app=program.name,
        target=spec.target,
        seed=program.base_seed,
        reached=sampled and pool_empty,
        details={
            "victim_sampled": sampled,
            "pool_empty_at_victim": pool_empty,
            "pool_slots": PROBE_GWP_CONFIG.pool_slots,
            "sample_every": PROBE_GWP_CONFIG.sample_every,
        },
    )


def probe_corner(program: OracleProgram) -> CornerReport:
    """Verify one solved program's corner against the live runtime."""
    spec = program.spec
    if not isinstance(spec, AdversarialSpec):
        raise WorkloadError(
            f"{program.name} is not an adversarial program"
        )
    if spec.target == TARGET_GWP_COUNTDOWN:
        return _probe_gwp_corner(program)
    return _probe_csod_corner(program)


# ----------------------------------------------------------------------
# The adversarial campaign
# ----------------------------------------------------------------------
@dataclass
class AdversarialRun:
    """One adversarial campaign: solved programs, 7-arm scoring, probes."""

    solutions: List[Solution]
    programs: List[OracleProgram]
    corners: List[CornerReport]
    oracle_run: object  # repro.oracle.runner.OracleRun
    scorecard: dict


def run_adversarial(
    seed: int = 0,
    targets: Sequence[str] = ALL_TARGETS,
    workers: int = 1,
    executions_per_app: int = 3,
    node_budget: int = DEFAULT_NODE_BUDGET,
    telemetry=None,
) -> AdversarialRun:
    """Solve every target, score through the 7-arm harness, probe corners.

    The scorecard is the ordinary oracle scorecard plus a ``targets``
    section recording, per target: the solver witness, whether the live
    runtime reached the corner, and the probe measurements.
    """
    from repro.oracle.runner import OracleSettings, run_oracle

    for target in targets:
        if target not in ALL_TARGETS:
            raise WorkloadError(
                f"unknown adversarial target {target!r}; "
                f"expected one of {list(ALL_TARGETS)}"
            )
    solutions = [
        solve_target(seed, target, node_budget) for target in targets
    ]
    solved = [s for s in solutions if s.solved]
    programs = [lower(s) for s in solved]
    settings = OracleSettings(
        budget=max(1, len(programs)),
        seed=seed,
        workers=workers,
        executions_per_app=executions_per_app,
    )
    oracle_run = run_oracle(
        settings, telemetry=telemetry, programs=programs
    )
    corners = [probe_corner(program) for program in programs]

    scorecard = dict(oracle_run.scorecard)
    scorecard["targets"] = {
        s.target: {
            "solution": s.to_dict(),
            "corner": corner.to_dict() if corner is not None else None,
        }
        for s, corner in zip(
            solved, corners
        )
    }
    scorecard["targets"].update(
        {
            s.target: {"solution": s.to_dict(), "corner": None}
            for s in solutions
            if not s.solved
        }
    )
    if telemetry is not None:
        telemetry(
            {"event": "adversarial_scorecard", "scorecard": scorecard}
        )
    return AdversarialRun(
        solutions=solutions,
        programs=programs,
        corners=corners,
        oracle_run=oracle_run,
        scorecard=scorecard,
    )
