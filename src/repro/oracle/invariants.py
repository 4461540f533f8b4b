"""CSOD-specific invariant probes and FN attribution.

The differential verdicts say *whether* CSOD caught a defect; these
probes say whether it behaved like the paper's design while doing so.
Each probe builds and instruments a runtime of its own, so it runs
wherever the oracle judges the program (a fleet worker, or the
coordinator at ``workers <= 1``):

* **Watchpoint discipline** — after every install/remove, the number of
  logically watched objects never exceeds the four usable debug
  registers, and :meth:`WatchpointManagementUnit.check_invariants`
  (armed registers == logical slots, per alive thread) holds.
* **Monotonic degradation** — per context, the stored sampling
  probability never increases between revivals: the only permitted
  upward jumps are to exactly ``revive_probability`` from at-or-below
  the floor (§IV-A) and to 1.0 on evidence (§IV-B).
* **Evidence convergence** — re-running a detecting execution with its
  persisted evidence preloaded must detect again (the §V-A2
  guarantee).
* **FN attribution** — when a sampled-capability defect is missed by
  every fleet execution, a re-run with the victim's context signature
  pinned at 100% must catch it.  If even the pinned run misses, the
  miss was *not* sampling: it is a watchpoint/canary logic error, and
  the scorecard says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import CSODConfig, HOTPATH_LEGACY
from repro.core.runtime import CSODRuntime
from repro.errors import InvalidFreeError
from repro.core.sampling import context_signature
from repro.fleet.pool import execute_spec
from repro.fleet.specs import ExecutionSpec
from repro.machine.debug_registers import NUM_USABLE_DEBUG_REGISTERS
from repro.oracle.generator import OracleProgram
from repro.workloads.base import SimProcess
from repro.workloads.buggy import app_for

# Tolerance for float comparisons on probability traces.
_EPS = 1e-12

ATTRIBUTION_SAMPLING = "sampling"
ATTRIBUTION_LOGIC = "logic"


@dataclass
class InvariantReport:
    """What one instrumented execution revealed."""

    app: str
    seed: int
    max_armed: int = 0
    armed_limit: int = NUM_USABLE_DEBUG_REGISTERS
    armed_violations: List[str] = field(default_factory=list)
    monotonic_violations: List[str] = field(default_factory=list)
    detected: bool = False
    detected_by_watchpoint: bool = False
    new_evidence: Tuple[str, ...] = ()
    victim_signature: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.armed_violations and not self.monotonic_violations

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "seed": self.seed,
            "max_armed": self.max_armed,
            "armed_limit": self.armed_limit,
            "armed_violations": list(self.armed_violations),
            "monotonic_violations": list(self.monotonic_violations),
            "detected": self.detected,
            "ok": self.ok,
        }


def _monotonic_violations(
    traces: Dict[object, List[float]], config: CSODConfig
) -> List[str]:
    """Upward probability jumps the adaptation rules cannot produce."""
    violations = []
    for key, sequence in traces.items():
        previous = None
        for probability in sequence:
            if previous is not None and probability > previous + _EPS:
                revived = (
                    abs(probability - config.revive_probability) <= _EPS
                    and previous <= config.floor_probability + _EPS
                )
                pinned = probability >= 1.0 - _EPS
                if not (revived or pinned):
                    violations.append(
                        f"{key}: {previous:.3e} -> {probability:.3e}"
                    )
            previous = probability
    return violations


def probe_invariants(
    app_name: str,
    seed: int,
    config: Optional[CSODConfig] = None,
    evidence: Tuple[str, ...] = (),
    victim_marker: Optional[str] = None,
) -> InvariantReport:
    """One instrumented execution, on a CSOD runtime of its own."""
    config = config or CSODConfig()
    # The spies below monkeypatch individual unit methods
    # (sampling.on_allocation, wmu.try_watch, ...).  The batched hot path
    # fuses those steps into one flat routine that would silently bypass
    # instance-level patches, so probes always run the legacy driver —
    # the equivalence harness pins the two drivers to identical
    # behaviour, so invariants verified here hold for both.
    config = config.with_hotpath(HOTPATH_LEGACY)
    process = SimProcess(seed=seed)
    runtime = CSODRuntime(process.machine, process.heap, config, seed=seed)
    if evidence:
        runtime.sampling.preload_known_bad(set(evidence))
    report = InvariantReport(app=app_name, seed=seed)
    sampling = runtime.sampling
    wmu = runtime.wmu

    # --- sampling-rate trace spy ---------------------------------------
    traces: Dict[object, List[float]] = {}
    original_on_allocation = sampling.on_allocation
    original_on_watched = sampling.on_watched

    def spy_on_allocation(stack, tid=0):
        record = original_on_allocation(stack, tid)
        traces.setdefault(record.key, []).append(record.probability)
        return record

    def spy_on_watched(record):
        original_on_watched(record)
        traces.setdefault(record.key, []).append(record.probability)

    sampling.on_allocation = spy_on_allocation
    sampling.on_watched = spy_on_watched

    # --- watchpoint discipline spy -------------------------------------
    def check_wmu() -> None:
        armed = len(wmu.watched_objects())
        report.max_armed = max(report.max_armed, armed)
        if armed > NUM_USABLE_DEBUG_REGISTERS:
            report.armed_violations.append(
                f"{armed} objects watched with only "
                f"{NUM_USABLE_DEBUG_REGISTERS} debug registers"
            )
        try:
            wmu.check_invariants()
        except AssertionError as exc:
            report.armed_violations.append(str(exc))

    original_try_watch = wmu.try_watch
    original_on_deallocation = wmu.on_deallocation

    def spy_try_watch(*args, **kwargs):
        watched = original_try_watch(*args, **kwargs)
        check_wmu()
        return watched

    def spy_on_deallocation(object_address):
        removed = original_on_deallocation(object_address)
        check_wmu()
        return removed

    wmu.try_watch = spy_try_watch
    wmu.on_deallocation = spy_on_deallocation

    app = app_for(app_name)
    try:
        app.run(process)
    except InvalidFreeError as exc:
        # Double-free workloads abort in the allocator; mirror the
        # fleet worker and let the surviving header diagnose it.
        runtime.diagnose_invalid_free(process.main_thread, exc.address)
    runtime.shutdown()

    report.monotonic_violations = _monotonic_violations(traces, config)
    report.detected = runtime.detected
    report.detected_by_watchpoint = runtime.detected_by_watchpoint
    report.new_evidence = tuple(
        sorted(
            context_signature(record.context)
            for record in sampling.records()
            if record.overflow_observed
        )
    )
    if victim_marker is not None:
        for record in sampling.records():
            signature = context_signature(record.context)
            if victim_marker in signature:
                report.victim_signature = signature
                break
    return report


# ----------------------------------------------------------------------
# Evidence convergence (§V-A2)
# ----------------------------------------------------------------------
def evidence_converges(
    app_name: str,
    seed: int,
    evidence: Tuple[str, ...],
    config: Optional[CSODConfig] = None,
) -> bool:
    """Does a re-execution with persisted evidence detect again?"""
    result = execute_spec(
        ExecutionSpec(
            app=app_name,
            seed=seed,
            index=0,
            config=config or CSODConfig(),
            evidence=tuple(evidence),
        )
    )
    return result.detected


# ----------------------------------------------------------------------
# FN attribution
# ----------------------------------------------------------------------
def attribute_fn(
    program: OracleProgram,
    config: CSODConfig,
    seed: int,
) -> str:
    """Why did CSOD miss this program on every fleet execution?

    Pins the victim's context at 100% (the §IV-B evidence mechanism,
    which also wins any replacement-policy eviction) and re-runs.  A
    detection means the victim's watchpoint does fire when armed — the
    fleet misses were the sampler declining to arm it:
    ``ATTRIBUTION_SAMPLING``.  A miss even while pinned means the
    watchpoint/canary machinery itself failed: ``ATTRIBUTION_LOGIC``.
    """
    from repro.oracle.harness import classify_csod_results

    probe = probe_invariants(
        program.name,
        seed,
        config=config,
        victim_marker=program.truth.victim_marker,
    )
    if probe.victim_signature is None:
        return ATTRIBUTION_LOGIC  # the victim context never registered
    pinned = execute_spec(
        ExecutionSpec(
            app=program.name,
            seed=seed,
            index=0,
            config=config,
            evidence=(probe.victim_signature,),
        )
    )
    observation = classify_csod_results(program, "pinned", [pinned])
    return (
        ATTRIBUTION_SAMPLING if observation.detections else ATTRIBUTION_LOGIC
    )
