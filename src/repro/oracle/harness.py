"""The differential harness: run one generated program, judge reports.

CSOD arms execute through the fleet pool (the runner dispatches them as
ordinary :class:`ExecutionSpec`s, and the coordinator classifies their
results here); the baseline arms (ASan, guard pages, GWP-ASan,
DoubleTake) run in :func:`observe_app`, which the runner's per-program
judging task calls on a pool worker (in the coordinator at
``workers <= 1``) — in oracle mode each is deterministic, so one
execution per program decides them.  Either way, every report is judged
against the program's :class:`~repro.oracle.grammar.GroundTruth`:

* a report whose **allocation context** contains the victim's
  allocation-site marker (and whose kind matches the injected access)
  is a true positive;
* a CSOD report whose **access context** contains the injected access
  statement but whose allocation context points elsewhere is an
  *incidental* true positive — the defective access was caught via a
  neighbouring object's boundary word, a real catch with displaced
  attribution (watchpoint-only underflows);
* anything else — and *any* report on a benign program — is a false
  positive.

The guard-page arm runs in "oracle mode" (``sample_every=1``, a slot
pool larger than any generated schedule): every allocation is guarded,
so the arm is deterministic and the manifest's capability matrix is
exact.  GWP-ASan's production sampling is a measured trade-off, not a
correctness property; the oracle tests the detector's logic, not its
lottery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.asan.runtime import ASanRuntime
from repro.detectors.doubletake import DoubleTakeConfig, DoubleTakeRuntime
from repro.detectors.gwp_asan import GwpAsanConfig, GwpAsanRuntime
from repro.errors import SegmentationFault
from repro.fleet.evidence_store import EvidenceStore
from repro.fleet.specs import ExecutionResult
from repro.guardpage.runtime import GuardPageConfig, GuardPageRuntime
from repro.machine.signals import ProcessTerminated
from repro.oracle.grammar import (
    ARM_ASAN,
    ARM_DOUBLETAKE,
    ARM_GUARDPAGE,
    ARM_GWP_ASAN,
    CAP_DETERMINISTIC,
    CAP_INCIDENTAL,
    CAP_NONE,
    CAP_SAMPLED,
    DEFECT_DOUBLE_FREE,
    DEFECT_UNDERFLOW,
    GroundTruth,
)
from repro.oracle.generator import OracleProgram
from repro.workloads.base import SimProcess

# Oracle-mode guard pages: deterministic full guarding (see module doc).
ORACLE_GUARD_CONFIG = GuardPageConfig(sample_every=1, max_guarded=4096)
# Oracle-mode GWP-ASan: every allocation sampled into a pool bigger
# than any generated schedule, quarantine deep enough that no slot is
# ever recycled — the slot-state checks become deterministic.
ORACLE_GWP_CONFIG = GwpAsanConfig(
    sample_every=1, pool_slots=4096, quarantine_slots=4096
)
# Oracle-mode DoubleTake: frequent epochs, no quarantine eviction.
ORACLE_DOUBLETAKE_CONFIG = DoubleTakeConfig(
    epoch_every_allocs=32, quarantine_blocks=4096
)


@dataclass
class ArmObservation:
    """What one detector arm saw for one program, judged."""

    arm: str
    executions: int = 0
    # Executions with >= 1 victim-matching report of the right kind.
    detections: int = 0
    # Executions detected only via the access-statement marker
    # (displaced attribution; counts as caught, never as FP or FN).
    incidental: int = 0
    # Reports matching neither marker, wrong-kind victim reports, and
    # every report on a benign program.
    fp_reports: int = 0
    kinds: Tuple[str, ...] = ()

    @property
    def detected(self) -> bool:
        return self.detections > 0 or self.incidental > 0

    def to_dict(self) -> dict:
        return {
            "arm": self.arm,
            "executions": self.executions,
            "detections": self.detections,
            "incidental": self.incidental,
            "fp_reports": self.fp_reports,
            "kinds": list(self.kinds),
        }


@dataclass
class AppObservations:
    """All arms' judged observations for one program."""

    app: str
    arms: Dict[str, ArmObservation] = field(default_factory=dict)

    def detected_arms(self) -> Tuple[str, ...]:
        return tuple(
            sorted(arm for arm, obs in self.arms.items() if obs.detected)
        )

    def fp_arms(self) -> Tuple[str, ...]:
        return tuple(
            sorted(
                arm for arm, obs in self.arms.items() if obs.fp_reports
            )
        )


# ----------------------------------------------------------------------
# Report judging
# ----------------------------------------------------------------------
def _judge(
    truth: GroundTruth,
    kind: str,
    expected_kind: str,
    allocation_frames: Sequence[str],
    access_frames: Sequence[str] = (),
    fault_address: Optional[int] = None,
    victim_span: Optional[Tuple[int, int]] = None,
) -> str:
    """Classify one report: 'victim', 'incidental', or 'fp'."""
    if truth.benign:
        return "fp"
    victim_hit = truth.victim_marker in tuple(allocation_frames)
    if not victim_hit and victim_span is not None and fault_address is not None:
        # UAF reports may drop the allocation context (ASan pops it at
        # free); fall back to the fault address.
        lo, hi = victim_span
        victim_hit = lo <= fault_address < hi
    if victim_hit:
        return "victim" if kind == expected_kind else "fp"
    if truth.access_marker in tuple(access_frames):
        return "incidental"
    return "fp"


def _fold(arm: str, verdicts: Iterable[str], kinds: Iterable[str]) -> ArmObservation:
    """One execution's report verdicts -> an observation."""
    verdicts = list(verdicts)
    obs = ArmObservation(arm=arm, executions=1, kinds=tuple(sorted(set(kinds))))
    if "victim" in verdicts:
        obs.detections = 1
    elif "incidental" in verdicts:
        obs.incidental = 1
    obs.fp_reports = sum(1 for v in verdicts if v == "fp")
    return obs


def _merge(into: ArmObservation, obs: ArmObservation) -> None:
    into.executions += obs.executions
    into.detections += obs.detections
    into.incidental += obs.incidental
    into.fp_reports += obs.fp_reports
    into.kinds = tuple(sorted(set(into.kinds) | set(obs.kinds)))


# ----------------------------------------------------------------------
# Inline arms
# ----------------------------------------------------------------------
def observe_asan(program: OracleProgram, seed: int) -> ArmObservation:
    """One (deterministic) execution under simulated ASan."""
    truth = program.truth
    process = SimProcess(seed=seed)
    runtime = ASanRuntime(process.machine, process.heap)
    result = program.app().run(process)
    runtime.shutdown()
    if truth.defect == DEFECT_DOUBLE_FREE:
        expected_kind = "double-free"
    elif truth.free_before_access:
        expected_kind = "heap-use-after-free"
    else:
        expected_kind = "heap-buffer-overflow"
    span = (
        result.victim_address,
        result.victim_address + result.victim_size,
    )
    verdicts = [
        _judge(
            truth,
            report.kind,
            expected_kind,
            report.allocation_context,
            fault_address=report.fault_address,
            victim_span=span,
        )
        for report in runtime.reports
    ]
    return _fold(ARM_ASAN, verdicts, (r.kind for r in runtime.reports))


def observe_guardpage(program: OracleProgram, seed: int) -> ArmObservation:
    """One (deterministic, oracle-mode) execution under guard pages."""
    truth = program.truth
    process = SimProcess(seed=seed)
    runtime = GuardPageRuntime(
        process.machine, process.heap, ORACLE_GUARD_CONFIG, seed=seed
    )
    try:
        program.app().run(process)
    except (SegmentationFault, ProcessTerminated):
        # The guarded process dies on the fault; reports are read from
        # the crash handler's output, exactly like GWP-ASan.
        pass
    finally:
        runtime.shutdown()
    if truth.defect == DEFECT_DOUBLE_FREE:
        expected_kind = "double-free"
    elif truth.free_before_access:
        expected_kind = "use-after-free"
    else:
        expected_kind = "overflow"
    verdicts = [
        _judge(
            truth,
            report.kind,
            expected_kind,
            tuple(str(f) for f in report.allocation_context.frames),
        )
        for report in runtime.reports
    ]
    return _fold(ARM_GUARDPAGE, verdicts, (r.kind for r in runtime.reports))


def observe_gwp_asan(program: OracleProgram, seed: int) -> ArmObservation:
    """One (deterministic, oracle-mode) execution under GWP-ASan."""
    truth = program.truth
    process = SimProcess(seed=seed)
    runtime = GwpAsanRuntime(
        process.machine, process.heap, ORACLE_GWP_CONFIG, seed=seed
    )
    try:
        program.app().run(process)
    except (SegmentationFault, ProcessTerminated):
        # The process dies on the guard/quarantine fault; the report
        # was already written by the crash handler.
        pass
    finally:
        runtime.shutdown()
    if truth.defect == DEFECT_DOUBLE_FREE:
        expected_kind = "double-free"
    elif truth.free_before_access:
        expected_kind = "use-after-free"
    elif truth.defect == DEFECT_UNDERFLOW:
        expected_kind = "underflow"
    else:
        expected_kind = "overflow"
    verdicts = [
        _judge(
            truth,
            report.kind,
            expected_kind,
            report.allocation_context,
            report.access_context,
        )
        for report in runtime.reports
    ]
    return _fold(ARM_GWP_ASAN, verdicts, (r.kind for r in runtime.reports))


def observe_doubletake(program: OracleProgram, seed: int) -> ArmObservation:
    """One DoubleTake observation: record run, then replay on evidence.

    The record run sweeps canaries at epoch boundaries; when it ends
    with evidence, the epoch is "rolled back" — the deterministic sim
    makes re-execution under the same seed an exact rollback — and
    replayed with the corrupted words watched, so the reports carry the
    precise corrupting store.  Evidence signatures pass through an
    in-memory :class:`EvidenceStore`, the same dedupe/persist plumbing
    the CSOD fleet uses.
    """
    truth = program.truth
    store = EvidenceStore()
    process = SimProcess(seed=seed)
    runtime = DoubleTakeRuntime(
        process.machine,
        process.heap,
        ORACLE_DOUBLETAKE_CONFIG,
        seed=seed,
        evidence_store=store,
    )
    program.app().run(process)
    runtime.shutdown()
    reports = runtime.reports
    if runtime.evidence:
        replay_process = SimProcess(seed=seed)
        replay = DoubleTakeRuntime(
            replay_process.machine,
            replay_process.heap,
            ORACLE_DOUBLETAKE_CONFIG,
            seed=seed,
            watch=tuple(runtime.evidence),
            evidence_store=store,
        )
        program.app().run(replay_process)
        replay.shutdown()
        reports = replay.reports
    if truth.defect == DEFECT_DOUBLE_FREE:
        expected_kind = "double-free"
    elif truth.free_before_access:
        expected_kind = "use-after-free-write"
    elif truth.access_offset < 0:
        expected_kind = "buffer-underflow-write"
    else:
        expected_kind = "buffer-overflow-write"
    verdicts = [
        _judge(
            truth,
            report.kind,
            expected_kind,
            report.allocation_context,
            report.access_context,
        )
        for report in reports
    ]
    return _fold(ARM_DOUBLETAKE, verdicts, (r.kind for r in reports))


# Inline arm dispatch, in canonical (registry) order.
INLINE_OBSERVERS = {
    ARM_ASAN: observe_asan,
    ARM_GUARDPAGE: observe_guardpage,
    ARM_GWP_ASAN: observe_gwp_asan,
    ARM_DOUBLETAKE: observe_doubletake,
}


def observe_app(
    program: OracleProgram,
    seed: int,
    arms: Optional[Sequence[str]] = None,
) -> AppObservations:
    """Run the selected inline arms (default: all) for one program."""
    observations = AppObservations(app=program.name)
    for arm in INLINE_OBSERVERS:
        if arms is not None and arm not in arms:
            continue
        observations.arms[arm] = INLINE_OBSERVERS[arm](program, seed)
    return observations


# ----------------------------------------------------------------------
# CSOD fleet results
# ----------------------------------------------------------------------
def classify_csod_results(
    program: OracleProgram, arm: str, results: Sequence[ExecutionResult]
) -> ArmObservation:
    """Judge the fleet's CSOD executions for one (program, arm)."""
    truth = program.truth
    expected_kind = (
        "double-free"
        if truth.defect == DEFECT_DOUBLE_FREE
        else truth.bug_kind
    )
    total = ArmObservation(arm=arm)
    for result in results:
        verdicts = [
            _judge(
                truth,
                record.kind,
                expected_kind,
                record.allocation_context,
                record.access_context,
            )
            for record in result.reports
        ]
        _merge(
            total,
            _fold(arm, verdicts, (r.kind for r in result.reports)),
        )
    return total


# ----------------------------------------------------------------------
# Cross-detector disagreement
# ----------------------------------------------------------------------
@dataclass
class Mismatch:
    """Detectors disagreed on one program (or one of them reported FPs)."""

    app: str
    defect: str
    detected: Tuple[str, ...]
    missed: Tuple[str, ...]
    fp_arms: Tuple[str, ...]
    # arm -> why the miss/detection is consistent with the capability
    # matrix ("sampling miss", "uninstrumented shared library...", ...).
    explanations: Dict[str, str] = field(default_factory=dict)
    # Arms whose behaviour the capability matrix can NOT account for: a
    # deterministic-capability miss, a CAP_NONE detection, or any FP.
    unexplained: Tuple[str, ...] = ()

    @property
    def explained(self) -> bool:
        return not self.unexplained

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "defect": self.defect,
            "detected": list(self.detected),
            "missed": list(self.missed),
            "fp_arms": list(self.fp_arms),
            "explanations": dict(sorted(self.explanations.items())),
            "unexplained": list(self.unexplained),
            "explained": self.explained,
        }


def find_mismatch(
    program: OracleProgram, observations: AppObservations
) -> Optional[Mismatch]:
    """The app's cross-detector disagreement, if any."""
    truth = program.truth
    detected = observations.detected_arms()
    missed = tuple(
        sorted(set(observations.arms) - set(detected))
    )
    fp_arms = observations.fp_arms()
    if not fp_arms and (not detected or not missed):
        return None  # unanimous and clean: no disagreement
    explanations: Dict[str, str] = {}
    unexplained: List[str] = []
    for arm in sorted(observations.arms):
        expectation = truth.expected[arm]
        obs = observations.arms[arm]
        if obs.fp_reports:
            unexplained.append(arm)
            explanations[arm] = "false-positive reports"
            continue
        if obs.detected:
            if expectation.capability == CAP_NONE:
                unexplained.append(arm)
                explanations[arm] = (
                    "detected despite no capability: " + expectation.reason
                )
            elif expectation.capability in (CAP_SAMPLED, CAP_INCIDENTAL):
                explanations[arm] = "caught when sampled"
            continue
        # Missed.
        if expectation.capability == CAP_DETERMINISTIC:
            unexplained.append(arm)
            explanations[arm] = (
                "missed a deterministic capability: " + expectation.reason
            )
        elif expectation.capability == CAP_SAMPLED:
            explanations[arm] = "sampling miss"
        else:
            explanations[arm] = expectation.reason
    return Mismatch(
        app=program.name,
        defect=truth.defect,
        detected=detected,
        missed=missed,
        fp_arms=fp_arms,
        explanations=explanations,
        unexplained=tuple(sorted(unexplained)),
    )
