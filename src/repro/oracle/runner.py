"""The fleet-scale oracle campaign.

``run_oracle`` is what ``python -m repro oracle --budget N`` executes:

1. **Generate** — ``budget`` programs, defect classes dealt from the
   requested mix by largest-remainder apportionment (deterministic: no
   RNG touches the sequence).
2. **Fan out** — every program runs ``executions_per_app`` times under
   each selected CSOD arm (near-FIFO with evidence, random replacement
   with evidence, watchpoints-only) through one :class:`FleetPool`
   wave, so the aggregate is worker-count-invariant.  ``--arms``
   restricts the matrix to a subset of registered detector arms.
3. **Judge** — the coordinator classifies every CSOD report against
   the program's manifest, which decides what each program's re-runs
   are.  Then :func:`judge_program` runs once per program on the same
   pool's workers (:meth:`FleetPool.map`; inline at ``workers <= 1``):
   the inline baselines (ASan, guard pages, GWP-ASan, DoubleTake),
   deterministic and run once each; the CSOD invariant probe on an
   instrumented execution; a pinned re-run per sampled arm that missed
   everywhere, attributing the miss to sampling or logic; and a re-run
   of the evidence arm's first detection with its evidence, checking
   §V-A2 convergence.  Judgements come back in program order, and the
   coordinator explains mismatches and emits telemetry in that order.
4. **Shrink** — with ``shrink > 0``, the first ``shrink`` mismatched
   programs that produced CSOD reports are reduced to minimal repros
   via the triage bisector.

The returned scorecard is byte-deterministic for a given settings
tuple; worker count and wall-clock never leak into it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import CSODConfig
from repro.detectors import get as get_detector
from repro.detectors import resolve_arms
from repro.errors import ReproError
from repro.fleet.aggregate import FleetAggregator
from repro.fleet.pool import DEFAULT_TIMEOUT_SECONDS, FleetPool
from repro.fleet.specs import ExecutionSpec
from repro.oracle.generator import OracleProgram, generate
from repro.oracle.grammar import (
    ALL_DEFECTS,
    ARM_CSOD,
    CAP_SAMPLED,
    CSOD_ARMS,
)
from repro.oracle.harness import (
    AppObservations,
    ArmObservation,
    Mismatch,
    classify_csod_results,
    find_mismatch,
    observe_app,
)
from repro.oracle.invariants import (
    InvariantReport,
    attribute_fn,
    evidence_converges,
    probe_invariants,
)
from repro.oracle.scorecard import build_scorecard
from repro.oracle.shrink import shrink_app_mismatch
from repro.triage.bisect import MinimalRepro


def arm_configs() -> Dict[str, CSODConfig]:
    """The CSOD policy configurations under differential test.

    Sourced from the detector registry so the oracle and any other
    driver agree on each arm's configuration; kept as a module-level
    function because tests monkeypatch it to swap in legacy configs.
    """
    return {arm: get_detector(arm).config() for arm in CSOD_ARMS}


@dataclass(frozen=True)
class OracleSettings:
    """One oracle campaign's identity (everything the scorecard hashes)."""

    budget: int = 50
    seed: int = 0
    workers: int = 1
    executions_per_app: int = 3
    # defect -> weight; None means uniform over ALL_DEFECTS.
    defect_mix: Optional[Mapping[str, float]] = None
    shrink: int = 0
    timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS
    chunk_size: Optional[int] = None
    # Detector arms to run; None means every registered arm.  Part of
    # the scorecard identity (a subset produces a different document).
    arms: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if self.arms is not None:
            # Normalizes aliases/case and rejects unknown arms with a
            # message naming the known ones; canonical registry order.
            object.__setattr__(self, "arms", resolve_arms(self.arms))
        if self.budget < 1:
            raise ReproError(f"budget must be >= 1, got {self.budget}")
        if self.executions_per_app < 1:
            raise ReproError(
                f"executions_per_app must be >= 1, "
                f"got {self.executions_per_app}"
            )
        if self.shrink < 0:
            raise ReproError(f"shrink must be >= 0, got {self.shrink}")
        if self.defect_mix is not None:
            for defect, weight in self.defect_mix.items():
                if defect not in ALL_DEFECTS:
                    raise ReproError(
                        f"unknown defect {defect!r} in mix; "
                        f"expected one of {list(ALL_DEFECTS)}"
                    )
                if weight < 0:
                    raise ReproError(
                        f"defect weight must be >= 0, got {defect}={weight}"
                    )
            if not any(self.defect_mix.values()):
                raise ReproError("defect mix has no positive weight")

    def to_dict(self) -> dict:
        mix = self.defect_mix
        return {
            "budget": self.budget,
            "seed": self.seed,
            "executions_per_app": self.executions_per_app,
            "defect_mix": (
                None if mix is None else {k: v for k, v in sorted(mix.items())}
            ),
            "shrink": self.shrink,
            "arms": None if self.arms is None else list(self.arms),
        }


def defect_sequence(
    budget: int, mix: Optional[Mapping[str, float]] = None
) -> List[str]:
    """Deal ``budget`` defect classes from the mix, deterministically.

    Largest-remainder apportionment fixes the per-class counts; the
    sequence then interleaves classes round-robin so any prefix of the
    campaign is still representative.
    """
    weights = {
        d: (1.0 if mix is None else float(mix.get(d, 0.0)))
        for d in ALL_DEFECTS
    }
    total = sum(weights.values())
    quotas = {d: budget * w / total for d, w in weights.items()}
    counts = {d: int(q) for d, q in quotas.items()}
    shortfall = budget - sum(counts.values())
    # Ties broken by defect name: deterministic.
    for d in sorted(
        ALL_DEFECTS, key=lambda d: (-(quotas[d] - counts[d]), d)
    )[:shortfall]:
        counts[d] += 1
    sequence: List[str] = []
    remaining = dict(counts)
    while len(sequence) < budget:
        for d in ALL_DEFECTS:
            if remaining[d] > 0:
                remaining[d] -= 1
                sequence.append(d)
    return sequence[:budget]


@dataclass
class OracleRun:
    """Everything one campaign produced (scorecard plus raw views)."""

    settings: OracleSettings
    programs: List[OracleProgram]
    observations: Dict[str, AppObservations]
    invariant_reports: List[InvariantReport]
    fn_attributions: Dict[str, str]
    convergence: Dict[str, bool]
    mismatches: List[Mismatch]
    shrunk: List[MinimalRepro]
    scorecard: dict = field(default_factory=dict)


@dataclass(frozen=True)
class JudgingTask:
    """What one program's judging needs beyond the fleet wave."""

    program: OracleProgram
    inline_arms: Tuple[str, ...]
    # The evidence arm's config when it is selected (None otherwise):
    # the invariant probe and the convergence re-run use it.
    csod_config: Optional[CSODConfig]
    # (arm, config) of every sampled-capability arm that missed on
    # every fleet execution: each gets a pinned attribution re-run.
    attribute: Tuple[Tuple[str, CSODConfig], ...]
    # The evidence arm's first detection's new evidence; empty when it
    # detected nothing with evidence, and then nothing is re-run.
    converge_on: Tuple[str, ...]


@dataclass
class ProgramJudgement:
    """What :func:`judge_program` found for one program."""

    observations: AppObservations  # the inline arms only
    probe: Optional[InvariantReport]
    attributions: Dict[str, str]  # arm -> sampling | logic
    converged: Optional[bool]  # None when nothing was re-run


def judge_program(task: JudgingTask) -> ProgramJudgement:
    """Judge one program: inline arms, invariant probe and re-runs.

    Module-level so a pool worker can run it.  Each step builds its own
    simulated process, so no state passes between programs.  The steps
    are looked up as this module's globals, so wrappers installed on
    them before the pool forks (the e2e tracer's) still see every call.
    """
    program = task.program
    seed = program.base_seed
    observations = observe_app(program, seed, arms=task.inline_arms)
    probe = None
    if task.csod_config is not None:
        probe = probe_invariants(
            program.name,
            seed,
            config=task.csod_config,
            victim_marker=program.truth.victim_marker,
        )
    attributions = {
        arm: attribute_fn(program, config, seed)
        for arm, config in task.attribute
    }
    converged = None
    if task.converge_on:
        converged = evidence_converges(
            program.name, seed, task.converge_on, config=task.csod_config
        )
    return ProgramJudgement(observations, probe, attributions, converged)


def _csod_specs(
    programs: Sequence[OracleProgram],
    configs: Mapping[str, CSODConfig],
    executions_per_app: int,
    arms: Optional[Sequence[str]] = None,
) -> List[ExecutionSpec]:
    """One flat wave; indices unique per (program, arm, repeat)."""
    arms = list(CSOD_ARMS) if arms is None else list(arms)
    specs: List[ExecutionSpec] = []
    for app_i, program in enumerate(programs):
        for arm_j, arm in enumerate(arms):
            for k in range(executions_per_app):
                index = (app_i * len(arms) + arm_j) * executions_per_app + k
                specs.append(
                    ExecutionSpec(
                        app=program.name,
                        seed=program.base_seed + k,
                        index=index,
                        config=configs[arm],
                    )
                )
    return specs


def run_oracle(
    settings: OracleSettings,
    telemetry: Optional[Callable[[dict], None]] = None,
    bug_db=None,
    programs: Optional[Sequence[OracleProgram]] = None,
) -> OracleRun:
    """Run one oracle campaign end to end.

    ``bug_db`` (a :class:`repro.triage.bugdb.BugDatabase`) is optional;
    when given, the campaign's CSOD clusters are folded in and each is
    annotated with every arm that caught its program, so the database
    can name the cheapest production-viable detector per bug.

    ``programs`` overrides generation: callers with externally-built
    programs (the adversarial solver's lowered corners) reuse the whole
    fan-out/judge/score pipeline on them verbatim.  Each program's name
    must still resolve through the buggy registry — fleet workers
    rebuild apps by name.
    """
    selected = resolve_arms(settings.arms)
    fleet_selected = [a for a in selected if get_detector(a).fleet]
    inline_selected = tuple(a for a in selected if not get_detector(a).fleet)
    all_fleet_configs = arm_configs()
    configs = {
        arm: all_fleet_configs.get(arm) or get_detector(arm).config()
        for arm in fleet_selected
    }
    if programs is None:
        programs = [
            generate(settings.seed, index, defect)
            for index, defect in enumerate(
                defect_sequence(settings.budget, settings.defect_mix)
            )
        ]
    else:
        programs = list(programs)

    # --- fleet arms (the CSOD trio) through the pool, then judging ------
    arms = fleet_selected
    csod_config = configs.get(ARM_CSOD)
    aggregator = FleetAggregator()
    with FleetPool(
        workers=settings.workers,
        timeout_seconds=settings.timeout_seconds,
        chunk_size=settings.chunk_size,
    ) as pool:
        results = pool.run_wave(
            _csod_specs(programs, configs, settings.executions_per_app, arms)
        )
        aggregator.add_all(results)

        # Classifying the wave decides what each program's judging task
        # must re-run; the tasks then run on the same leased workers.
        classified: List[Dict[str, ArmObservation]] = []
        tasks: List[JudgingTask] = []
        n = settings.executions_per_app
        for app_i, program in enumerate(programs):
            base = app_i * len(arms) * n
            by_arm = {
                arm: results[base + arm_j * n : base + (arm_j + 1) * n]
                for arm_j, arm in enumerate(arms)
            }
            fleet_obs = {
                arm: classify_csod_results(program, arm, by_arm[arm])
                for arm in arms
            }
            classified.append(fleet_obs)
            tasks.append(
                JudgingTask(
                    program=program,
                    inline_arms=inline_selected,
                    csod_config=csod_config,
                    attribute=tuple(
                        (arm, configs[arm])
                        for arm in arms
                        if program.truth.capability(arm) == CAP_SAMPLED
                        and not fleet_obs[arm].detected
                    ),
                    converge_on=next(
                        (
                            tuple(r.new_evidence)
                            for r in by_arm.get(ARM_CSOD, ())
                            if r.detected and r.new_evidence
                        ),
                        (),
                    ),
                )
            )
        judged = pool.map(judge_program, tasks)

    # --- fold the judgements in program order ---------------------------
    observations: Dict[str, AppObservations] = {}
    invariant_reports: List[InvariantReport] = []
    fn_attributions: Dict[str, str] = {}
    convergence: Dict[str, bool] = {}
    mismatches: List[Mismatch] = []
    detected_arms: Dict[str, set] = {}
    for program, fleet_obs, judgement in zip(programs, classified, judged):
        obs = judgement.observations
        obs.arms.update(fleet_obs)
        observations[program.name] = obs
        detected_arms[program.name] = {
            arm for arm in selected if obs.arms[arm].detected
        }
        probe = judgement.probe
        if probe is not None:
            invariant_reports.append(probe)
        for arm, attribution in judgement.attributions.items():
            fn_attributions[f"{program.name}|{arm}"] = attribution
        if judgement.converged is not None:
            convergence[program.name] = judgement.converged

        mismatch = find_mismatch(program, obs)
        if mismatch is not None:
            mismatches.append(mismatch)

        if telemetry is not None:
            telemetry(
                {
                    "event": "oracle_app",
                    "app": program.name,
                    "defect": program.truth.defect,
                    "truth": program.truth.to_dict(),
                    "arms": {
                        arm: obs.arms[arm].to_dict()
                        for arm in sorted(obs.arms)
                    },
                    "invariants": (
                        probe.to_dict() if probe is not None else None
                    ),
                    "mismatch": (
                        mismatch.to_dict() if mismatch is not None else None
                    ),
                }
            )

    # --- shrink mismatches ----------------------------------------------
    shrunk: List[MinimalRepro] = []
    if settings.shrink > 0 and csod_config is not None:
        for mismatch in mismatches:
            if len(shrunk) >= settings.shrink:
                break
            repro = shrink_app_mismatch(
                mismatch.app, aggregator.reports(), csod_config
            )
            if repro is not None:
                shrunk.append(repro)

    # --- triage hand-off -------------------------------------------------
    if bug_db is not None:
        from repro.triage.clustering import cluster_reports

        clusters = cluster_reports(aggregator.reports())
        bug_db.update(
            clusters,
            campaign_id=f"oracle:s{settings.seed}:b{settings.budget}",
            total_executions=sum(
                observations[p.name].arms[arm].executions
                for p in programs
                for arm in arms
            ),
        )
        for cluster in clusters:
            apps = {m.first_seen_app for m in cluster.members}
            arms_hit = sorted(
                set().union(
                    *(detected_arms.get(app, set()) for app in apps)
                )
                if apps
                else set()
            )
            if arms_hit:
                bug_db.record_detectors(cluster.cluster_id, arms_hit)

    defects = (
        ALL_DEFECTS
        if settings.defect_mix is None
        else tuple(
            d for d in ALL_DEFECTS if settings.defect_mix.get(d, 0.0) > 0
        )
    )
    scorecard = build_scorecard(
        programs,
        observations,
        invariant_reports=invariant_reports,
        fn_attributions=fn_attributions,
        convergence=convergence,
        mismatches=mismatches,
        shrunk=shrunk,
        settings=settings.to_dict(),
        arms=selected,
        defects=defects,
    )
    if telemetry is not None:
        telemetry({"event": "oracle_scorecard", "scorecard": scorecard})
    return OracleRun(
        settings=settings,
        programs=programs,
        observations=observations,
        invariant_reports=invariant_reports,
        fn_attributions=fn_attributions,
        convergence=convergence,
        mismatches=mismatches,
        shrunk=shrunk,
        scorecard=scorecard,
    )


def write_telemetry_line(handle, event: dict) -> None:
    """One deterministic JSONL telemetry record."""
    handle.write(json.dumps(event, sort_keys=True) + "\n")
