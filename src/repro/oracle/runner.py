"""The fleet-scale oracle campaign.

``run_oracle`` is what ``python -m repro oracle --budget N`` executes:

1. **Generate** — ``budget`` programs, defect classes dealt from the
   requested mix by largest-remainder apportionment (deterministic: no
   RNG touches the sequence).
2. **Fan out** — every program runs ``executions_per_app`` times under
   each selected CSOD arm (near-FIFO with evidence, random replacement
   with evidence, watchpoints-only) through one :class:`FleetPool`
   wave, so the aggregate is worker-count-invariant.  The inline
   baselines (ASan, guard pages, GWP-ASan, DoubleTake) are
   deterministic and run once each.  ``--arms`` restricts the matrix
   to a subset of registered detector arms.
3. **Judge** — every report is classified against the program's
   manifest; CSOD invariants are probed on an instrumented inline
   execution per program; all-miss sampled defects are attributed
   (sampling vs. logic) by a pinned re-run; detections are re-run with
   their evidence to check §V-A2 convergence.
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
from repro.fleet.specs import ExecutionResult, ExecutionSpec
from repro.oracle.generator import OracleProgram, generate
from repro.oracle.grammar import (
    ALL_DEFECTS,
    ARM_CSOD,
    CAP_SAMPLED,
    CSOD_ARMS,
)
from repro.oracle.harness import (
    AppObservations,
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

    # --- fleet arms (the CSOD trio) through the pool ---------------------
    arms = fleet_selected
    aggregator = FleetAggregator()
    results: List[ExecutionResult] = []
    if arms:
        specs = _csod_specs(
            programs, configs, settings.executions_per_app, arms=arms
        )
        pool = FleetPool(
            workers=settings.workers,
            timeout_seconds=settings.timeout_seconds,
            chunk_size=settings.chunk_size,
        )
        try:
            results = pool.run_wave(specs)
        finally:
            # The oracle's fleet work is one wave; closing here (not at
            # campaign end) releases the lease on the shared workers, so
            # they idle out if the serial judging phase runs long.
            pool.close()
        aggregator.add_all(results)

    def results_for(app_i: int, arm_j: int) -> List[ExecutionResult]:
        base = (app_i * len(arms) + arm_j) * settings.executions_per_app
        return results[base : base + settings.executions_per_app]

    # --- judge every arm -------------------------------------------------
    csod_selected = ARM_CSOD in configs
    observations: Dict[str, AppObservations] = {}
    invariant_reports: List[InvariantReport] = []
    fn_attributions: Dict[str, str] = {}
    convergence: Dict[str, bool] = {}
    mismatches: List[Mismatch] = []
    detected_arms: Dict[str, set] = {}
    for app_i, program in enumerate(programs):
        obs = observe_app(program, program.base_seed, arms=inline_selected)
        for arm_j, arm in enumerate(arms):
            obs.arms[arm] = classify_csod_results(
                program, arm, results_for(app_i, arm_j)
            )
        observations[program.name] = obs
        detected_arms[program.name] = {
            arm for arm in selected if obs.arms[arm].detected
        }

        # CSOD invariant probe (one instrumented inline execution).
        probe = None
        if csod_selected:
            probe = probe_invariants(
                program.name,
                program.base_seed,
                config=configs[ARM_CSOD],
                victim_marker=program.truth.victim_marker,
            )
            invariant_reports.append(probe)

        # FN attribution: sampled-capability arms that missed everywhere.
        for arm in arms:
            capability = program.truth.capability(arm)
            if capability == CAP_SAMPLED and not obs.arms[arm].detected:
                fn_attributions[f"{program.name}|{arm}"] = attribute_fn(
                    program, configs[arm], program.base_seed
                )

        # Evidence convergence (§V-A2) on the evidence arm's detections.
        if csod_selected:
            detecting = [
                r
                for r in results_for(app_i, arms.index(ARM_CSOD))
                if r.detected and r.new_evidence
            ]
            if detecting:
                first = detecting[0]
                convergence[program.name] = evidence_converges(
                    program.name,
                    program.base_seed,
                    tuple(first.new_evidence),
                    config=configs[ARM_CSOD],
                )

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
    if settings.shrink > 0 and csod_selected:
        for mismatch in mismatches:
            if len(shrunk) >= settings.shrink:
                break
            repro = shrink_app_mismatch(
                mismatch.app, aggregator.reports(), configs[ARM_CSOD]
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
