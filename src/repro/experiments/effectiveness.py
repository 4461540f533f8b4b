"""Table I / Table II / Fig. 6 — effectiveness experiments.

``run_table2`` re-runs every buggy application N times per replacement
policy (the paper used 1,000; the default here is smaller so the bench
finishes in minutes of pure Python — pass ``runs=1000`` for the full
protocol) and counts the executions in which the overflow was caught by
a *watchpoint*.  Canary-only evidence is tallied separately: it tells
the user an overflow happened, but the faulting statement — the Fig. 6
root cause — comes from the watchpoint trap, which is what Table II
counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.asan import ASanRuntime
from repro.core import CSODConfig, CSODRuntime
from repro.core.config import POLICIES, POLICY_RANDOM
from repro.experiments import paper_data
from repro.experiments.tables import render_table
from repro.workloads.base import SimProcess
from repro.workloads.buggy import BUGGY_APPS, app_for

DEFAULT_RUNS = 200


@dataclass(frozen=True)
class EffectivenessRow:
    """One Table II row: detections per policy, plus the paper's."""

    app: str
    runs: int
    detections: Dict[str, int]  # policy -> watchpoint detections
    evidence_detections: Dict[str, int]  # policy -> canary evidence
    paper: Dict[str, int]  # policy -> detections /1000

    def rate(self, policy: str) -> float:
        return self.detections[policy] / self.runs

    def paper_rate(self, policy: str) -> float:
        return self.paper[policy] / 1000.0


def run_app_once(
    name: str,
    seed: int,
    policy: str = POLICY_RANDOM,
    config: Optional[CSODConfig] = None,
) -> CSODRuntime:
    """One execution of one buggy app under CSOD; returns the runtime."""
    app = app_for(name)
    process = SimProcess(seed=seed)
    csod = CSODRuntime(
        process.machine,
        process.heap,
        config or CSODConfig(replacement_policy=policy),
        seed=seed,
    )
    app.run(process)
    csod.shutdown()
    return csod


def run_table2(
    runs: int = DEFAULT_RUNS,
    apps: Optional[Sequence[str]] = None,
    policies: Sequence[str] = POLICIES,
) -> List[EffectivenessRow]:
    """The Table II protocol: ``runs`` executions per app per policy."""
    rows = []
    for name in apps or sorted(BUGGY_APPS):
        detections = {}
        evidence = {}
        for policy in policies:
            hits = 0
            canary_hits = 0
            for seed in range(runs):
                csod = run_app_once(name, seed, policy)
                if csod.detected_by_watchpoint:
                    hits += 1
                elif csod.detected:
                    canary_hits += 1
            detections[policy] = hits
            evidence[policy] = canary_hits
        rows.append(
            EffectivenessRow(
                app=name,
                runs=runs,
                detections=detections,
                evidence_detections=evidence,
                paper=dict(zip(POLICIES, paper_data.TABLE2[name])),
            )
        )
    return rows


def average_detection_rate(
    rows: Sequence[EffectivenessRow], policy: str = POLICY_RANDOM
) -> float:
    """The paper's "58% on average" aggregate."""
    return sum(row.rate(policy) for row in rows) / len(rows)


def render_table2(rows: Sequence[EffectivenessRow]) -> str:
    headers = ["Application", "Runs"]
    for policy in POLICIES:
        headers += [f"{policy}", f"paper/{policy}"]
    body = []
    for row in rows:
        cells: List[object] = [row.app, row.runs]
        for policy in POLICIES:
            cells.append(f"{row.rate(policy):.1%}")
            cells.append(f"{row.paper_rate(policy):.1%}")
        body.append(cells)
    avg: List[object] = ["AVERAGE", ""]
    for policy in POLICIES:
        avg.append(f"{average_detection_rate(rows, policy):.1%}")
        paper_avg = sum(r.paper_rate(policy) for r in rows) / len(rows)
        avg.append(f"{paper_avg:.1%}")
    body.append(avg)
    return render_table(headers, body, title="Table II — effectiveness")


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def table1_rows() -> List[List[str]]:
    rows = []
    for name in sorted(BUGGY_APPS):
        spec = BUGGY_APPS[name]
        paper_kind, paper_ref = paper_data.TABLE1[name]
        rows.append(
            [name, spec.bug_kind, spec.reference, paper_kind.lower(), paper_ref]
        )
    return rows


def render_table1() -> str:
    return render_table(
        ["Application", "Vulnerability", "Reference", "paper/vuln", "paper/ref"],
        table1_rows(),
        title="Table I — applications",
    )


# ----------------------------------------------------------------------
# ASan comparison (the §V-A1 discussion)
# ----------------------------------------------------------------------
def asan_detection(apps: Optional[Sequence[str]] = None, seed: int = 11) -> Dict[str, bool]:
    """Whether ASan (uninstrumented libraries) detects each bug."""
    results = {}
    for name in apps or sorted(BUGGY_APPS):
        process = SimProcess(seed=seed)
        asan = ASanRuntime(process.machine, process.heap)
        app_for(name).run(process)
        asan.shutdown()
        results[name] = asan.detected
    return results


# ----------------------------------------------------------------------
# Fig. 6 — the bug report
# ----------------------------------------------------------------------
def figure6_report(seed_limit: int = 64) -> str:
    """A Heartbleed dual-context report, like the paper's Fig. 6."""
    for seed in range(seed_limit):
        process = SimProcess(seed=seed)
        csod = CSODRuntime(process.machine, process.heap, CSODConfig(), seed=seed)
        app_for("heartbleed").run(process)
        csod.shutdown()
        watchpoint_reports = [r for r in csod.reports if r.source == "watchpoint"]
        if watchpoint_reports:
            return watchpoint_reports[0].render(process.symbols)
    raise RuntimeError("no detection within the seed budget")
