"""Central report aggregation.

The fleet-side half of the GWP-ASan architecture: every execution
uploads its reports, and the aggregator collapses them into one row per
*bug* — keyed by :meth:`OverflowReport.signature`, a stable function of
(kind, allocation context, access context) — with hit counts,
first-seen execution index, and Wilson confidence intervals on the
per-execution detection rate (reusing the campaign module's interval,
the same statistic the paper's 1,000-execution protocol needs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.campaign import wilson_interval
from repro.experiments.tables import render_table
from repro.fleet.specs import ExecutionResult


@dataclass
class AggregatedReport:
    """Every observation of one deduplicated bug, fleet-wide."""

    signature: str
    kind: str
    count: int = 0  # raw report observations (pre-dedup)
    executions: int = 0  # distinct executions that raised it
    first_seen: int = -1  # 0-based execution index of the first sighting
    # App/seed of the first-seen execution: (first_seen_app,
    # first_seen_seed, first_seen) identifies the originating
    # ExecutionSpec, the starting point for minimal-repro bisection.
    first_seen_app: str = ""
    first_seen_seed: int = -1
    sources: Dict[str, int] = field(default_factory=dict)
    allocation_context: Tuple[str, ...] = ()
    access_context: Tuple[str, ...] = ()

    def rate_interval(self, total_executions: int) -> Tuple[float, float]:
        """Wilson 95% CI on the per-execution detection rate."""
        return wilson_interval(self.executions, total_executions)

    def first_seen_spec(self) -> dict:
        """The originating execution's spec identity, JSON-ready."""
        return {
            "app": self.first_seen_app,
            "seed": self.first_seen_seed,
            "index": self.first_seen,
        }


class FleetAggregator:
    """Merges ExecutionResults into deduplicated fleet-wide reports."""

    def __init__(self):
        self._reports: Dict[str, AggregatedReport] = {}
        self.executions = 0
        self.executions_ok = 0
        self.executions_detected = 0
        self.executions_detected_by_watchpoint = 0
        self.raw_reports = 0
        self.failed: List[ExecutionResult] = []

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def add(self, result: ExecutionResult) -> None:
        """Fold one execution's upload into the fleet view."""
        self.executions += 1
        if not result.ok:
            self.failed.append(result)
            return
        self.executions_ok += 1
        if result.detected:
            self.executions_detected += 1
        if result.detected_by_watchpoint:
            self.executions_detected_by_watchpoint += 1
        seen_this_execution = set()
        for record in result.reports:
            self.raw_reports += 1
            entry = self._reports.get(record.signature)
            if entry is None:
                entry = AggregatedReport(
                    signature=record.signature,
                    kind=record.kind,
                    first_seen=result.index,
                    first_seen_app=result.app,
                    first_seen_seed=result.seed,
                    allocation_context=record.allocation_context,
                    access_context=record.access_context,
                )
                self._reports[record.signature] = entry
            entry.count += 1
            entry.sources[record.source] = entry.sources.get(record.source, 0) + 1
            if record.signature not in seen_this_execution:
                entry.executions += 1
                seen_this_execution.add(record.signature)
            if result.index < entry.first_seen:
                entry.first_seen = result.index
                entry.first_seen_app = result.app
                entry.first_seen_seed = result.seed

    def add_all(self, results) -> None:
        for result in results:
            self.add(result)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def reports(self) -> List[AggregatedReport]:
        """Aggregated reports, most-seen first (signature breaks ties)."""
        return sorted(
            self._reports.values(), key=lambda r: (-r.count, r.signature)
        )

    def unique_reports(self) -> int:
        return len(self._reports)

    @property
    def dedup_ratio(self) -> float:
        """Raw observations per unique bug (1.0 = no duplication)."""
        if not self._reports:
            return 0.0
        return self.raw_reports / len(self._reports)

    def detection_rate_interval(self) -> Tuple[float, float]:
        """Wilson CI on P(an execution detects anything)."""
        if self.executions_ok == 0:
            return 0.0, 0.0
        return wilson_interval(self.executions_detected, self.executions_ok)

    def to_dict(self) -> dict:
        """The deterministic, JSON-ready fleet summary.

        Contains only execution-stable facts (signatures, counts,
        indices) — no timestamps, addresses, or wall-clock — so two
        identically-seeded campaigns serialise byte-identically.
        """
        return {
            "executions": self.executions,
            "executions_ok": self.executions_ok,
            "executions_detected": self.executions_detected,
            "executions_detected_by_watchpoint": self.executions_detected_by_watchpoint,
            "raw_reports": self.raw_reports,
            "unique_reports": self.unique_reports(),
            "dedup_ratio": round(self.dedup_ratio, 4),
            "detection_rate": (
                round(self.executions_detected / self.executions_ok, 6)
                if self.executions_ok
                else 0.0
            ),
            "reports": [
                {
                    "signature": entry.signature,
                    "kind": entry.kind,
                    "count": entry.count,
                    "executions": entry.executions,
                    "first_seen": entry.first_seen,
                    "first_seen_spec": entry.first_seen_spec(),
                    "sources": dict(sorted(entry.sources.items())),
                    "allocation_context": list(entry.allocation_context),
                    "access_context": list(entry.access_context),
                }
                for entry in self.reports()
            ],
        }


def render_fleet_report(
    aggregator: FleetAggregator, title: str = "Fleet campaign"
) -> str:
    """The aggregated-report table plus a summary footer."""
    rows = []
    for entry in aggregator.reports():
        lo, hi = entry.rate_interval(max(aggregator.executions_ok, 1))
        top_alloc = entry.allocation_context[0] if entry.allocation_context else "?"
        sources = ",".join(
            f"{name}x{count}" for name, count in sorted(entry.sources.items())
        )
        rows.append(
            [
                entry.kind,
                top_alloc,
                entry.count,
                entry.executions,
                entry.first_seen + 1,  # 1-based for humans
                f"[{lo:.1%}, {hi:.1%}]",
                sources,
            ]
        )
    table = render_table(
        [
            "kind",
            "allocation site",
            "reports",
            "executions",
            "first seen",
            "95% CI",
            "sources",
        ],
        rows,
        title=title,
    )
    lo, hi = aggregator.detection_rate_interval()
    footer = (
        f"executions={aggregator.executions} ok={aggregator.executions_ok} "
        f"detected={aggregator.executions_detected} "
        f"rate CI=[{lo:.1%}, {hi:.1%}] "
        f"raw reports={aggregator.raw_reports} "
        f"unique={aggregator.unique_reports()} "
        f"dedup={aggregator.dedup_ratio:.2f}x"
    )
    return table + "\n" + footer
