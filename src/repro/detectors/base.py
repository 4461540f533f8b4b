"""The detector-arm interface.

A *detector arm* is one memory-safety detector wired into the
differential oracle: CSOD and its ablations, plus the production
baselines the paper compares against.  Each arm is one
:class:`Detector` row in the registry, so the oracle, the fleet
scheduler, triage, and the perf model can treat "which detector" as
data instead of hard-coded call sites.

Lifecycle contract (mirrors how every runtime in this repo behaves):

* **install** — the runtime's constructor interposes on the heap
  (``interposer.preload(self)``) and registers any signal or CPU access
  hooks it needs.  Construction *is* installation.
* **per-allocation / per-access / per-free checks** — the runtime's
  ``malloc``/``free`` (HeapLibrary surface) and any registered access
  hooks.  Each check charges its modeled cost into the machine's
  :class:`~repro.perfmodel.accounting.CostLedger` via
  ``machine.ledger.record(event, nanos_each=...)`` using the event
  names the arm declares in :attr:`Detector.cost_events`.
* **teardown** — ``shutdown()`` unloads the interposer, removes hooks,
  and (for epoch-based arms) runs any final sweep.

Reports are normalized to :class:`DetectorReport` so the oracle judge
can attribute a finding to the planted defect without knowing which
runtime produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ReproError


@dataclass(frozen=True)
class DetectorReport:
    """One finding, normalized across arms.

    Contexts are tuples of rendered frames (``MODULE/file:line``, the
    same rendering the ground-truth markers use) so judging reduces to
    membership tests.  ``deallocation_context`` is only populated by
    arms that record free stacks (gwp-asan slot metadata, doubletake
    quarantine bookkeeping).
    """

    arm: str
    kind: str
    fault_address: int
    object_address: int
    object_size: int
    thread_id: int
    allocation_context: Tuple[str, ...]
    access_context: Tuple[str, ...] = ()
    deallocation_context: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "arm": self.arm,
            "kind": self.kind,
            "fault_address": self.fault_address,
            "object_address": self.object_address,
            "object_size": self.object_size,
            "thread_id": self.thread_id,
            "allocation_context": list(self.allocation_context),
            "access_context": list(self.access_context),
            "deallocation_context": list(self.deallocation_context),
        }


@dataclass(frozen=True)
class Detector:
    """One arm of the cross-detector study: the fields callers read.

    Running and judging an arm is not the record's job: the oracle
    harness (:mod:`repro.oracle.harness`) does both.  Fleet arms (the
    CSOD family) carry a ``config_factory`` building the
    :class:`~repro.core.config.CSODConfig` the fleet pool runs; inline
    arms leave it unset and run through the harness's observers.
    """

    #: Canonical arm name (`repro oracle --arms` spelling).
    name: str
    #: One-line description for docs and ``--arms`` error listings.
    summary: str
    #: Whether the arm is deployable fleet-wide in production.  ASan's
    #: ~73% overhead keeps it a CI/testing tool; everything else here
    #: ships (or is designed to ship) on end-user machines.
    production_viable: bool = True
    #: Modeled steady-state runtime overhead (percent) used to rank
    #: arms when triage asks for the cheapest detector that caught a
    #: bug.  Sources: the CSOD paper's geo-means for the CSOD family
    #: and ASan; published figures for the baselines.
    modeled_overhead_pct: float = 0.0
    #: Ledger event names the arm's checks charge costs under.
    cost_events: Tuple[str, ...] = ()
    #: Builds the CSODConfig fleet runtimes run under (fleet arms only).
    config_factory: Optional[Callable[[], object]] = None

    @property
    def fleet(self) -> bool:
        """True when the arm executes through the fleet pool."""
        return self.config_factory is not None

    def config(self):
        """The CSODConfig the fleet builds this arm's runtimes from."""
        if self.config_factory is None:
            raise ReproError(f"detector arm {self.name!r} is not a fleet arm")
        return self.config_factory()

    def describe(self) -> Dict[str, object]:
        """Stable JSON-able self-description (docs, ``--arms`` help)."""
        return {
            "name": self.name,
            "summary": self.summary,
            "production_viable": self.production_viable,
            "modeled_overhead_pct": self.modeled_overhead_pct,
            "fleet": self.fleet,
            "cost_events": list(self.cost_events),
        }
