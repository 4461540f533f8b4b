"""The Termination Handling Unit (§IV-B).

Three responsibilities:

* an exit-time sweep of all live canaries (via the registered exit
  function) so overflows into leaked or still-live objects are found;
* a common handler for erroneous exits (``SIGSEGV``/``SIGABRT``) that
  runs the same sweep before the process dies — a crashing overflow
  still leaves evidence;
* persistence: every allocation calling context observed to overflow is
  written to a file, and future executions preload it with probability
  100%, which is what makes over-write detection *certain* by the second
  run (§V-A2).

The sweep's order, its reports and the file are
:mod:`repro.core.evidence`'s; this unit registers the exit and crash
hooks that run them.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import evidence
from repro.core.canary import CanaryManagementUnit
from repro.core.reporting import OverflowReport, ReportSink
from repro.core.sampling import SamplingManagementUnit
from repro.machine.signals import SIGABRT, SIGSEGV, SigInfo, SignalTable
from repro.machine.threads import SimThread


class TerminationHandlingUnit:
    """Exit/crash sweeps and cross-execution evidence persistence."""

    def __init__(
        self,
        signals: SignalTable,
        canary: CanaryManagementUnit,
        sampling: SamplingManagementUnit,
        clock,
        sink: ReportSink,
        persistence_path: Optional[str] = None,
    ):
        self._canary = canary
        self._sampling = sampling
        self._clock = clock
        self._sink = sink
        self._persistence_path = persistence_path
        self._exit_ran = False
        self.crash_sweeps = 0
        # Intercept erroneous exits: "CSOD registers a common signal
        # handler to intercept erroneous exits caused by segmentation
        # faults or aborts."
        signals.sigaction(SIGSEGV, self._on_fatal_signal)
        signals.sigaction(SIGABRT, self._on_fatal_signal)

    # ------------------------------------------------------------------
    # Exit paths
    # ------------------------------------------------------------------
    def on_exit(self) -> List[OverflowReport]:
        """The registered exit function: sweep all live canaries."""
        if self._exit_ran:
            return []
        self._exit_ran = True
        return self._sweep()

    def _on_fatal_signal(self, signo: int, info: SigInfo, thread: SimThread) -> None:
        self.crash_sweeps += 1
        self._sweep()
        # Returning lets the default fatal disposition proceed — CSOD
        # observes the crash, it does not recover from it.

    def _sweep(self) -> List[OverflowReport]:
        return evidence.sweep(self._canary, self._clock, self._sink, self.persist)

    def persist(self) -> int:
        """Merge every overflow-observed context signature into the
        persistence file (:func:`repro.core.evidence.persist`)."""
        return evidence.persist(self._persistence_path, self._sampling.records())
