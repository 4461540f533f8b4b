"""CSOD — the paper's contribution.

The runtime is organized exactly as the paper's Fig. 1: an Alloc/Dealloc
Monitoring Unit intercepting heap calls, a Sampling Management Unit
adapting per-context probabilities, a Watchpoint Management Unit driving
the four hardware watchpoints through ``perf_event_open``, a Signal
Handling Unit turning SIGTRAPs into dual-context reports, and — for the
evidence-based mode of §IV-B — a Canary Management Unit plus a
Termination Handling Unit with cross-execution persistence.

Typical use::

    process = SimProcess(seed=7)        # machine + heap + symbols
    csod = CSODRuntime(
        process.machine,
        process.heap,
        CSODConfig(replacement_policy="near_fifo"),
        seed=7,
    )
    workload.run(process)
    csod.shutdown()
    for report in csod.reports:
        print(report.render(process.symbols))
"""

from repro.core.config import CSODConfig, ReplacementPolicyName
from repro.core.reporting import OverflowReport
from repro.core.runtime import CSODRuntime
from repro.core.sampling import ContextRecord, SamplingManagementUnit
from repro.core.watchpoints import WatchedObject, WatchpointManagementUnit

__all__ = [
    "CSODConfig",
    "ReplacementPolicyName",
    "OverflowReport",
    "CSODRuntime",
    "ContextRecord",
    "SamplingManagementUnit",
    "WatchedObject",
    "WatchpointManagementUnit",
]
