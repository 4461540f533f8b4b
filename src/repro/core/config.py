"""CSOD's tunable parameters.

The paper states that its probability constants "are pre-defined macros
used at compilation time, which could be further adjusted based on the
behavior of programs" (§III-B2).  :class:`CSODConfig` is the runtime
analogue of those macros; every published constant is the default here,
and the ablation benchmarks sweep them.

All probabilities are stored as fractions (the paper writes percent):
50% -> 0.5, 0.001% -> 1e-5, 0.0001% -> 1e-6, 0.01% -> 1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import CSODError

POLICY_NAIVE = "naive"
POLICY_RANDOM = "random"
POLICY_NEAR_FIFO = "near_fifo"

ReplacementPolicyName = str

# Every replacement policy, in Table II's column order.
POLICIES = (POLICY_NAIVE, POLICY_RANDOM, POLICY_NEAR_FIFO)

HOTPATH_BATCHED = "batched"
HOTPATH_LEGACY = "legacy"

_VALID_HOTPATHS = (HOTPATH_BATCHED, HOTPATH_LEGACY)


@dataclass(frozen=True)
class CSODConfig:
    """All knobs of the CSOD runtime, defaulting to the paper's values."""

    # --- Sampling Management Unit (§III-B2) ---------------------------
    # Every calling context starts at 50%: "treated by CSOD as if it were
    # equally likely to either contain a bug or be bug-free."
    initial_probability: float = 0.5
    # Degradation on each allocation: 0.001 percentage points.
    degradation_per_alloc: float = 1e-5
    # Degradation after each watch: multiply by 1/2.
    watch_degradation_factor: float = 0.5
    # Lower bound: 0.001%.
    floor_probability: float = 1e-5
    # Throttle: contexts with > 5,000 allocations within 10 seconds drop
    # to 0.0001% until the window elapses.
    throttle_alloc_threshold: int = 5000
    throttle_window_seconds: float = 10.0
    throttle_probability: float = 1e-6

    # --- Reviving mechanism (§IV-A) ------------------------------------
    # Floor-bound contexts are randomly boosted to 0.01% after a period.
    revive_probability: float = 1e-4
    revive_period_seconds: float = 30.0
    revive_chance: float = 0.1

    # --- Watchpoint Management Unit (§III-C2) --------------------------
    replacement_policy: ReplacementPolicyName = POLICY_NEAR_FIFO
    # §V-B future work: combine the eight install/remove syscalls per
    # thread into one custom syscall.  Off by default (the paper's
    # deployed configuration runs on an unmodified kernel).
    batched_syscalls: bool = False
    # Disable the watchpoints entirely: what remains is a
    # HeapTherapy-style evidence-only detector (canaries checked at free
    # and exit).  It catches over-writes after the fact, with no faulting
    # statement and no over-read coverage — the §VII comparison.
    watchpoints_enabled: bool = True
    # An installed watchpoint's effective probability halves per aging
    # period: "an object without overflows for an extended period will
    # likely have a lower chance of experiencing overflows in the future."
    watchpoint_age_seconds: float = 10.0

    # --- Evidence-based detection (§IV-B) ------------------------------
    evidence_enabled: bool = True
    # Where overflowing contexts are persisted across executions; None
    # disables persistence (in-process evidence still works).
    persistence_path: Optional[str] = None

    # --- Simulator implementation (not a paper knob) -------------------
    # Which per-allocation driver the runtime uses.  "batched" fuses the
    # sampling/canary/watchpoint steps into one flat routine that charges
    # precompiled cost bundles; "legacy" dispatches unit by unit with one
    # ledger record per event.  Both paths produce identical ledgers,
    # clocks, and reports (pinned by the equivalence harness); "legacy"
    # exists as the reference and for instrumentation that hooks the
    # individual unit methods.
    hotpath: str = HOTPATH_BATCHED

    def __post_init__(self):
        if self.hotpath not in _VALID_HOTPATHS:
            raise CSODError(
                f"unknown hotpath {self.hotpath!r}; "
                f"expected one of {_VALID_HOTPATHS}"
            )
        if self.replacement_policy not in POLICIES:
            raise CSODError(
                f"unknown replacement policy {self.replacement_policy!r}; "
                f"expected one of {POLICIES}"
            )
        for name in (
            "initial_probability",
            "degradation_per_alloc",
            "watch_degradation_factor",
            "floor_probability",
            "throttle_probability",
            "revive_probability",
            "revive_chance",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise CSODError(f"{name} must be in [0, 1], got {value}")
        if self.throttle_alloc_threshold <= 0:
            raise CSODError("throttle_alloc_threshold must be positive")
        if self.throttle_window_seconds <= 0:
            raise CSODError("throttle_window_seconds must be positive")
        if self.watchpoint_age_seconds <= 0:
            raise CSODError("watchpoint_age_seconds must be positive")
        if self.floor_probability > self.initial_probability:
            raise CSODError("floor probability exceeds the initial probability")

    def without_evidence(self) -> "CSODConfig":
        """The "CSOD w/o Evidence" configuration of Fig. 7."""
        # dataclasses.replace re-runs __init__, so subclasses with
        # non-init (derived) fields still clone correctly.
        return replace(self, evidence_enabled=False, persistence_path=None)

    def with_policy(self, policy: ReplacementPolicyName) -> "CSODConfig":
        """The same configuration under a different replacement policy."""
        return replace(self, replacement_policy=policy)

    def with_hotpath(self, hotpath: str) -> "CSODConfig":
        """The same configuration under a different hot-path driver."""
        return replace(self, hotpath=hotpath)
