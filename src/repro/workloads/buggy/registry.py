"""Registry of the nine buggy applications.

``spec_for(name)`` returns the full-scale Table III structure;
``app_for(name, scale=None)`` returns a runnable app, by default at the
*effectiveness scale* — a structurally similar shrink of the largest
applications so that the 1,000-execution Table II runs are tractable in
pure Python.  Full-scale runs (``scale=1.0``) are used for the Table III
characteristics, which are measured once.  Built apps are kept in a
bounded least-recently-used cache: every generated oracle genome is a
new name, so an unbounded cache would grow with every program a process
ever ran, and an evicted app rebuilds deterministically from its name.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import BuggyAppSpec, SyntheticBuggyApp
from repro.workloads.buggy.specs import ALL_SPECS

BUGGY_APPS: Dict[str, BuggyAppSpec] = {spec.name: spec for spec in ALL_SPECS}

# Scale factors for the repeated-execution experiments.  Only the two
# applications with tens of thousands of allocations are shrunk; the
# allocations-per-context ratio and the victim's relative position are
# preserved (see BuggyAppSpec.scaled).
EFFECTIVENESS_SCALE: Dict[str, float] = {
    "heartbleed": 0.25,
    "mysql": 0.05,
}

# Apps kept by app_for, least recently used first.  The bound holds the
# nine hand-written apps plus a few oracle batches (a campaign of 12 to
# 20 generated programs); a larger oracle budget rebuilds each evicted
# program once more, on its next use.
APP_CACHE_SIZE = 64
_app_cache: "OrderedDict[Tuple[str, float], SyntheticBuggyApp]" = OrderedDict()

# Generated oracle programs are addressed by self-describing names
# (``oracle:s<seed>:i<index>:<defect>``); the name alone rebuilds the
# app, which is what lets fleet workers and the triage bisector resolve
# generated apps exactly like the hand-written nine.  Solver-produced
# adversarial corners (``adv:s<seed>:t<target>``) resolve the same way.
ORACLE_PREFIX = "oracle:"
ADV_PREFIX = "adv:"


def spec_for(name: str) -> BuggyAppSpec:
    """The full-scale structural spec for one application."""
    try:
        return BUGGY_APPS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown buggy application {name!r}; "
            f"expected one of {sorted(BUGGY_APPS)}"
        ) from None


def app_for(name: str, scale: Optional[float] = None) -> SyntheticBuggyApp:
    """A runnable app, cached per (name, scale) in a bounded LRU.

    ``scale=None`` selects the effectiveness scale (1.0 for most apps).
    Caching matters: building the MySQL schedule walks 57k events, and
    the Table II driver re-runs each app hundreds of times.  The cache
    keeps the :data:`APP_CACHE_SIZE` most recently used apps.
    """
    if scale is None:
        scale = EFFECTIVENESS_SCALE.get(name, 1.0)
    key = (name, scale)
    # Pop and re-insert to mark the entry most recently used: each step
    # is one atomic dict operation, so concurrent callers (the service
    # runs waves on job threads) at worst build an app twice.
    app = _app_cache.pop(key, None)
    if app is None:
        if name.startswith(ORACLE_PREFIX):
            # Imported lazily: the oracle layer sits above workloads.
            from repro.oracle.generator import oracle_app_from_name

            app = oracle_app_from_name(name, scale)
        elif name.startswith(ADV_PREFIX):
            from repro.oracle.adversarial import adversarial_app_from_name

            app = adversarial_app_from_name(name, scale)
        else:
            app = SyntheticBuggyApp(spec_for(name).scaled(scale))
    _app_cache[key] = app
    while len(_app_cache) > APP_CACHE_SIZE:
        _app_cache.popitem(last=False)
    return app
