"""Import layering and the one arm list.

The detector registry sits below the oracle: the perf model must not
pull in detector arms, and the registry must not pull in the oracle.
Each import runs in a fresh interpreter so modules other tests loaded
cannot mask a stray import.  The oracle's arm lists and its inline
dispatch table are then pinned to the registry, so an arm registered
without an observer fails here.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.detectors import fleet_arms, inline_arms, known_arms
from repro.oracle import grammar, harness

_LOADED_SCRIPT = r"""
import importlib, json, sys
importlib.import_module(sys.argv[1])
prefix = sys.argv[2]
print(json.dumps(sorted(
    m for m in sys.modules if m == prefix or m.startswith(prefix + ".")
)))
"""


def _loaded_after_import(module: str, prefix: str):
    """Modules under ``prefix`` a fresh ``import module`` loads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _LOADED_SCRIPT, module, prefix],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("repro.perfmodel.costs", "repro.detectors"),
        ("repro.detectors", "repro.oracle"),
    ],
)
def test_import_loads_nothing_from_the_layer_above(module, forbidden):
    assert _loaded_after_import(module, forbidden) == []


def test_grammar_arm_lists_are_the_registry():
    assert grammar.ALL_ARMS == known_arms()
    assert grammar.CSOD_ARMS == fleet_arms()


def test_every_inline_arm_has_one_observer_in_canonical_order():
    assert tuple(harness.INLINE_OBSERVERS) == inline_arms()
