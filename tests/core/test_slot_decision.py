"""The slot decision as both hot paths drive it (§III-C2).

``tests/core/test_policies.py`` tests the spec functions themselves and
``tests/core/test_watchpoints.py`` the pre-draw observation instant;
this pins what both drivers must keep around them: a near-FIFO pointer
that a deallocation never moves, whichever driver handles the free.
"""

import pytest

from repro.callstack.frames import CallSite
from repro.core import CSODConfig, CSODRuntime
from repro.core.config import HOTPATH_BATCHED, HOTPATH_LEGACY, POLICY_NEAR_FIFO
from repro.core.sampling import observe
from repro.workloads.base import SimProcess


@pytest.mark.parametrize("hotpath", (HOTPATH_LEGACY, HOTPATH_BATCHED))
def test_a_free_never_moves_the_near_fifo_pointer(hotpath):
    process = SimProcess(seed=3)
    runtime = CSODRuntime(
        process.machine,
        process.heap,
        CSODConfig(replacement_policy=POLICY_NEAR_FIFO, hotpath=hotpath),
        seed=3,
    )
    thread = process.main_thread
    wmu = runtime.wmu
    sites = [CallSite("FIFO", "fifo.c", i, f"ctx{i}") for i in range(6)]

    def malloc(site):
        with thread.call_stack.calling(site):
            return process.heap.malloc(thread, 32)

    # A pinned context: its draws always pass, and every unpinned slot
    # (watch-halved to ~0.25) is weaker.
    strong = malloc(sites[5])
    observe(wmu.find_by_object_address(strong).record)
    process.heap.free(thread, strong)

    a = [malloc(sites[i]) for i in range(4)]  # slots 0-3, by availability
    x1 = malloc(sites[5])  # replaces slot 0; the pointer moves to 1
    process.heap.free(thread, a[2])  # a hole at slot 2
    b = malloc(sites[4])  # fills the hole
    x2 = malloc(sites[5])  # probes from the pointer: slot 1
    assert [w.object_address for w in wmu._slots] == [x1, x2, b, a[3]]
    assert (wmu.replace_count, wmu.declined_count) == (2, 0)
    runtime.shutdown()
