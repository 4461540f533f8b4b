"""``FleetPool.map``: per-item calls on the shared workers.

The oracle judges its programs through ``map``, so a call must come
back in item order at any worker count, an exception must reach the
caller, a worker death must be retried once on the pool (never in the
coordinator), and a stop must unwind the way a stopped wave does.
"""

import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import CampaignCancelled
from repro.fleet import pool as pool_mod
from repro.fleet.pool import FleetPool


class Boom(Exception):
    """Raised by a mapped function; module-level so it pickles."""


def square_slowly(item):
    # Even items finish last, so completion order is not item order.
    time.sleep(0.05 if item % 2 == 0 else 0.0)
    return item * item, os.getpid()


def fail_on_three(item):
    if item == 3:
        raise Boom(f"item {item}")
    return item


def die_once(marker):
    # The first attempt anywhere kills its worker process outright.
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write(f"{os.getpid()}\n")
        os._exit(1)
    return os.getpid()


def die_in_any_worker(coordinator_pid):
    if os.getpid() != coordinator_pid:
        os._exit(1)
    return "ran in the coordinator"


def sleep_for(seconds):
    time.sleep(seconds)
    return seconds


def _holds_lease(pool):
    return pool._token in pool_mod._SHARED._leases


@pytest.mark.parametrize("workers", [1, 2])
def test_results_come_back_in_item_order(workers):
    items = list(range(7))
    with FleetPool(workers=workers) as pool:
        results = pool.map(square_slowly, items)
    assert [value for value, _ in results] == [i * i for i in items]
    pids = {pid for _, pid in results}
    if workers == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids


def test_empty_items_return_nothing():
    with FleetPool(workers=2) as pool:
        assert pool.map(square_slowly, []) == []
        assert not _holds_lease(pool)


@pytest.mark.parametrize("workers", [1, 2])
def test_an_exception_propagates_and_leaves_no_lease(workers):
    pool = FleetPool(workers=workers)
    with pytest.raises(Boom, match="item 3"):
        pool.map(fail_on_three, range(6))
    assert not _holds_lease(pool)
    assert pool._lease is None
    pool.close()


def test_a_dead_worker_is_resubmitted_once(tmp_path):
    marker = str(tmp_path / "died")
    with FleetPool(workers=2) as pool:
        (pid,) = pool.map(die_once, [marker])
    # The second attempt ran in a live worker, not in the coordinator.
    assert pid != os.getpid()
    with open(marker) as handle:
        assert int(handle.read()) != pid
    assert pool.crashes == 1
    assert pool.retries == 1
    assert pool.executor_rebuilds == 1


def test_a_second_death_raises_without_an_inline_fallback():
    pool = FleetPool(workers=2)
    with pytest.raises(BrokenProcessPool):
        pool.map(die_in_any_worker, [os.getpid()])
    assert pool.crashes == 2
    assert pool.retries == 1
    assert not _holds_lease(pool)


def test_a_death_is_not_retried_when_retries_are_off(tmp_path):
    pool = FleetPool(workers=2, retry_crashed=False)
    with pytest.raises(BrokenProcessPool):
        pool.map(die_once, [str(tmp_path / "died")])
    assert pool.crashes == 1
    assert pool.retries == 0
    assert not _holds_lease(pool)


def test_a_stop_from_another_thread_cancels_and_releases_the_lease():
    pool = FleetPool(workers=2)
    # Warm the workers, so the stop lands while calls are running.
    pool.map(sleep_for, [0.0, 0.0])
    assert _holds_lease(pool)
    stopper = threading.Timer(0.2, pool.request_stop)
    stopper.start()
    started = time.monotonic()
    try:
        with pytest.raises(CampaignCancelled):
            pool.map(sleep_for, [1.0] * 6)
    finally:
        stopper.join()
    # Noticed within a poll slice, not after the six calls' 3 s.
    assert time.monotonic() - started < 2.0
    assert not _holds_lease(pool)
    assert pool.executor is None
    with pytest.raises(CampaignCancelled):
        pool.map(sleep_for, [0.0])
