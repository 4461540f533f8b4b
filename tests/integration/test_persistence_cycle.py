"""Cross-execution evidence persistence (§IV-B / §V-A2)."""

import os

import pytest

from repro.core import CSODConfig, CSODRuntime
from repro.workloads.base import SimProcess
from repro.workloads.buggy import app_for


def run(name, seed, path):
    process = SimProcess(seed=seed)
    csod = CSODRuntime(
        process.machine,
        process.heap,
        CSODConfig(persistence_path=path),
        seed=seed,
    )
    app_for(name).run(process)
    csod.shutdown()
    return csod


def first_missed_seed(name, path_factory, limit=40):
    for seed in range(limit):
        csod = run(name, seed, path_factory(seed))
        if not csod.detected_by_watchpoint:
            return seed
    return None


@pytest.mark.parametrize("name", ["memcached", "mysql"])
def test_second_execution_always_detects_overwrites(name, tmp_path):
    seed = first_missed_seed(name, lambda s: str(tmp_path / f"probe{s}.json"))
    assert seed is not None, f"{name} never missed; cannot exercise the path"
    path = str(tmp_path / "evidence.json")
    first = run(name, seed, path)
    assert not first.detected_by_watchpoint
    assert first.detected  # canary evidence
    assert os.path.exists(path)
    # Ten different second executions: all must detect via watchpoint.
    for second_seed in range(1000, 1010):
        second = run(name, second_seed, path)
        assert second.detected_by_watchpoint


def test_persistence_file_survives_clean_runs(tmp_path):
    path = str(tmp_path / "evidence.json")
    seed = first_missed_seed("memcached", lambda s: str(tmp_path / f"p{s}.json"))
    run("memcached", seed, path)
    size_after_first = os.path.getsize(path)
    run("memcached", seed + 500, path)  # detection run: must not lose data
    assert os.path.getsize(path) >= size_after_first


def test_overreads_not_persisted_when_missed(tmp_path):
    """Over-reads leave no canary evidence: a missed run records nothing."""
    from repro.core.evidence import load_persisted

    for seed in range(30):
        path = str(tmp_path / f"evidence{seed}.json")
        csod = run("zziplib", seed, path)
        if not csod.detected_by_watchpoint:
            assert load_persisted(path) == set()
            return
    pytest.fail("zziplib detected in every run; cannot exercise the miss path")


def test_overread_watchpoint_hit_is_persisted(tmp_path):
    """A watchpoint-detected over-read pins its context and persists it."""
    from repro.core.evidence import load_persisted

    for seed in range(30):
        path = str(tmp_path / f"hit{seed}.json")
        csod = run("zziplib", seed, path)
        if csod.detected_by_watchpoint:
            assert load_persisted(path)
            return
    pytest.fail("zziplib never detected in 30 runs")
