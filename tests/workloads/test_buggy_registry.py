"""The nine Table I application specs."""

from collections import OrderedDict
from dataclasses import replace

import pytest

from repro.errors import WorkloadError
from repro.experiments import paper_data
from repro.fleet.pool import execute_spec
from repro.fleet.specs import ExecutionSpec
from repro.workloads.base import KIND_OVER_READ, KIND_OVER_WRITE
from repro.workloads.buggy import BUGGY_APPS, EFFECTIVENESS_SCALE, app_for, spec_for
from repro.workloads.buggy import registry
from repro.workloads.buggy.registry import APP_CACHE_SIZE


def test_all_nine_present():
    assert set(BUGGY_APPS) == set(paper_data.TABLE1)


def test_bug_kinds_match_table1():
    for name, (kind, _ref) in paper_data.TABLE1.items():
        assert BUGGY_APPS[name].bug_kind == kind.lower()


def test_three_over_reads():
    reads = [n for n, s in BUGGY_APPS.items() if s.bug_kind == KIND_OVER_READ]
    assert sorted(reads) == ["heartbleed", "libdwarf", "zziplib"]


def test_references_match_table1():
    for name, (_kind, ref) in paper_data.TABLE1.items():
        assert BUGGY_APPS[name].reference == ref


def test_table3_totals_match_paper():
    for name, (cc, allocs, _bcc, _ballocs) in paper_data.TABLE3.items():
        spec = spec_for(name)
        assert spec.total_contexts == cc
        assert spec.total_allocations == allocs


def test_table3_before_columns_match_paper_except_libhx():
    for name, (_cc, _allocs, bcc, ballocs) in paper_data.TABLE3.items():
        if name == "libhx":
            continue  # documented deviation (see specs.py docstring)
        spec = spec_for(name)
        assert spec.before_contexts == bcc
        assert spec.before_allocations == ballocs


def test_uninstrumented_library_bugs():
    """The three bugs ASan misses live in .SO modules."""
    for name in paper_data.ASAN_MISSED_APPS:
        assert BUGGY_APPS[name].vuln_module.endswith(".SO")
    assert not BUGGY_APPS["heartbleed"].vuln_module.endswith(".SO")


def test_spec_for_unknown_rejected():
    with pytest.raises(WorkloadError):
        spec_for("notepad")


def test_app_for_caches():
    assert app_for("gzip") is app_for("gzip")


def _genome(i):
    return f"oracle:s5:i{i}:over-write"


def test_app_cache_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(registry, "_app_cache", OrderedDict())
    kept = app_for(_genome(0))
    for i in range(1, 3 * APP_CACHE_SIZE):
        app_for(_genome(i))
        assert len(registry._app_cache) <= APP_CACHE_SIZE
        # Used after every build, so it is never the least recent: a
        # FIFO would evict it after APP_CACHE_SIZE builds.
        assert app_for(_genome(0)) is kept
    assert len(registry._app_cache) == APP_CACHE_SIZE
    assert (_genome(1), 1.0) not in registry._app_cache


def test_evicted_app_rebuilds_to_an_identical_execution(monkeypatch):
    monkeypatch.setattr(registry, "_app_cache", OrderedDict())
    spec = ExecutionSpec(app=_genome(0), seed=3, index=0)
    before = execute_spec(spec)
    for i in range(1, APP_CACHE_SIZE + 1):
        app_for(_genome(i))
    assert (_genome(0), 1.0) not in registry._app_cache
    after = execute_spec(spec)
    assert replace(after, wall_seconds=0.0) == replace(before, wall_seconds=0.0)


def test_app_for_scale_overrides():
    full = app_for("mysql", scale=1.0)
    shrunk = app_for("mysql")
    assert full.spec.total_allocations == 57464
    assert shrunk.spec.total_allocations < 5000


def test_effectiveness_scale_only_for_large_apps():
    assert set(EFFECTIVENESS_SCALE) == {"heartbleed", "mysql"}


def test_naive_detectable_apps_have_early_victims():
    """§V-A1: naive-detectable apps have <=4 contexts or an early victim."""
    for name in ("gzip", "libdwarf", "libhx", "libtiff", "polymorph"):
        spec = spec_for(name)
        assert spec.total_contexts <= 4 or spec.victim_alloc_index <= 4


def test_naive_undetectable_apps_have_late_victims():
    for name in ("heartbleed", "memcached", "mysql", "zziplib"):
        spec = spec_for(name)
        assert spec.victim_alloc_index > 4
