"""Fleet aggregation: dedup, first-seen, Wilson statistics."""

from repro.experiments.campaign import wilson_interval
from repro.fleet.aggregate import FleetAggregator, render_fleet_report
from repro.fleet.specs import (
    OUTCOME_CRASH,
    ExecutionResult,
    ReportRecord,
)


def record(signature="over-write|alloc:A|access:B", source="watchpoint"):
    return ReportRecord(
        signature=signature,
        kind=signature.split("|")[0],
        source=source,
        allocation_context=("LIB/a.c:1",),
        access_context=("LIB/b.c:2",),
    )


def result(index, reports=(), detected=None, outcome="ok"):
    reports = list(reports)
    return ExecutionResult(
        app="libtiff",
        seed=index,
        index=index,
        outcome=outcome,
        detected=bool(reports) if detected is None else detected,
        detected_by_watchpoint=any(r.source == "watchpoint" for r in reports),
        reports=reports,
    )


def test_dedup_by_signature():
    aggregator = FleetAggregator()
    aggregator.add(result(0, [record(), record()]))
    aggregator.add(result(1, [record()]))
    assert aggregator.raw_reports == 3
    assert aggregator.unique_reports() == 1
    assert aggregator.dedup_ratio == 3.0
    entry = aggregator.reports()[0]
    assert entry.count == 3
    assert entry.executions == 2  # two distinct executions saw it


def test_distinct_signatures_stay_separate():
    aggregator = FleetAggregator()
    aggregator.add(
        result(0, [record("over-write|alloc:A|access:B")]),
    )
    aggregator.add(
        result(1, [record("over-read|alloc:A|access:C")]),
    )
    assert aggregator.unique_reports() == 2
    kinds = {entry.kind for entry in aggregator.reports()}
    assert kinds == {"over-write", "over-read"}


def test_first_seen_is_earliest_execution_index():
    aggregator = FleetAggregator()
    aggregator.add(result(0, []))
    aggregator.add(result(3, [record()]))
    aggregator.add(result(1, [record()]))
    assert aggregator.reports()[0].first_seen == 1


def test_sources_tallied():
    aggregator = FleetAggregator()
    aggregator.add(
        result(0, [record(source="watchpoint"), record(source="exit-canary")])
    )
    assert aggregator.reports()[0].sources == {
        "watchpoint": 1,
        "exit-canary": 1,
    }


def test_wilson_rate_matches_campaign_interval():
    aggregator = FleetAggregator()
    for index in range(10):
        aggregator.add(result(index, [record()] if index < 3 else []))
    assert aggregator.executions_detected == 3
    assert aggregator.detection_rate_interval() == wilson_interval(3, 10)
    entry = aggregator.reports()[0]
    assert entry.rate_interval(10) == wilson_interval(3, 10)


def test_failed_executions_excluded_from_rates():
    aggregator = FleetAggregator()
    aggregator.add(result(0, [record()]))
    aggregator.add(result(1, outcome=OUTCOME_CRASH, detected=False))
    assert aggregator.executions == 2
    assert aggregator.executions_ok == 1
    assert len(aggregator.failed) == 1
    assert aggregator.detection_rate_interval() == wilson_interval(1, 1)


def test_empty_aggregator():
    aggregator = FleetAggregator()
    assert aggregator.dedup_ratio == 0.0
    assert aggregator.detection_rate_interval() == (0.0, 0.0)
    assert aggregator.to_dict()["reports"] == []


def test_to_dict_is_deterministic_and_address_free():
    def build():
        aggregator = FleetAggregator()
        aggregator.add(result(0, [record(), record("over-read|alloc:A|access:C")]))
        aggregator.add(result(1, [record()]))
        return aggregator.to_dict()

    first, second = build(), build()
    assert first == second
    assert first["dedup_ratio"] == 1.5
    assert first["reports"][0]["count"] == 2  # most-seen first


def test_render_fleet_report():
    aggregator = FleetAggregator()
    aggregator.add(result(0, [record()]))
    text = render_fleet_report(aggregator, title="T")
    assert "T" in text
    assert "95% CI" in text
    assert "dedup=1.00x" in text
    assert "LIB/a.c:1" in text


# ----------------------------------------------------------------------
# First-seen spec identities (the bisection starting point)
# ----------------------------------------------------------------------
def test_to_dict_reports_carry_first_seen_spec():
    aggregator = FleetAggregator()
    aggregator.add(result(3, [record()]))
    aggregator.add(result(1, [record()]))
    rows = aggregator.to_dict()["reports"]
    assert rows[0]["first_seen_spec"] == {
        "app": "libtiff",
        "seed": 1,
        "index": 1,
    }


def test_first_seen_spec_per_signature():
    aggregator = FleetAggregator()
    aggregator.add(result(0, [record()]))
    aggregator.add(result(4, [record("over-read|alloc:A|access:C")]))
    specs = {
        row["signature"]: row["first_seen_spec"]
        for row in aggregator.to_dict()["reports"]
    }
    assert specs["over-write|alloc:A|access:B"]["index"] == 0
    assert specs["over-read|alloc:A|access:C"]["index"] == 4
