"""Worker count may not change one byte of campaign output.

A fixed-seed campaign serialises **byte-identically** at 1, 2, and 4
workers, with and without fleet-wide evidence sharing — and the oracle
scorecard (which hashes its own settings and every observation) is
equally invariant.
"""

import json

import pytest

from repro.fleet.runner import run_fleet
from repro.oracle.runner import OracleSettings, run_oracle

_EXECUTIONS = 8
_WAVE_SIZE = 4  # fixed so shared-evidence visibility boundaries agree


def _campaign(workers: int, share_evidence: bool):
    result = run_fleet(
        "imgpipe",
        executions=_EXECUTIONS,
        workers=workers,
        share_evidence=share_evidence,
        seed_base=40,
        wave_size=_WAVE_SIZE,
        timeout_seconds=60.0,
    )
    return {
        "aggregate": json.dumps(
            result.aggregator.to_dict(), sort_keys=True
        ),
        "detections": result.detections,
        "outcomes": [r.outcome for r in result.results],
        "evidence": sorted(result.evidence),
    }


@pytest.mark.parametrize("share_evidence", [False, True])
def test_campaign_bytes_identical_across_workers(share_evidence):
    baseline = _campaign(1, share_evidence)
    for workers in (2, 4):
        got = _campaign(workers, share_evidence)
        assert got == baseline, (
            f"workers={workers} share_evidence={share_evidence} "
            f"diverged from the serial run"
        )


def test_oracle_scorecard_identical_across_workers():
    cards = {
        workers: json.dumps(
            run_oracle(
                OracleSettings(
                    budget=3, seed=11, workers=workers, executions_per_app=2
                )
            ).scorecard,
            sort_keys=True,
        )
        for workers in (1, 2)
    }
    assert cards[1] == cards[2]
