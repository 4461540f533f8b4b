"""The fleet-scale campaign: conformance, determinism, attribution."""

import dataclasses

import pytest

from repro.errors import ReproError
from repro.oracle import OracleSettings, render_scorecard, run_oracle
from repro.oracle.adversarial import lower, solve_target
from repro.oracle.grammar import ALL_DEFECTS
from repro.oracle.runner import defect_sequence
from repro.triage import BugDatabase

SETTINGS = OracleSettings(
    budget=12, seed=7, workers=1, executions_per_app=2
)


@pytest.fixture(scope="module")
def campaign():
    """One shared campaign (the module's tests only read it)."""
    return run_oracle(SETTINGS)


# ----------------------------------------------------------------------
# Defect apportionment
# ----------------------------------------------------------------------
def test_uniform_sequence_covers_every_class():
    sequence = defect_sequence(2 * len(ALL_DEFECTS))
    assert len(sequence) == 2 * len(ALL_DEFECTS)
    for defect in ALL_DEFECTS:
        assert sequence.count(defect) == 2


def test_weighted_sequence_respects_the_mix():
    sequence = defect_sequence(10, {"over-read": 3, "uaf": 1})
    assert len(sequence) == 10
    assert sequence.count("over-read") >= 7
    assert sequence.count("uaf") >= 2
    assert set(sequence) <= {"over-read", "uaf"}


def test_sequence_interleaves_classes():
    sequence = defect_sequence(12)
    # Round-robin dealing: the first len(ALL_DEFECTS) entries are all
    # distinct, so any prefix of the campaign is representative.
    assert len(set(sequence[: len(ALL_DEFECTS)])) == len(ALL_DEFECTS)


# ----------------------------------------------------------------------
# Settings validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"budget": 0},
        {"executions_per_app": 0},
        {"shrink": -1},
        {"defect_mix": {"wild-write": 1.0}},
        {"defect_mix": {"over-read": -1.0}},
        {"defect_mix": {"over-read": 0.0}},
    ],
)
def test_bad_settings_rejected(kwargs):
    with pytest.raises(ReproError):
        OracleSettings(**kwargs)


# ----------------------------------------------------------------------
# Acceptance properties of the scorecard
# ----------------------------------------------------------------------
def test_deterministic_arms_have_zero_false_positives(campaign):
    arms = campaign.scorecard["arms"]
    assert arms["asan"]["fp_reports"] == 0
    assert arms["guardpage"]["fp_reports"] == 0


def test_no_arm_reports_false_positives(campaign):
    for arm, block in campaign.scorecard["arms"].items():
        assert block["fp_reports"] == 0, arm


def test_deterministic_arms_catch_every_eligible_defect(campaign):
    arms = campaign.scorecard["arms"]
    for arm in ("asan", "guardpage"):
        assert arms[arm]["detected"] == arms[arm]["eligible"], arm


def test_every_csod_fn_is_attributed_to_sampling(campaign):
    fn = campaign.scorecard["csod_invariants"]["fn_attribution"]
    assert fn["logic"] == 0
    assert set(fn["apps"].values()) <= {"sampling"}


def test_watchpoint_invariants_hold(campaign):
    inv = campaign.scorecard["csod_invariants"]
    assert inv["max_armed"] <= inv["armed_limit"] == 4
    assert inv["armed_violations"] == []
    assert inv["monotonic_violations"] == []
    assert inv["probed_apps"] == SETTINGS.budget


def test_evidence_convergence_holds(campaign):
    conv = campaign.scorecard["csod_invariants"]["convergence"]
    assert conv["failures"] == []
    assert conv["converged"] == conv["checked"]


def test_every_mismatch_is_explained(campaign):
    assert campaign.scorecard["mismatches"]["unexplained"] == 0


def test_rate_blocks_carry_wilson_intervals(campaign):
    for arm, block in campaign.scorecard["arms"].items():
        if block["eligible"]:
            low, high = block["ci95"]
            assert 0.0 <= low <= block["rate"] <= high <= 1.0


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_scorecard_is_deterministic_same_process(campaign):
    again = run_oracle(SETTINGS)
    assert render_scorecard(again.scorecard) == render_scorecard(
        campaign.scorecard
    )


def test_scorecard_is_worker_count_invariant(campaign):
    parallel = run_oracle(
        OracleSettings(
            budget=SETTINGS.budget,
            seed=SETTINGS.seed,
            workers=3,
            executions_per_app=SETTINGS.executions_per_app,
        )
    )
    assert render_scorecard(parallel.scorecard) == render_scorecard(
        campaign.scorecard
    )


def test_telemetry_records_every_app(campaign):
    events = []
    run_oracle(SETTINGS, telemetry=events.append)
    kinds = [e["event"] for e in events]
    assert kinds.count("oracle_app") == SETTINGS.budget
    assert kinds[-1] == "oracle_scorecard"


def _judged(workers, settings=SETTINGS, programs=None):
    """Every view of one campaign that judging feeds, at ``workers``."""
    events = []
    db = BugDatabase()
    run = run_oracle(
        dataclasses.replace(settings, workers=workers),
        telemetry=events.append,
        bug_db=db,
        programs=programs,
    )
    return {
        "scorecard": render_scorecard(run.scorecard),
        "telemetry": events,
        "invariant_reports": run.invariant_reports,
        # Lists, so the order the judgements were folded in counts too.
        "fn_attributions": list(run.fn_attributions.items()),
        "convergence": list(run.convergence.items()),
        "bug_db": db.to_dict(),
    }


def test_judging_is_worker_count_invariant():
    serial = _judged(1)
    # The re-runs this compares did happen.
    assert serial["fn_attributions"] and serial["convergence"]
    parallel = _judged(2)
    for view, value in serial.items():
        assert parallel[view] == value, view


def test_program_overrides_judge_identically_at_two_workers():
    # Solver-built corners, lowered the way ``repro adversarial`` does;
    # workers rebuild their apps from the ``adv:`` names.
    programs = [
        lower(solve_target(0, target))
        for target in ("floor-pin", "watch-exhaust")
    ]
    settings = OracleSettings(budget=len(programs), executions_per_app=2)
    serial = _judged(1, settings, programs)
    assert [event["app"] for event in serial["telemetry"][:-1]] == [
        program.name for program in programs
    ]
    parallel = _judged(2, settings, programs)
    for view, value in serial.items():
        assert parallel[view] == value, view
