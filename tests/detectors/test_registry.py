"""The detector registry: names, aliases, resolution, ranking."""

import pytest

from repro.detectors import (
    Detector,
    cheapest_production_arm,
    fleet_arms,
    get,
    inline_arms,
    known_arms,
    normalize,
    register,
    resolve_arms,
)
from repro.errors import ReproError

CANONICAL = (
    "csod",
    "csod-random",
    "csod-noevidence",
    "asan",
    "guardpage",
    "gwp-asan",
    "doubletake",
)


def test_seven_arms_in_canonical_order():
    assert known_arms() == CANONICAL


def test_normalize_is_identity_on_canonical_names():
    for arm in known_arms():
        assert normalize(arm) == arm


def test_normalize_strips_case_and_aliases():
    assert normalize("  CSOD ") == "csod"
    assert normalize("gwp") == "gwp-asan"
    assert normalize("gwpasan") == "gwp-asan"
    assert normalize("gwp_asan") == "gwp-asan"
    assert normalize("double-take") == "doubletake"
    assert normalize("double_take") == "doubletake"
    assert normalize("address-sanitizer") == "asan"
    assert normalize("guard_page") == "guardpage"


def test_unknown_arm_error_lists_known_arms():
    with pytest.raises(ReproError) as excinfo:
        normalize("valgrind")
    message = str(excinfo.value)
    assert "valgrind" in message
    for arm in CANONICAL:
        assert arm in message


def test_get_returns_the_registered_detector():
    for arm in known_arms():
        detector = get(arm)
        assert detector.name == arm
        assert detector.summary  # every arm documents itself


def test_resolve_arms_none_means_all():
    assert resolve_arms(None) == CANONICAL


def test_resolve_arms_subset_comes_back_in_canonical_order():
    assert resolve_arms(("guardpage", "CSOD", "gwp")) == (
        "csod",
        "guardpage",
        "gwp-asan",
    )


def test_resolve_arms_rejects_empty_selection():
    with pytest.raises(ReproError):
        resolve_arms(())


def test_resolve_arms_rejects_unknown():
    with pytest.raises(ReproError, match="known arms"):
        resolve_arms(("csod", "bogus"))


def test_duplicate_registration_rejected():
    dup = Detector(name="csod", summary="a second csod row")
    with pytest.raises(ReproError):
        register(dup)


def test_fleet_inline_split():
    assert fleet_arms(None) == ("csod", "csod-random", "csod-noevidence")
    assert inline_arms(None) == ("asan", "guardpage", "gwp-asan", "doubletake")
    for arm in fleet_arms(None):
        assert get(arm).fleet
        assert get(arm).config() is not None
    for arm in inline_arms(None):
        assert not get(arm).fleet
        with pytest.raises(ReproError):
            get(arm).config()


def test_cheapest_production_arm_prefers_lowest_overhead():
    # gwp-asan models the lowest overhead of the production-viable set.
    assert cheapest_production_arm(known_arms()) == "gwp-asan"
    assert cheapest_production_arm(("csod", "csod-random")) == "csod"
    # ASan alone is not production-viable: nothing to recommend.
    assert cheapest_production_arm(("asan",)) == ""
    assert cheapest_production_arm(()) == ""


def test_describe_is_json_able_and_complete():
    for arm in known_arms():
        payload = get(arm).describe()
        assert payload["name"] == arm
        assert isinstance(payload["production_viable"], bool)
        assert isinstance(payload["modeled_overhead_pct"], float)
        assert isinstance(payload["cost_events"], list)
        if arm != "csod-noevidence":
            # csod-noevidence shares the trio's event list; every arm
            # declares the events its checks charge.
            assert payload["cost_events"]
