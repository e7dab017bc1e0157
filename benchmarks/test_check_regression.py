"""The regression gate of ``check_regression.py``.

A gate that only walks the candidate's keys passes a measurement that
disappeared: a deleted benchmark path, or a renamed key, would stop being
checked without anyone noticing.  A gated baseline metric missing from the
candidate is therefore a failure; informational values are not gated.
"""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def check_regression():
    path = Path(__file__).with_name("check_regression.py")
    spec = importlib.util.spec_from_file_location("check_regression_under_test",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASELINE = {
    "workload": {"rows": 10},
    "merge": {"rows_per_second": 100.0, "wall_seconds": 0.5},
    "bitwise_identical": True,
    "front_size": 3,
    "race_enabled": False,
}


def test_unchanged_run_passes(check_regression):
    assert check_regression.compare_run("b", BASELINE, dict(BASELINE),
                                        0.6) == []


@pytest.mark.parametrize("vanished", ["merge.rows_per_second",
                                      "merge.wall_seconds",
                                      "bitwise_identical"])
def test_vanished_gated_metric_fails(check_regression, vanished):
    candidate = {**BASELINE, "merge": dict(BASELINE["merge"])}
    if "." in vanished:
        del candidate["merge"][vanished.split(".")[1]]
    else:
        del candidate[vanished]
    failures = check_regression.compare_run("b", BASELINE, candidate, 0.6)
    assert len(failures) == 1
    assert vanished in failures[0] and "missing" in failures[0]


def test_vanished_informational_values_pass(check_regression):
    # Counts and false booleans constrain nothing, so dropping them is not
    # a regression.
    candidate = {key: value for key, value in BASELINE.items()
                 if key not in ("front_size", "race_enabled")}
    assert check_regression.compare_run("b", BASELINE, candidate, 0.6) == []


def test_new_candidate_metric_is_not_a_failure(check_regression):
    candidate = {**BASELINE, "artifact_rows_per_second": 1.0}
    assert check_regression.compare_run("b", BASELINE, candidate, 0.6) == []
