"""The claim rule of tools/abbench.py, on made-up runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "abbench.py")
_spec = importlib.util.spec_from_file_location("abbench", _PATH)
abbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abbench)

HIGHER = {"better": "higher", "bound": 0.25}


def runs(values, correct=True, failed=0):
    return [{"metrics": {"m": v}, "correct": correct, "failed": failed} for v in values]


BASE = runs(range(10))  # quartiles 1.75 and 7.25


@pytest.mark.parametrize("change, claim", [
    (runs(v + 6 for v in range(10)), "met"),
    # better in every pair, but by less than BASE's interquartile range
    (runs(v + 5 for v in range(10)), "unresolved"),
    # better in 8 of 10 pairs
    (runs([v + 6 for v in range(8)] + [8, 9]), "not met"),
    (runs(v - 6 for v in range(10)), "not met"),
    (runs((v + 6 for v in range(10)), correct=False), "not met"),
    (runs((v + 6 for v in range(10)), failed=1), "not met"),
])
def test_claim_verdicts(change, claim):
    assert abbench.judge(HIGHER, "m", BASE, change)["claim"] == claim


def test_failures_no_more_than_base_allow_a_claim():
    base = runs(range(10), failed=1)
    change = runs((v + 6 for v in range(10)), failed=1)
    assert abbench.judge(HIGHER, "m", base, change)["claim"] == "met"


def test_within_bound_is_relative_to_base_median():
    lower = {"better": "lower", "bound": 0.25}
    base = runs([4.0] * 10)
    assert abbench.judge(lower, "m", base, runs([5.0] * 10))["within_bound"]
    assert not abbench.judge(lower, "m", base, runs([5.1] * 10))["within_bound"]
