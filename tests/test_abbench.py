"""The claim rule and the recorded fields of tools/abbench.py, on made-up runs."""

import importlib.util
import json
import os
import subprocess

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


def fake_run(stdout):
    def run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")
    return run


def test_run_once_records_the_operations_memory_growth(monkeypatch):
    summary = {"ops_start_rss_mb": 40.5, "setup_peak_rss_mb": 38.0,
               "blas_threads": "1", "numpy": "2"}
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"peak_rss_mb": {"value": 46.75, "unit": "MB"},
                          "setup_s": {"value": 0.3, "unit": "s"}}}
    stdout = f"summary {json.dumps(summary)}\n{json.dumps(result)}\n"
    monkeypatch.setattr(abbench.subprocess, "run", fake_run(stdout))
    run = abbench.run_once(".", "refine-io", 1, 1.0, trace=False)
    assert run["metrics"]["peak_minus_start_rss_mb"] == pytest.approx(6.25)
    assert run["metrics"]["ops_start_rss_mb"] == 40.5
    # a traced run has no end-to-end memory figure, so no growth either
    del result["metrics"]["peak_rss_mb"]
    stdout = f"summary {json.dumps(summary)}\n{json.dumps(result)}\n"
    monkeypatch.setattr(abbench.subprocess, "run", fake_run(stdout))
    assert "peak_minus_start_rss_mb" not in abbench.run_once(".", "refine-io", 1, 1.0,
                                                             trace=True)["metrics"]


def test_memory_growth_is_judged_lower_better_without_bound():
    specs = {"m": HIGHER}

    def with_memory(growth):
        return [{"metrics": {"m": 1.0, "ops_start_rss_mb": 40.0, "setup_peak_rss_mb": 38.0,
                             "peak_minus_start_rss_mb": g},
                 "correct": True, "failed": 0} for g in growth]

    verdicts = abbench.judge_all(specs, with_memory(range(20, 30)), with_memory(range(10)))
    assert set(verdicts) == {"m", "ops_start_rss_mb", "setup_peak_rss_mb",
                             "peak_minus_start_rss_mb"}
    growth = verdicts["peak_minus_start_rss_mb"]
    assert growth["claim"] == "met" and growth["change_wins"] == 10
    worse = abbench.judge_all(specs, with_memory(range(10)), with_memory(range(50, 60)))
    assert worse["peak_minus_start_rss_mb"]["within_bound"]
