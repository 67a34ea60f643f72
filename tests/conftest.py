"""Shared test settings.

Property tests run under one hypothesis profile: examples are derived from
each test's own definition rather than a random seed or a saved example
database, so every run checks the same cases, and the example count is
kept small enough for a 2-core machine.
"""

import pytest
from hypothesis import settings

settings.register_profile("outpainter", derandomize=True, database=None, deadline=None,
                          max_examples=60)
settings.load_profile("outpainter")


@pytest.fixture
def stats_on_tape(monkeypatch):
    """Compute the block-1 alignment statistics on the tape (the model
    treats them as constants), so a tape gradient is the full derivative
    of the forward and finite differences can check it: per-channel mean,
    and std with a 1e-12 variance floor so sqrt stays differentiable."""

    def feature_stats(features):
        mu = features.mean(axes=-2, keepdims=True)
        d = features - mu
        return mu, (d * d).mean(axes=-2, keepdims=True).clamp(lo=1e-12) ** 0.5

    monkeypatch.setattr("outpainter.backbone.feature_stats", feature_stats)
