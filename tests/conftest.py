"""Shared test settings.

Property tests run under one hypothesis profile: examples are derived from
each test's own definition rather than a random seed or a saved example
database, so every run checks the same cases, and the example count is
kept small enough for a 2-core machine.
"""

from hypothesis import settings

settings.register_profile("outpainter", derandomize=True, database=None, deadline=None,
                          max_examples=60)
settings.load_profile("outpainter")
