"""Test-session settings: one hypothesis profile for every property test.

Derandomized, so a run is reproducible; no deadline, since timings on a
loaded machine vary; no example database, so no run depends on, or
leaves behind, the examples of another.  Each test keeps its own
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("rsplab", derandomize=True, deadline=None, database=None)
settings.load_profile("rsplab")
