"""Every Hypothesis test in tier-1 draws a fixed sequence of examples.

With `derandomize=True` each test's examples come from a seed derived from
the test itself, so two runs of the suite try the same inputs and execute
the same lines of `src/`; it also turns the example database off.  Each
test keeps its own `max_examples` and `deadline`.  A fixed example that
fails is a fault of the program, to be mended there, not a seed to change.
"""
from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
