"""Hypothesis profiles. ``HYPOTHESIS_PROFILE=ci`` selects ``ci``: examples
derived from each test instead of random ones, and every failure printed with
the blob that replays it (``@reproduce_failure``), so a property that fails in
CI fails the same way on a rerun and locally."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
