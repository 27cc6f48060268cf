"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` (the CI tier-1 step)
runs the property tests derandomized with more examples; without it the
Hypothesis defaults apply."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
