"""Hypothesis profiles.

Local runs explore fresh random examples.  ``HYPOTHESIS_PROFILE=ci``
derandomizes Hypothesis, so a CI verdict depends only on the commit.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
