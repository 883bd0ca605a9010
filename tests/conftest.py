"""Hypothesis profiles for the test suite.

``ci`` derandomizes every property test, so a failure on CI replays from
the commit alone (``--hypothesis-profile=ci``).  Local runs keep the
default, random profile; neither changes ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
