"""Hypothesis profiles.  ``--hypothesis-profile=ci`` derandomizes every
property test, so a failing example in a CI log reproduces on any machine,
and prints the blob that replays it."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
