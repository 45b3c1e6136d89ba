"""Shared test configuration: every hypothesis property test runs a fixed,
derandomized example sequence, so the suite is reproducible."""

from hypothesis import settings

settings.register_profile("qlan", derandomize=True, deadline=None)
settings.load_profile("qlan")
