"""Shared test configuration: every hypothesis property test runs a fixed,
derandomized example sequence, so the suite is reproducible.

Hypothesis imports its failure-report patcher, and with it libcst, only
once a property test fails; libcst then warns that
``mypy_extensions.TypedDict`` is deprecated, and the suite's
``filterwarnings = ["error"]`` would turn that warning into an internal
error that ends the run.  Importing the patcher here, with warnings
silenced, lets a failing property test fail like any other."""

import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("qlan", derandomize=True, deadline=None)
settings.load_profile("qlan")
