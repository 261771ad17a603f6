"""One reproducible Hypothesis profile for every run of the suite: the same
examples each time, no example database, and no per-example deadline
(timings vary with the machine's load).  Hypothesis still caches the
constants it reads from the source; that cache goes to the system's
temporary directory, not into the checkout."""

import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import settings

os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "struct-dae-hypothesis")
)
settings.register_profile(
    "reproducible", derandomize=True, database=None, deadline=None, max_examples=25
)
settings.load_profile("reproducible")


def pytest_runtest_makereport(item, call):
    """Import Hypothesis's patch writer, quietly, before its plugin does.

    The plugin imports it to report a falsifying example; with some libcst
    and mypy_extensions versions that import raises a DeprecationWarning,
    which the suite's warnings-as-errors turns into an internal error that
    ends the whole pytest run instead of failing the one test.
    """
    if getattr(item, "_hypothesis_failing_examples", None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass


@pytest.fixture
def svd_calls(monkeypatch):
    """The shapes of the arrays handed to `numpy.linalg.svd` during the
    test, in call order."""
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes
