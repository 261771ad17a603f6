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


class _Calls(list):
    """The shapes of the arrays handed to a decomposition during a test, in
    call order; `values_only` keeps the shapes of the calls that computed
    no vectors."""

    def __init__(self):
        super().__init__()
        self.values_only = []

    def clear(self):
        super().clear()
        self.values_only.clear()


def _recorder(monkeypatch, functions):
    """One _Calls for the `numpy.linalg` functions named in `functions`, each
    mapped to a test of whether a call (args, kwargs) computes values only."""
    calls = _Calls()
    for name, values_only in functions.items():
        def recording(a, *args, _function=getattr(np.linalg, name), _values_only=values_only,
                      **kwargs):
            calls.append(np.shape(a))
            if _values_only(args, kwargs):
                calls.values_only.append(np.shape(a))
            return _function(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    """`numpy.linalg.svd` calls; values only with compute_uv=False."""
    return _recorder(monkeypatch, {"svd": lambda args, kwargs: not kwargs.get(
        "compute_uv", args[1] if len(args) > 1 else True)})


@pytest.fixture
def eigh_calls(monkeypatch):
    """`numpy.linalg.eigh` calls, and `eigvalsh` calls as values only."""
    return _recorder(monkeypatch, {"eigh": lambda args, kwargs: False,
                                   "eigvalsh": lambda args, kwargs: True})


@pytest.fixture
def inv_calls(monkeypatch):
    """`numpy.linalg.inv` calls (none computes values only)."""
    return _recorder(monkeypatch, {"inv": lambda args, kwargs: False})
