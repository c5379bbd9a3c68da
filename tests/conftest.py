"""Shared fixtures for the test suite.

The fixtures pin two reference market models used throughout:

* ``desk_model``: a genuinely two-state market (different rates and
  volatilities in each regime, symmetric switching at rate 1).
* ``flat_model``: a two-state chain whose regimes carry identical market
  parameters, so every price must coincide with the single-regime value.
"""

import os

import pytest

from rsasian import MarketState, ham, two_state_model

# Parallel MC batches are bit-identical to the serial path, so enabling
# threads here only changes wall time, never results.
os.environ.setdefault("PRICER_THREADS", "4")


@pytest.fixture(scope="session")
def desk_model():
    return two_state_model(0.05, 0.03, 0.3, 0.2, 1.0, 1.0)


@pytest.fixture(scope="session")
def flat_model():
    return two_state_model(0.05, 0.05, 0.3, 0.3, 1.0, 1.0)


@pytest.fixture()
def inception_state():
    return MarketState(t=0.0, s=100.0, a=0.0, regime=0)


@pytest.fixture()
def cold_surfaces():
    """The surface cache both grid engines share, emptied before and after the test."""
    ham._SURFACES_CACHE.clear()
    yield ham._SURFACES_CACHE
    ham._SURFACES_CACHE.clear()


@pytest.fixture()
def build_calls(monkeypatch, cold_surfaces):
    """Arguments of each ``ham.build_terms`` call, made with the surface cache emptied."""
    calls = []
    build = ham.build_terms
    monkeypatch.setattr(ham, "build_terms", lambda *args: calls.append(args) or build(*args))
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Re-print the one-line acceptance verdicts after the normal summary."""
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "REPORT_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
