"""Catalog-test fixtures."""

import pytest

from repro.obs import Telemetry, set_telemetry


@pytest.fixture()
def fresh_telemetry():
    """A process-wide registry of the test's own, restored after it."""
    telemetry = Telemetry()
    previous = set_telemetry(telemetry)
    yield telemetry
    set_telemetry(previous)
