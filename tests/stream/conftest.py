"""Shared fixtures for the streaming-ingestion suite.

The batch (whole-clip) vision artifacts are the equivalence baseline for
every streamed variant, and they are the expensive part — compute them
once per session.
"""

import threading

import pytest

from repro.pipeline import PipelineConfig, PipelineRunner
from repro.vision import FrameReader


@pytest.fixture(autouse=True)
def no_helper_left():
    """A stream's render-ahead helper must not outlive the test, however
    the stream ended: exhausted, closed midway or dropped."""
    yield
    assert [t for t in threading.enumerate()
            if t.name == FrameReader.THREAD_NAME] == []


@pytest.fixture(scope="session")
def tunnel_batch(small_tunnel):
    """Batch vision-pipeline artifacts for the tunnel fixture clip."""
    return PipelineRunner(PipelineConfig()).run(small_tunnel)


@pytest.fixture(scope="session")
def intersection_batch(small_intersection):
    """Batch vision-pipeline artifacts for the intersection clip."""
    return PipelineRunner(PipelineConfig()).run(small_intersection)
