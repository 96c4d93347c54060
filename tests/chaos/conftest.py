"""Chaos-suite plumbing: shared counters and the CI report artifact.

Every chaos test folds its fault/recovery observations into
:data:`COUNTERS`; when ``CHAOS_REPORT=<path>`` is set (the CI
chaos-smoke job sets it), the session teardown writes them as a JSON
artifact, so each PR records how many worker kills and supervised
restarts its chaos pass actually exercised.  ``client_retries`` counts
the retries of the pool's driver threads (a retryable
``ShardUnavailableError`` from ``evaluate_many``); the wire cases
add none.
"""

import json
import os

import pytest

COUNTERS = {
    "worker_kills": 0,
    "worker_restarts": 0,
    "fallback_evaluations": 0,
    "client_retries": 0,
    "mirror_drops": 0,
    "garbled_frames": 0,
}


@pytest.fixture
def chaos_counters():
    return COUNTERS


@pytest.fixture(scope="session", autouse=True)
def chaos_report():
    yield
    path = os.environ.get("CHAOS_REPORT")
    if path:
        with open(path, "w") as handle:
            json.dump(COUNTERS, handle, indent=2, sort_keys=True)
            handle.write("\n")
