"""Census of ``repro.streams`` dispatch: the batch is the only unit.

``Stream`` has one listener kind, a dispatch in flight records who must
be handed nothing of it and the dispatch it nests in, and the plan's
listener takes the batch and nothing else.  Pinned here so the per-tuple
listener kind, the mid-batch prefix flush and the plan's second
implementation of it do not grow back under another name.
"""

import inspect
import re
from pathlib import Path

import repro.streams as streams
from repro.streams.plan import PlanNode, SharedQuery, StreamPlan
from repro.streams.stream import Stream, _InflightDispatch

PACKAGE_DIR = Path(streams.__file__).parent


def test_the_listener_surface_is_the_batch_pair():
    public = {
        name for name in vars(Stream)
        if "listener" in name and not name.startswith("_")
    }
    assert public == {"add_batch_listener", "remove_batch_listener"}


def test_a_dispatch_in_flight_records_two_things():
    assert set(_InflightDispatch.__slots__) == {"absent", "previous"}


def test_the_plan_listener_takes_the_batch_and_nothing_else():
    assert list(inspect.signature(StreamPlan._on_batch).parameters) == ["self", "batch"]
    assert not hasattr(StreamPlan, "_dispatch")


def test_no_node_or_sink_has_anywhere_to_keep_a_dispatch_marker():
    """What must miss a batch in flight is written into the dispatch's
    own record (``Stream._miss_inflight``) and dies with it."""
    assert "defers" not in PlanNode.__slots__ + SharedQuery.__slots__
    assert not hasattr(StreamPlan, "_inflight_batches")


def test_the_deleted_protocol_left_no_name_behind():
    deleted = re.compile(
        r"\b(_consumed|batch_phase|progress)\b|\.(add|remove)_listener\("
    )
    files = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(files) > 10  # the walk found the package
    for path in files:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            assert not deleted.search(line), f"{path.name}:{number}: {line.strip()}"
