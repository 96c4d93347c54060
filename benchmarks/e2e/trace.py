"""Outside-in span tracer for the served request path.

Nothing under ``src/`` is edited: :class:`Tracer` rebinds the *public
entry point* of each layer where its caller looks it up — the imported
name in the consuming module, or the bound method on the one instance
the server uses — and records a span ``(name, start, end, parent,
op_id, tag)`` around every call.  Spans stay in memory until the server
shuts down.

A layer's time is its **self time**: the span's duration minus the
durations of its direct children, so the layers of one op add up to
the op's root spans without double counting.

Root spans per op, tied by ``op_id``: ``wire.decode`` (reader task),
``server.queue_wait`` (decode done -> execute entered; synthesised from
those two stamps, it is the only span not wrapped around a call),
``server.execute`` (tagged with the op's class name) and
``wire.encode``.  The tracer assumes ops execute without suspending,
which holds for an ``AsyncDataServer`` without a worker pool: every
``await`` on its execute path then completes synchronously.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Dict, List, Optional, Tuple

import repro.core.pep as pep_module
import repro.framework.server as framework_module
import repro.serving.server as serving_module
from repro.core.user_query import UserQuery
from repro.serving.server import AsyncDataServer

Span = Tuple[str, float, float, int, int, Optional[str]]

#: Spans summed into ``network.simulated`` (the simulation calls the
#: socket path still makes).
NETWORK_SPANS = ("network.policy_load", "network.dsms_submit", "network.clock_advance")

_MISSING = object()


class Tracer:
    """Wraps the layers of one :class:`AsyncDataServer`; see module doc."""

    def __init__(self, front: AsyncDataServer):
        self.front = front
        self.spans: List[Optional[Span]] = []
        #: ``ServerTiming`` totals ``AsyncDataServer`` discards (seconds).
        self.server_timing = {"pdp": 0.0, "query_graph": 0.0, "dsms_submit": 0.0}
        self._stack: List[int] = []
        self._op_id = -1            # op whose execute/encode is running
        self._decoded = 0
        #: id(message) -> (op id, decode-done stamp), until it executes.
        self._pending: Dict[int, Tuple[int, float]] = {}
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        front = self.front
        server = front.server
        instance = server.instance
        self._rebind(serving_module, "decode_message", self._decode_wrapper)
        self._rebind(front, "execute", self._execute_wrapper)
        self._span(serving_module, "encode_message", "wire.encode")
        self._span(serving_module, "parse_request_xml", "xml_io.parse_request")
        self._span(UserQuery, "from_xml", "user_query.from_xml")
        self._rebind(server, "process", self._process_wrapper)
        self._span(instance.pdp, "evaluate", "pdp.evaluate")
        self._span(pep_module, "obligations_to_graph", "obligations.to_graph")
        self._span(pep_module, "merge_query_graphs", "merge.merge_query_graphs")
        self._span(pep_module, "generate_streamsql", "streamsql.generate")
        self._span(instance.engine, "register_query", "engine.register_query")
        self._span(instance.engine, "push_batch", "engine.push_batch")
        self._span(instance.engine, "withdraw", "engine.withdraw")
        self._span(server, "load_policy", "framework.policy_admin")
        self._span(server, "update_policy", "framework.policy_admin")
        self._span(server, "remove_policy", "framework.policy_admin")
        self._span(framework_module, "parse_policy_xml", "xml_io.parse_policy")
        self._span(instance.store, "load", "store.load")
        self._span(instance.store, "update", "store.update")
        self._span(instance.store, "remove", "store.remove")
        self._span(server.network, "policy_load", "network.policy_load")
        self._span(server.network, "dsms_submit", "network.dsms_submit")
        self._span(server.network.clock, "advance", "network.clock_advance")

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, saved = self._undo.pop()
            if saved is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, saved)

    def _rebind(self, owner, attribute: str, make_wrapper) -> None:
        original = getattr(owner, attribute)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            wrapper = staticmethod(wrapper)     # original is already bound
        self._undo.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, wrapper)

    def _span(self, owner, attribute: str, name: str) -> None:
        self._rebind(owner, attribute, functools.partial(self._call_wrapper, name))

    # -- span recording -----------------------------------------------------------

    def _enter(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _exit(self, index: int, name: str, started: float, tag: Optional[str] = None) -> None:
        ended = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, started, ended, parent, self._op_id, tag)

    def _call_wrapper(self, name: str, original):
        def traced(*args, **kwargs):
            index = self._enter()
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._exit(index, name, started)
        return traced

    def _decode_wrapper(self, original):
        def traced(payload):
            index = self._enter()
            started = time.perf_counter()
            self._op_id = op_id = self._decoded
            self._decoded += 1
            try:
                seq, message = original(payload)
                self._pending[id(message)] = (op_id, time.perf_counter())
                return seq, message
            finally:
                self._exit(index, "wire.decode", started)
        return traced

    def _execute_wrapper(self, original):
        async def traced(message):
            started = time.perf_counter()
            op_id, decoded_at = self._pending.pop(id(message), (-1, started))
            self._op_id = op_id
            self.spans.append(("server.queue_wait", decoded_at, started, -1, op_id, None))
            index = self._enter()
            try:
                return await original(message)
            finally:
                self._exit(index, "server.execute", started, type(message).__name__)
        return traced

    def _process_wrapper(self, original):
        def traced(*args, **kwargs):
            index = self._enter()
            started = time.perf_counter()
            try:
                response, timing = original(*args, **kwargs)
                self.server_timing["pdp"] += timing.pdp
                self.server_timing["query_graph"] += timing.query_graph
                self.server_timing["dsms_submit"] += timing.dsms_submit
                return response, timing
            finally:
                self._exit(index, "framework.process", started)
        return traced

    # -- reporting ----------------------------------------------------------------

    def position(self) -> int:
        """Span count so far; marks cut the span list into windows."""
        return len(self.spans)

    def aggregate(self, start: int, stop: int) -> Dict[str, Dict[str, float]]:
        """Per span name over ``spans[start:stop]``: ``calls``,
        ``self_s`` (self time) and ``total_s`` (whole spans)."""
        spans = self.spans[start:stop]
        children = [0.0] * len(spans)
        for span in spans:
            parent = span[3] - start
            if parent >= 0:
                children[parent] += span[2] - span[1]
        layers: Dict[str, Dict[str, float]] = {}
        for span, covered in zip(spans, children):
            layer = layers.setdefault(span[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            duration = span[2] - span[1]
            layer["calls"] += 1
            layer["self_s"] += duration - covered
            layer["total_s"] += duration
        return layers

    def dump(self, path: str) -> None:
        """Write every span as ``[name, start, end, parent, op_id, tag]``
        (seconds on the server's ``perf_counter``; ``parent`` indexes
        this list, -1 for a root)."""
        with open(path, "w") as handle:
            json.dump({
                "columns": ["name", "start_s", "end_s", "parent", "op_id", "tag"],
                "server_timing_s": self.server_timing,
                "spans": self.spans,
            }, handle)
