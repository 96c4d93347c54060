"""The direct-query baseline (no access control).

"We compare the results with that of a system that quer[ies] directly to
StreamBase DSMS, which is refer[red] to as direct-query system" (Section
4.2).  The client ships a StreamSQL script straight to the DSMS and gets
a stream-handle URI back; no PDP, no PEP, no proxy.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.errors import StreamError, StreamSQLError
from repro.framework.messages import DirectQueryMessage, StreamResponseMessage
from repro.framework.metrics import MetricsCollector, RequestTrace
from repro.framework.network import SimulatedNetwork
from repro.streams.engine import StreamEngine


class DirectQuerySystem:
    """Submits StreamSQL scripts directly to the stream engine."""

    #: The endpoint its DSMS submissions are charged to.
    name = "direct-client"

    def __init__(
        self,
        engine: StreamEngine,
        network: SimulatedNetwork,
        metrics: Optional[MetricsCollector] = None,
    ):
        self.engine = engine
        self.network = network
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self._sequence = 0

    def submit(self, streamsql: str) -> Tuple[StreamResponseMessage, RequestTrace]:
        """Submit one script; returns (response, trace)."""
        self._sequence += 1
        message = DirectQueryMessage(streamsql)
        start = self.network.clock.now()

        outbound = self.network.transfer("client-dsms", message.payload_bytes())
        compute_start = time.perf_counter()
        error: Optional[str] = None
        handle_uri: Optional[str] = None
        try:
            handle = self.engine.register_streamsql(streamsql)
            handle_uri = handle.uri
        except (StreamSQLError, StreamError) as exc:
            error = str(exc)
        compute = time.perf_counter() - compute_start
        self.network.clock.advance(compute)
        submit_delay = self.network.dsms_submit(
            self.name, script_bytes=message.payload_bytes()
        )
        response = StreamResponseMessage(
            handle_uri, "denied" if error else None, error
        )
        inbound = self.network.transfer("client-dsms", response.payload_bytes())

        total = self.network.clock.now() - start
        trace = RequestTrace(
            sequence_no=self._sequence,
            system="direct",
            total=total,
            pdp=0.0,
            query_graph=0.0,
            dsms_submit=compute + submit_delay,
            network=outbound + inbound,
            outcome="ok" if response.ok else "error",
        )
        self.metrics.add(trace)
        return response, trace
