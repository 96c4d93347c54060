"""The client interface: where request-fulfilment time is measured.

"The performance of the system is measured by the time taken to fulfil
user's requests on data streams" (Section 4.2) — i.e. from the client
sending the request to the client holding the stream-handle URI.  The
client charges the client↔proxy legs, delegates to the proxy, and emits
one :class:`~repro.framework.metrics.RequestTrace` per request.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.user_query import UserQuery
from repro.framework.messages import StreamRequestMessage, StreamResponseMessage
from repro.framework.metrics import MetricsCollector, RequestTrace
from repro.framework.network import SimulatedNetwork
from repro.framework.proxy import Proxy
from repro.xacml.request import Request


class ClientInterface:
    """Issues access requests through a proxy and records traces."""

    #: The ``system`` of its traces; the experiment runner relabels it.
    system_label = "exacml+"

    def __init__(
        self,
        proxy: Proxy,
        network: SimulatedNetwork,
        metrics: Optional[MetricsCollector] = None,
    ):
        self.proxy = proxy
        self.network = network
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self._sequence = 0

    def request_stream(
        self, request: Request, user_query: Optional[UserQuery] = None
    ) -> Tuple[StreamResponseMessage, RequestTrace]:
        """Issue one request; returns (response, trace)."""
        self._sequence += 1
        message = StreamRequestMessage(request, user_query)
        start = self.network.clock.now()

        outbound = self.network.transfer("client-proxy", message.payload_bytes())
        proxy_result = self.proxy.process(message)
        inbound = self.network.transfer(
            "client-proxy", proxy_result.response.payload_bytes()
        )

        total = self.network.clock.now() - start
        network_seconds = outbound + inbound + proxy_result.network_seconds
        response = proxy_result.response
        trace = RequestTrace(
            sequence_no=self._sequence,
            system=self.system_label,
            total=total,
            pdp=proxy_result.timing.pdp,
            query_graph=proxy_result.timing.query_graph,
            dsms_submit=proxy_result.timing.dsms_submit,
            network=network_seconds,
            cache_hit=proxy_result.cache_hit,
            outcome="ok" if response.ok else (response.error_kind or "error"),
        )
        self.metrics.add(trace)
        return response, trace
