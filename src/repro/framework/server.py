"""The cloud data server: the XACML+ service core.

The server performs the real access-control computation (PDP evaluation,
obligation decoding, merging, NR/PR analysis, StreamSQL generation and
engine registration) and reports its real cost as a :class:`ServerTiming`.
It simulates nothing — the testbed's network is something the
*experiment* has: in the simulated deployment the proxy charges a
request's compute and, on a grant, the server→DSMS submission delay, and
the experiment runner charges the paper's per-policy load cost
(0.25 s ± 0.06 s) after each load succeeds.  A served deployment
(:mod:`repro.serving`) runs this same core behind a real socket.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

import time

from repro.errors import (
    AccessDeniedError,
    ConcurrentAccessError,
    EmptyResultWarning,
    ExpressionError,
    MergeError,
    ObligationError,
    PartialResultWarning,
    SchemaError,
    UnknownStreamError,
)
from repro.core.xacml_plus import XacmlPlusInstance
from repro.framework.messages import StreamRequestMessage, StreamResponseMessage
from repro.streams.engine import StreamEngine
from repro.xacml.policy import Policy
from repro.xacml.xml_io import parse_policy_xml


class ServerTiming(NamedTuple):
    """Server-side breakdown of one request (real seconds)."""

    pdp: float
    query_graph: float
    dsms_submit: float     # StreamSQL generation + engine registration
    compute_total: float   # the whole of ``DataServer.process``
    script_bytes: int = 0  # StreamSQL a grant submitted (sizes the simulated submit)


class DataServer:
    """Hosts the XACML+ instance; entry point for proxies and sockets.

    *network* (first positional, exposed as :attr:`network`) is kept for
    callers that still hand over the deployment's simulated network —
    dropping it is a benchmark change — but **the server never calls
    it**.  Served deployments pass nothing.
    """

    #: The endpoint a proxy charges this server's DSMS submissions to.
    name = "server"

    def __init__(
        self,
        network=None,
        engine: Optional[StreamEngine] = None,
        enforce_single_access: bool = True,
        allow_partial_results: bool = False,
        pdp_shards: Optional[int] = None,
    ):
        self.network = network
        self.instance = XacmlPlusInstance(
            engine=engine,
            enforce_single_access=enforce_single_access,
            allow_partial_results=allow_partial_results,
            pdp_shards=pdp_shards,
        )
        #: Count of requests processed (all outcomes).
        self.requests_processed = 0

    # -- policy management ------------------------------------------------------

    def load_policy(self, policy: Union[Policy, str]) -> Policy:
        """Load one policy (object or XML document)."""
        return self.instance.load_policy(_policy_of(policy))

    def update_policy(self, policy: Union[Policy, str]) -> Policy:
        """Replace a loaded policy; before the call returns its spawned
        query graphs are revoked and the cached decisions the old or the
        new version can reach are evicted (the rest stay warm)."""
        return self.instance.update_policy(_policy_of(policy))

    def remove_policy(self, policy_id: str) -> None:
        self.instance.remove_policy(policy_id)

    # -- request processing --------------------------------------------------------

    def process(self, message: StreamRequestMessage):
        """Process one request; returns (response, :class:`ServerTiming`).

        All failures the PEP can signal are mapped onto error responses
        rather than exceptions — the entity at the other end of a socket
        only ever sees a response message.
        """
        self.requests_processed += 1
        started = time.perf_counter()
        try:
            result = self.instance.request_stream(message.request, message.user_query)
        except AccessDeniedError as error:
            decision = getattr(error.decision, "value", None)
            return self._error_response("denied", error, started, decision)
        except UnknownStreamError as error:
            # A policy may permit a stream this engine does not host.
            return self._error_response("denied", error, started)
        except ConcurrentAccessError as error:
            return self._error_response("concurrent", error, started)
        except (EmptyResultWarning, MergeError) as error:
            return self._error_response("nr", error, started)
        except PartialResultWarning as error:
            return self._error_response("pr", error, started)
        except (ObligationError, ExpressionError, SchemaError) as error:
            # The permitting policy's obligations (or the user's query)
            # cannot be turned into a graph over this stream: malformed,
            # or naming an attribute / comparing a type the stream lacks.
            return self._error_response("invalid", error, started)
        timing = ServerTiming(
            pdp=result.timings.pdp,
            query_graph=result.timings.query_graph,
            dsms_submit=result.timings.dsms_submit,
            compute_total=time.perf_counter() - started,
            script_bytes=len(result.streamsql.encode()),
        )
        response = StreamResponseMessage(
            handle_uri=result.handle.uri,
            decision=result.response.decision.value,
            policy_id=result.response.policy_id,
        )
        return response, timing

    def _error_response(self, kind: str, error, started: float, decision=None):
        """A refusal, its compute split by the stage times the PEP
        attached: PDP and submit as timed, the rest query graph."""
        compute = time.perf_counter() - started
        pdp, _, submit = getattr(error, "timings", (0.0, 0.0, 0.0))
        timing = ServerTiming(pdp, compute - pdp - submit, submit, compute)
        response = StreamResponseMessage(None, kind, str(error), decision=decision)
        return response, timing


def _policy_of(policy: Union[Policy, str]) -> Policy:
    return parse_policy_xml(policy) if isinstance(policy, str) else policy
