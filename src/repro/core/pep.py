"""The Policy Enforcement Point (Section 3.2 workflow).

The PEP work-flow, verbatim from the paper:

1. receive a user's request for a stream together with a customised
   query; forward the request to the PDP and convert the query into an
   Aurora query graph;
2. the PDP evaluates the request; on Permit, generate a query graph from
   the returned obligations;
3. check that the credentials hold no other live query on the same
   stream (Section 3.4's single-access constraint);
4. merge the obligation graph with the user-query graph, checking for
   PR/NR on the way;
5. if no PR or NR warning was detected, convert the merged graph into a
   StreamSQL script, send it to the stream engine, and return a handle
   (URI) to the user.

:class:`PepResult` carries the handle plus per-stage timings so the
framework's metrics layer can reproduce the paper's Figure 7 breakdown
(PDP / QueryGraph / StreamBase).
"""

from __future__ import annotations

import time
from typing import List, NamedTuple, Optional

from repro.errors import (
    AccessDeniedError,
    EmptyResultWarning,
    MergeError,
    PartialResultWarning,
)
from repro.core.access_registry import AccessRegistry
from repro.core.graph_manager import QueryGraphManager
from repro.core.merge import MergeOptions, merge_query_graphs
from repro.core.obligations import obligations_to_graph
from repro.core.user_query import UserQuery
from repro.core.warnings_check import WarningReport
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.handles import StreamHandle
from repro.streams.streamsql.generator import generate_streamsql
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.request import Request
from repro.xacml.response import Decision, Response


class PepTimings(NamedTuple):
    """Wall-clock seconds spent in each stage of one request.

    ``pdp``          — PDP evaluation (Figure 7's "PDP" series);
    ``query_graph``  — graph construction, single-access check, merge and
                       NR/PR analysis (Figure 7's "QueryGraph" series);
    ``dsms_submit``  — StreamSQL generation and engine registration
                       (Figure 7's "StreamBase" series).
    """

    pdp: float
    query_graph: float
    dsms_submit: float

    @property
    def total(self) -> float:
        return self.pdp + self.query_graph + self.dsms_submit


class PepResult(NamedTuple):
    """Outcome of one authorized request."""

    handle: StreamHandle
    streamsql: str
    merged_graph: QueryGraph
    response: Response
    warnings: List[WarningReport]
    timings: PepTimings


class PolicyEnforcementPoint:
    """Marshals requests, PDP results and the stream engine."""

    def __init__(
        self,
        pdp: PolicyDecisionPoint,
        engine: StreamEngine,
        access_registry: Optional[AccessRegistry] = None,
        graph_manager: Optional[QueryGraphManager] = None,
        merge_options: MergeOptions = MergeOptions(),
        allow_partial_results: bool = False,
    ):
        self.pdp = pdp
        self.engine = engine
        self.access_registry = access_registry if access_registry is not None else AccessRegistry()
        self.graph_manager = graph_manager
        self.merge_options = merge_options
        #: When True, PR findings are reported in the result instead of
        #: aborting the request.  The paper's step 5 submits the graph
        #: only "if there is no PR or NR warning detected", which is the
        #: default behaviour.
        self.allow_partial_results = allow_partial_results

    def handle_request(
        self,
        request: Request,
        user_query: Optional[UserQuery] = None,
        pdp_response: Optional[Response] = None,
    ) -> PepResult:
        """Run the five-step workflow for one request.

        Raises :class:`AccessDeniedError`, :class:`ConcurrentAccessError`,
        :class:`EmptyResultWarning` or :class:`PartialResultWarning` on
        the corresponding failures; on success returns a
        :class:`PepResult` with the stream handle.

        *pdp_response* short-circuits step 2: the one seam where a
        decision an async front-end awaited off its loop (a blocking
        evaluator such as a shard worker pool) re-enters on-loop
        enforcement.  It charges zero PDP time, so an inline evaluator
        is not pre-evaluated but called — and timed — here.
        """
        subject = request.require_subject()
        stream_name = request.resource_id
        if stream_name is None:
            raise AccessDeniedError(
                Decision.NOT_APPLICABLE, "request names no resource stream"
            )

        # Step 1/2: PDP evaluation (unless a precomputed decision rides in).
        started = time.perf_counter()
        response = pdp_response if pdp_response is not None else self.pdp.evaluate(request)
        pdp_elapsed = time.perf_counter() - started
        if response.decision is not Decision.PERMIT:
            raise AccessDeniedError(response.decision)

        # Step 2 (cont.): obligations → policy graph; step 1 (cont.):
        # user query → graph; step 3: single-access check; step 4: merge.
        started = time.perf_counter()
        policy_graph = obligations_to_graph(
            response.obligations, stream_name, name=f"policy:{response.policy_id}"
        )
        if user_query is not None and user_query.stream.lower() != stream_name.lower():
            raise AccessDeniedError(
                Decision.NOT_APPLICABLE,
                f"user query targets stream {user_query.stream!r} but the "
                f"request names {stream_name!r}",
            )
        has_user_query = user_query is not None and not user_query.is_empty
        user_graph = (
            user_query.to_query_graph(name=f"user:{subject}")
            if has_user_query
            else QueryGraph(stream_name, name=f"user:{subject}:empty")
        )
        self.access_registry.check(subject, stream_name)
        schema = self.engine.catalog.schema(stream_name)
        try:
            merge_result = merge_query_graphs(
                policy_graph, user_graph, schema=schema, options=self.merge_options
            )
        except MergeError as error:
            # Impossible merges (finer-than-policy windows, disjoint
            # projections, empty aggregation intersections) mean no tuple
            # can ever be returned — the NR case of Section 3.5.
            raise EmptyResultWarning(str(error)) from error
        if not has_user_query:
            # NR/PR describe conflicts between the *user's expectations*
            # and policy (Section 3.5); a bare request has no expectations
            # beyond "whatever the policy allows", so findings are moot.
            merge_result = merge_result._replace(warnings=[])
        if merge_result.has_nr:
            raise EmptyResultWarning(
                "user query conflicts with policy: no tuples can ever be "
                "returned (NR)",
                conflicts=merge_result.warnings,
            )
        if merge_result.has_pr and not self.allow_partial_results:
            raise PartialResultWarning(
                "user query partially conflicts with policy: some expected "
                "tuples will be withheld (PR)",
                conflicts=merge_result.warnings,
            )
        graph_elapsed = time.perf_counter() - started

        # Step 5: StreamSQL generation, submission, handle return.
        started = time.perf_counter()
        script = generate_streamsql(merge_result.graph)
        handle = self.engine.register_query(merge_result.graph)
        self.access_registry.acquire(subject, stream_name, handle)
        if self.graph_manager is not None:
            self.graph_manager.record(
                handle, response.policy_id, subject, stream_name, merge_result.graph
            )
        submit_elapsed = time.perf_counter() - started

        return PepResult(
            handle=handle,
            streamsql=script,
            merged_graph=merge_result.graph,
            response=response,
            warnings=merge_result.warnings,
            timings=PepTimings(pdp_elapsed, graph_elapsed, submit_elapsed),
        )

    def release(self, handle: StreamHandle) -> None:
        """User-initiated release of a stream handle."""
        if self.graph_manager is not None:
            self.graph_manager.withdraw(handle)
        else:
            self.engine.withdraw(handle)
            self.access_registry.release_handle(handle)
