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

**Compile, then stamp.**  Everything steps 2, 4 and 5 derive — the two
graphs, their merge, the NR/PR findings, the StreamSQL text and what the
engine's plan needs to install the chain — is a pure function of (the
obligations, the stream and its schema, the user query, the merge
options), and a deployment grants the same few combinations over and
over (one policy, many subjects; one subject, many sessions).  The PEP
therefore *compiles* a :class:`GrantTemplate` with exactly those calls
the first time a combination is granted and keeps it in a per-PEP
:class:`repro.obs.Memo` (``pep.templates``) keyed by that content; every grant,
first or repeated, is then *stamped* from the template: a
:class:`~repro.streams.graph.QueryGraph` of its own (own name, own
operator list) carrying the template's plan trace, registered under a
handle of its own.  What depends on who asks and when stays per
request: the PDP decision, the query/stream mismatch check, the
single-access check, the NR/PR gates (``allow_partial_results`` is read
on every request), handle allocation and the graph manager's record.
Refusals (NR, PR, impossible merges, schema errors) store nothing.
Template operators are shared by every graph stamped from them, which
is safe by construction: an operator is a stateless declaration, and
what runs is what the plan's ``operator.bind(...)`` returns per node.

:class:`PepResult` carries the handle plus per-stage timings so the
framework's metrics layer can reproduce the paper's Figure 7 breakdown
(PDP / QueryGraph / StreamBase).
"""

from __future__ import annotations

import time
from typing import List, NamedTuple, Optional, Tuple

from repro.errors import (
    AccessDeniedError,
    EmptyResultWarning,
    MergeError,
    PartialResultWarning,
)
from repro.core.access_registry import AccessRegistry
from repro.core.graph_manager import QueryGraphManager
from repro.core.merge import MergeOptions, MergeResult, merge_query_graphs
from repro.core.obligations import obligations_to_graph
from repro.core.user_query import UserQuery
from repro.core.warnings_check import WarningReport
from repro.obs import MEMO_MAX_TEXT, Memo, pdp_counters, pdp_tag, spans
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.handles import StreamHandle
from repro.streams.operators.base import Operator
from repro.streams.plan import ChainTrace, trace_chain
from repro.streams.streamsql.generator import generate_streamsql
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.request import Request
from repro.xacml.response import Decision, Response


class PepTimings(NamedTuple):
    """Wall-clock seconds spent in each stage of one request.

    ``pdp``          — PDP evaluation (Figure 7's "PDP" series);
    ``query_graph``  — graph construction, single-access check, merge, NR/PR
                       analysis and a new template's StreamSQL (Figure 7's
                       "QueryGraph" series);
    ``dsms_submit``  — engine registration (Figure 7's "StreamBase" series).
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


class GrantTemplate(NamedTuple):
    """What every grant of one (obligations, stream, user query, merge
    options) combination has in common; see the module docstring."""

    #: The merged chain: declarations, shared by every stamped graph.
    operators: Tuple[Operator, ...]
    #: NR/PR findings of the merge (PR only: an NR merge is refused).
    warnings: Tuple[WarningReport, ...]
    streamsql: str
    #: Edge schemas + plan fingerprints of the chain on this stream.
    trace: ChainTrace


def _weigh_template(key: tuple, template: GrantTemplate) -> Optional[int]:
    """The template memo's ``weigh``, by the texts that bound an entry:
    the user query (its ``repr`` spells all of it) and the StreamSQL
    (every condition of the merged chain)."""
    texts = (template.streamsql, repr(key[3]))
    return None if max(map(len, texts)) > MEMO_MAX_TEXT else 12 * sum(map(len, texts)) + 2048


#: The spans of :meth:`PolicyEnforcementPoint.handle_request`, one per
#: :class:`PepTimings` stage.
_STAGES = ("pdp.evaluate", "pep.graph", "pep.submit")


def _stage_times(marks: List[float]) -> PepTimings:
    """The stages between consecutive *marks*; those never reached are 0."""
    marks = marks + marks[-1:] * (4 - len(marks))
    return PepTimings(marks[1] - marks[0], marks[2] - marks[1], marks[3] - marks[2])


class PolicyEnforcementPoint:
    """Marshals requests, PDP results and the stream engine."""

    def __init__(
        self,
        pdp: PolicyDecisionPoint,
        engine: StreamEngine,
        access_registry: Optional[AccessRegistry] = None,
        graph_manager: Optional[QueryGraphManager] = None,
        allow_partial_results: bool = False,
    ):
        self.pdp = pdp
        self.engine = engine
        self.access_registry = access_registry if access_registry is not None else AccessRegistry()
        self.graph_manager = graph_manager
        #: Part of every grant's template key; the grant harness swaps it.
        self.merge_options = MergeOptions()
        #: When True, PR findings are reported in the result instead of
        #: aborting the request.  The paper's step 5 submits the graph
        #: only "if there is no PR or NR warning detected", which is the
        #: default behaviour.
        self.allow_partial_results = allow_partial_results
        #: Compiled grants, by content.  On the PEP, not the module: the
        #: templates of a discarded PEP go with it.
        self.templates = Memo(self._compile, _weigh_template)

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

        *pdp_response* short-circuits step 2 with a given decision; the
        grant harness (``tests/properties/test_prop_grant_equivalence.py``)
        feeds its drawn obligations through it.  It charges zero PDP
        time and stamps no ``pdp.evaluate`` span.

        A refusal carries the stage times elapsed until it was raised
        as ``error.timings`` (a :class:`PepTimings`).
        """
        sink = spans.sink
        if sink is not None:
            memo = self.templates
            before = pdp_counters(self.pdp), memo.hits, memo.misses
        marks = [time.perf_counter()]   # each stage's start, then the end
        try:
            return self._handle(request, user_query, pdp_response, marks)
        except Exception as error:
            marks.append(time.perf_counter())
            error.timings = _stage_times(marks)
            raise
        finally:
            if sink is not None:
                template = ("hit" if memo.hits > before[1]
                            else "miss" if memo.misses > before[2] else None)
                tags = (pdp_tag(self.pdp, before[0]), template, None)
                for name, tag, started, ended in zip(_STAGES, tags, marks, marks[1:]):
                    if pdp_response is None or name != "pdp.evaluate":
                        sink(name, started, ended, tag)

    def _handle(self, request, user_query, pdp_response, marks) -> PepResult:
        subject = request.require_subject()
        stream_name = request.resource_id
        if stream_name is None:
            raise AccessDeniedError(
                Decision.NOT_APPLICABLE, "request names no resource stream"
            )

        # Step 1/2: PDP evaluation (unless a precomputed decision rides in).
        marks[0] = time.perf_counter()
        response = pdp_response if pdp_response is not None else self.pdp.evaluate(request)
        marks.append(time.perf_counter())
        if response.decision is not Decision.PERMIT:
            raise AccessDeniedError(response.decision)

        # Per request: the query/stream mismatch check and step 3, the
        # single-access check.
        if user_query is not None and user_query.stream.lower() != stream_name.lower():
            raise AccessDeniedError(
                Decision.NOT_APPLICABLE,
                f"user query targets stream {user_query.stream!r} but the "
                f"request names {stream_name!r}",
            )
        self.access_registry.check(subject, stream_name)
        schema = self.engine.catalog.schema(stream_name)
        if user_query is not None and user_query.is_empty:
            user_query = None

        # Steps 2, 4 and 5's StreamSQL, once per distinct grant:
        # obligations and user query → graphs, merge with NR/PR analysis.
        key = (response.obligations, stream_name, schema, user_query, self.merge_options)
        template = self.templates.get(key)
        self._gate(template.warnings)   # allow_partial_results may have changed
        marks.append(time.perf_counter())

        # Step 5: a graph of this request's own, submission, handle return.
        user_name = f"user:{subject}" if user_query is not None else f"user:{subject}:empty"
        graph = QueryGraph(
            stream_name,
            template.operators,
            name=f"policy:{response.policy_id}+{user_name}",
        )
        graph.trace = template.trace
        handle = self.engine.register_query(graph)
        self.access_registry.acquire(subject, stream_name, handle)
        if self.graph_manager is not None:
            self.graph_manager.record(
                handle, response.policy_id, subject, stream_name, graph
            )
        marks.append(time.perf_counter())

        return PepResult(
            handle=handle,
            streamsql=template.streamsql,
            merged_graph=graph,
            response=response,
            warnings=list(template.warnings),
            timings=_stage_times(marks),
        )

    def _compile(self, key: tuple) -> GrantTemplate:
        """One distinct grant's template; a refused grant raises."""
        merged = self._merge(*key)
        self._gate(merged.warnings)
        return GrantTemplate(
            merged.graph.operators,
            tuple(merged.warnings),
            generate_streamsql(merged.graph),
            trace_chain(merged.graph, key[2]),
        )

    def _gate(self, warnings) -> None:
        """Step 5's condition: refuse on NR, and on PR unless allowed."""
        if any(w.is_nr for w in warnings):
            raise EmptyResultWarning("user query conflicts with policy: no tuples can "
                                     "ever be returned (NR)", conflicts=list(warnings))
        if not self.allow_partial_results and any(w.is_pr for w in warnings):
            raise PartialResultWarning("user query partially conflicts with policy: some "
                                       "expected tuples will be withheld (PR)",
                                       conflicts=list(warnings))

    def _merge(self, obligations, stream_name, schema, user_query, options) -> MergeResult:
        """Steps 2 and 4 for one distinct grant.  The graph names are
        placeholders: every grant is stamped with its own."""
        policy_graph = obligations_to_graph(obligations, stream_name, name="policy")
        user_graph = (
            user_query.to_query_graph(name="user")
            if user_query is not None
            else QueryGraph(stream_name, name="user")
        )
        try:
            merged = merge_query_graphs(
                policy_graph, user_graph, schema=schema, options=options
            )
        except MergeError as error:
            # Impossible merges (finer-than-policy windows, disjoint
            # projections, empty aggregation intersections) mean no tuple
            # can ever be returned — the NR case of Section 3.5.
            raise EmptyResultWarning(str(error)) from error
        if user_query is None:
            # NR/PR describe conflicts between the *user's expectations*
            # and policy (Section 3.5); a bare request has no expectations
            # beyond "whatever the policy allows", so findings are moot.
            merged = merged._replace(warnings=[])
        return merged

    def release(self, handle: StreamHandle) -> None:
        """User-initiated release of a stream handle."""
        if self.graph_manager is not None:
            self.graph_manager.withdraw(handle)
        else:
            self.engine.withdraw(handle)
            self.access_registry.release_handle(handle)
