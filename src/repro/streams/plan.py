"""Shared-operator execution plans: the engine's one execution path.

Every continuous query on an input stream runs on that stream's
:class:`StreamPlan`, a DAG of operator nodes merged across queries.  At
realistic fan-out — hundreds of queries on one stream, most of them
near-identical (policy obligations stamped from a handful of templates)
— a pushed batch is filtered/windowed once per *distinct* operator
prefix instead of once per query; a plan holding one query is simply
that query's private pipeline.

- **Fingerprinting.**  Each operator in a query chain is reduced to a
  canonical, hashable key (:func:`operator_fingerprint`).  Filter
  conditions are canonicalized through DNF conversion + per-conjunction
  simplification (``expr/normalize.py`` / ``expr/simplify.py``), so
  ``x > 5 AND y = 1`` and ``y = 1 AND x > 5`` share one key.  A new
  query walks the DAG from the root, reusing the existing node at each
  step when fingerprints match, so identical prefixes are evaluated
  **once** per batch no matter how many queries share them.  The keys
  and the chain's edge schemas are a pure function of (chain, source
  schema) — a :class:`ChainTrace` — so whoever registers the same chain
  many times (the PEP, once per grant of a template) computes the trace
  once, carries it on the graph (``QueryGraph.trace``) and
  :meth:`StreamPlan.attach` neither validates nor fingerprints again;
  a graph without a trace is traced on attach.

- **Predicate subsumption.**  When a new filter provably implies an
  existing sibling filter (:func:`repro.expr.satisfiability.dnf_implies`
  — sound, incomplete), the new node feeds from the *host's output* with
  a residual predicate (the literals the host does not already
  guarantee) instead of re-scanning the whole input.  Every filter node
  owns its condition's DNF, so finding a host normalises the newcomer
  once and no sibling at all.

- **Bind-on-divergence for state.**  An operator is a declaration; a
  node runs what ``operator.bind(in_schema, out_schema)`` returned when
  the node was created (``node.run``).  Stateless nodes (filter, map)
  are shareable at any time.  A state-bearing node (window aggregation)
  is only shareable while it has consumed no input and no batch is in
  flight: window alignment and the time-window origin are
  history-dependent, and a newly registered query always starts with an
  empty window.  A late-arriving twin gets a node of its own — the same
  declaration bound again — under the same fingerprint.

- **Refcounted detach.**  Withdrawal removes the query's sink and
  cascades up the feed tree, freeing every node that no longer feeds a
  sink or another node — co-tenants of shared prefixes are undisturbed.

Sharing must be invisible: each query's output is what it would be were
it alone on the stream.  The plan registers **one** batch listener on
the source and gives every query the dispatch semantics of a ``Stream``
batch listener of its own — which is how the oracle
(:mod:`repro.streams.reference`) runs each query, so the differential
harness (``tests/properties/test_streams_equivalence.py``) pins the two
implementations against each other under registration/withdrawal
churn, from inside a dispatch too:

- Node outputs are delivered to sinks in global registration order —
  the order per-query batch listeners fire in.
- A query withdrawn before its turn in that sweep (by a listener on the
  source ahead of the plan's, or on a sibling query's output) receives
  nothing of the batch.
- A query (and any node created for it) registered while dispatches are
  in flight misses those batches — a listener added mid-dispatch is
  absent from every in-flight snapshot.  The plan says so in the
  dispatch's own record (``Stream._miss_inflight``), so the marker is
  gone when the dispatch is.

What invisibility does *not* cover is where the one listener sits: at
the position of the stream's first registration.  A foreign batch
listener attached to an input stream *between* two registrations fires
between those two queries in the oracle but after both here, so a query
it withdraws has already received the batch.  Control hooks belong
before the stream's first registration, or on output streams.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.expr.ast import (
    AndExpression,
    BooleanExpression,
    NotExpression,
    OrExpression,
    SimpleExpression,
    TrueExpression,
)
from repro.expr.normalize import DNF, to_dnf
from repro.expr.satisfiability import conjunction_unsatisfiable, dnf_implies
from repro.expr.simplify import simplify_conjunction
from repro.streams.graph import QueryGraph
from repro.streams.handles import StreamHandle
from repro.streams.operators.base import Operator
from repro.streams.operators.filter import FilterOperator
from repro.streams.operators.map import MapOperator
from repro.streams.operators.window import AggregateOperator
from repro.streams.schema import Schema
from repro.streams.stream import Stream
from repro.streams.tuples import Batch, StreamTuple

# ---------------------------------------------------------------------------
# Operator fingerprinting
# ---------------------------------------------------------------------------

#: Leaf budget for condition canonicalization.  DNF conversion is
#: exponential in AND/OR alternation depth, so conditions over this
#: budget fall back to a textual key (identical text still shares; the
#: equivalence and subsumption analyses are skipped).
CANON_LEAF_LIMIT = 16


def _count_leaves(expression: BooleanExpression) -> int:
    count = 0
    stack: List[BooleanExpression] = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, SimpleExpression):
            count += 1
        elif isinstance(node, (AndExpression, OrExpression)):
            stack.extend(node.children)
        elif isinstance(node, NotExpression):
            stack.append(node.child)
    return count


def _literal_key(literal: SimpleExpression) -> tuple:
    # The string flag keeps mixed-type value columns orderable: ties on
    # (attribute, op) only ever compare same-kind values.
    return (
        literal.attribute,
        literal.op.name,
        isinstance(literal.value, str),
        literal.value,
    )


def condition_fingerprint(condition: BooleanExpression) -> tuple:
    """A canonical hashable key for a filter condition.

    Equal keys imply logically equivalent conditions: the key is built
    by DNF conversion, dropping unsatisfiable conjunctions, simplifying
    each conjunction (literals implied by a same-attribute neighbour are
    dropped), and sorting literals and conjunctions — every step an
    equivalence transform.  The converse does not hold (two equivalent
    conditions may key differently); such pairs may still merge through
    the subsumption feed, which checks implication both ways.
    """
    if isinstance(condition, TrueExpression):
        return ("true",)
    if _count_leaves(condition) > CANON_LEAF_LIMIT:
        return ("raw", condition.to_condition_string())
    conjunctions = []
    for conjunction in to_dnf(condition):
        if not conjunction:
            return ("true",)
        if conjunction_unsatisfiable(conjunction):
            continue
        literals = simplify_conjunction(conjunction)
        conjunctions.append(tuple(sorted(_literal_key(lit) for lit in literals)))
    if not conjunctions:
        return ("false",)
    return ("dnf", tuple(sorted(set(conjunctions))))


def operator_fingerprint(operator: Operator) -> Optional[tuple]:
    """A hashable key such that equal keys mean interchangeable operators.

    ``None`` means "never share": unknown operator types may hide state
    or side effects the plan cannot reason about, so each gets a private
    node.  Exact-type checks (not ``isinstance``) keep subclasses with
    overridden behaviour private too.

    Map keys are order-insensitive (``Schema.project`` orders output
    fields by the input schema's declaration order, not the attribute
    list); aggregation-spec order is preserved (it fixes the output
    schema's field order).
    """
    if type(operator) is FilterOperator:
        return ("filter", condition_fingerprint(operator.condition))
    if type(operator) is MapOperator:
        return ("map", operator.attribute_set())
    if type(operator) is AggregateOperator:
        window = operator.window
        return (
            "aggregate",
            window.window_type,
            window.size,
            window.step,
            operator.time_attribute,
            tuple(spec.key for spec in operator.aggregations),
        )
    return None


class ChainTrace(NamedTuple):
    """What :meth:`StreamPlan.attach` derives from a chain before it
    touches the DAG: a pure function of (operators, source schema)."""

    #: Schemas at every edge: the source's first, the output's last.
    schemas: List[Schema]
    #: One :func:`operator_fingerprint` per operator.
    fingerprints: Tuple[Optional[tuple], ...]


def trace_chain(graph: QueryGraph, input_schema: Schema) -> ChainTrace:
    """Validate *graph* against *input_schema* and fingerprint it.

    Raises what :meth:`QueryGraph.schema_trace` raises on a chain the
    schema does not support.
    """
    return ChainTrace(
        graph.schema_trace(input_schema),
        tuple(operator_fingerprint(operator) for operator in graph.operators),
    )


# ---------------------------------------------------------------------------
# DAG nodes and sinks
# ---------------------------------------------------------------------------


class PlanNode:
    """One bound operator, shared by every query whose chain reaches it.

    ``logical_parent`` is the node whose *output set* this node's input
    is defined on (the previous chain position); ``feed`` is the node
    whose output is physically consumed.  They differ only for
    subsumption-fed filters, where ``feed`` is the host filter and the
    operator holds the residual predicate.  ``run`` is the operator bound
    between the feed's output schema and ``out_schema`` — the one thing
    the dispatch calls.  ``children_by_fp`` is the
    share registry (fingerprint → nodes, a list because touched stateful
    nodes force same-fingerprint twins); ``feed_children`` are the
    physical consumers.  A node stays alive while it has sinks or feed
    children (see :meth:`StreamPlan._release`).
    """

    __slots__ = (
        "fingerprint",
        "operator",
        "run",
        "out_schema",
        "dnf",
        "logical_parent",
        "feed",
        "host",
        "children_by_fp",
        "feed_children",
        "sinks",
        "consumed",
    )

    def __init__(
        self,
        fingerprint: Optional[tuple],
        operator: Optional[Operator],
        out_schema,
        logical_parent: Optional["PlanNode"],
        feed: Optional["PlanNode"],
        dnf: Optional[DNF] = None,
        host: Optional["PlanNode"] = None,
    ):
        self.fingerprint = fingerprint
        self.operator = operator
        self.run = (
            None if operator is None else operator.bind(feed.out_schema, out_schema)
        )
        self.out_schema = out_schema
        #: DNF of the full logical condition (filter nodes within
        #: :data:`CANON_LEAF_LIMIT` only) — what the subsumption analysis
        #: compares; ``operator.condition`` holds only the residual for a
        #: subsumption-fed node.  Owned by the node: normalised once, when
        #: the node is created, and freed with it.
        self.dnf = dnf
        self.logical_parent = logical_parent
        self.feed = feed
        self.host = host
        self.children_by_fp: Dict[tuple, List[PlanNode]] = {}
        self.feed_children: List[PlanNode] = []
        self.sinks: List[SharedQuery] = []
        #: Input tuples consumed so far; a stateful node is shareable
        #: only at zero (a new query's window must start empty).
        self.consumed = 0

    @property
    def refcount(self) -> int:
        return len(self.feed_children) + len(self.sinks)

    def __repr__(self) -> str:
        op = self.operator.describe() if self.operator is not None else "<source>"
        return f"PlanNode({op}, refcount={self.refcount})"


class SharedQuery:
    """Engine-facing record of one query registered on a plan:
    ``handle``, ``output``, ``active``, ``output_schema``, ``withdraw()``.
    """

    __slots__ = ("plan", "handle", "node", "output", "active")

    def __init__(
        self, plan: "StreamPlan", handle: StreamHandle, node: PlanNode, output: Stream
    ):
        self.plan = plan
        self.handle = handle
        self.node = node
        self.output = output
        self.active = True

    @property
    def output_schema(self):
        return self.output.schema

    def withdraw(self) -> None:
        """Detach from the plan without disturbing co-tenant queries."""
        self.plan.detach(self)

    def __repr__(self) -> str:
        state = "active" if self.active else "withdrawn"
        return f"SharedQuery({self.handle.uri}, {state})"


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


class StreamPlan:
    """The shared-operator execution DAG for one input stream.

    Owns a single batch listener on the source (never removed — an empty
    plan is just a no-op listener) and the DAG rooted at the pseudo-node
    ``root`` (the source itself).  See the module docstring for the
    sharing, subsumption and equivalence rules.
    """

    def __init__(self, source: Stream):
        self.source = source
        self.root = PlanNode(("source",), None, source.schema, None, None)
        #: Delivery order == global registration order.
        self.queries: List[SharedQuery] = []  # guarded by: owner
        self.nodes_created = 0  # guarded by: owner
        self.nodes_shared = 0  # guarded by: owner
        self.nodes_subsumed = 0  # guarded by: owner
        source.add_batch_listener(self._on_batch)

    # -- registration -----------------------------------------------------------

    def attach(self, graph: QueryGraph, handle: StreamHandle) -> SharedQuery:
        """Install *graph* into the DAG; returns the new sink.

        The whole chain is validated (schema propagation) before any
        plan state is touched, so an invalid graph changes nothing.  A
        graph carrying the trace of an earlier validation against this
        very source schema (``graph.trace``) is not validated again.
        """
        trace = graph.trace
        if trace is None or trace.schemas[0] is not self.source.schema:
            trace = trace_chain(graph, self.source.schema)
        node = self.root
        for operator, fingerprint, out_schema in zip(
            graph.operators, trace.fingerprints, trace.schemas[1:]
        ):
            node = self._child_for(node, operator, fingerprint, out_schema)
        output = Stream(handle.query_id, node.out_schema)
        query = SharedQuery(self, handle, node, output)
        self.source._miss_inflight(query)
        node.sinks.append(query)
        self.queries.append(query)
        return query

    def _child_for(
        self,
        parent: PlanNode,
        operator: Operator,
        fingerprint: Optional[tuple],
        out_schema,
    ) -> PlanNode:
        if fingerprint is not None:
            for candidate in parent.children_by_fp.get(fingerprint, ()):
                if not candidate.operator.stateful or (
                    candidate.consumed == 0 and self.source._inflight is None
                ):
                    self.nodes_shared += 1
                    return candidate
            # Same-fingerprint candidates exist but have consumed input,
            # or are about to consume a batch in flight that the newcomer
            # must miss: fall through and bind a node of its own.
        feed = parent
        dnf: Optional[DNF] = None
        host: Optional[PlanNode] = None
        if fingerprint is not None and fingerprint[0] == "filter":
            if _count_leaves(operator.condition) <= CANON_LEAF_LIMIT:
                dnf = to_dnf(operator.condition)
                host = self._find_host(parent, dnf)
            if host is not None:
                operator = self._residual_filter(operator, dnf, host.dnf)
                feed = host
                self.nodes_subsumed += 1
            # Filters preserve their input schema; reusing the parent's
            # schema object keeps ``Stream.append_batch``'s per-tuple
            # schema check at one `is`.
            out_schema = parent.out_schema
        node = PlanNode(
            fingerprint,
            operator,
            out_schema,
            parent,
            feed,
            dnf=dnf,
            host=host,
        )
        self.source._miss_inflight(node)
        if fingerprint is not None:
            parent.children_by_fp.setdefault(fingerprint, []).append(node)
        feed.feed_children.append(node)
        self.nodes_created += 1
        return node

    def _find_host(self, parent: PlanNode, dnf: DNF) -> Optional[PlanNode]:
        """The tightest sibling filter provably implied by the condition
        whose DNF is *dnf*.

        ``condition ⇒ host`` means the new filter's output is a subset
        of the host's, so it can be computed from the host's (smaller)
        output instead of re-scanning the parent's.  Among multiple
        candidates the tightest is kept (host A beats host B when
        ``A ⇒ B``), minimising the tuples the residual must re-test.
        Siblings are compared through the DNF each one owns (non-filter
        and over-budget siblings have none), so the scan normalises
        nothing.
        """
        host: Optional[PlanNode] = None
        for siblings in parent.children_by_fp.values():
            for candidate in siblings:
                if candidate.dnf is None:
                    continue
                if not dnf_implies(dnf, candidate.dnf):
                    continue
                if host is None or dnf_implies(candidate.dnf, host.dnf):
                    host = candidate
        return host

    def _residual_filter(
        self, operator: FilterOperator, dnf: DNF, host_dnf: DNF
    ) -> FilterOperator:
        """A filter equivalent to *operator* (whose condition's DNF is
        *dnf*) on the host's output.

        The host's output is exactly the tuples satisfying the host's
        condition, so literals the host already guarantees
        (``host ⇒ literal``) can be dropped: on that domain the rest of
        the conjunction is equivalent to the full condition.  Dropping
        is only attempted when the condition normalises to a single
        conjunction; otherwise the full condition is kept — still
        correct, merely without the re-test savings.  So is an
        unsatisfiable conjunction: it may hold the literals ``NOT TRUE``
        normalises to, which name no attribute and cannot be compiled.
        """
        residual: BooleanExpression = operator.condition
        if len(dnf) == 1 and dnf[0] and not conjunction_unsatisfiable(dnf[0]):
            literals = [
                literal
                for literal in simplify_conjunction(dnf[0])
                if not dnf_implies(host_dnf, [(literal,)])
            ]
            if not literals:
                residual = TrueExpression()
            elif len(literals) == 1:
                residual = literals[0]
            else:
                residual = AndExpression(tuple(literals))
        return FilterOperator(residual)

    # -- dispatch ---------------------------------------------------------------

    def _on_batch(self, batch: Sequence[StreamTuple]) -> None:
        """Run the pushed tuples of *batch* through the DAG as one
        :class:`Batch`.

        Phase 1 computes every reachable node exactly once in feed-tree
        order (each node's feed is computed before the node itself);
        what crosses an edge is a batch of columns and selected rows.
        Phase 2 delivers node outputs to sinks in global registration
        order — the order one ``Stream`` listener per query fires in,
        which keeps cross-query observable interleavings (and
        sibling-withdrawal behaviour) identical to the oracle's.  A
        node's output becomes tuples there, once, shared by its sinks;
        a chain that has only filtered hands on the pushed tuples.

        Nodes and sinks registered while this dispatch was in flight are
        in its ``absent`` set and are skipped, subtree included (their
        children were registered no earlier).
        """
        absent = self.source._inflight.absent
        outputs: Dict[PlanNode, Batch] = {self.root: Batch.of(batch)}
        stack = list(self.root.feed_children)
        while stack:
            node = stack.pop()
            if node in absent:
                continue
            inputs = outputs[node.feed]
            count = len(inputs)
            if count:
                node.consumed += count
                outputs[node] = node.run(inputs)
            else:
                outputs[node] = inputs
            stack.extend(node.feed_children)
        built: Dict[PlanNode, Sequence[StreamTuple]] = {}
        for query in list(self.queries):
            if not query.active or query in absent:
                continue
            node = query.node
            result = built.get(node)
            if result is None:
                result = built[node] = outputs[node].to_tuples(node.out_schema)
            if result:
                query.output.append_batch(result)

    # -- withdrawal -------------------------------------------------------------

    def detach(self, query: SharedQuery) -> None:
        """Withdraw *query*: deactivate it and free unshared nodes.

        Withdrawn from inside a dispatch, before its turn in the sweep,
        the query receives nothing of that batch — as a removed listener
        does.
        """
        if not query.active:
            return
        query.active = False
        query.output.close()
        self.queries.remove(query)
        node = query.node
        node.sinks.remove(query)
        self._release(node)

    def _release(self, node: PlanNode) -> None:
        """Refcount cascade: free nodes that no longer feed anything.

        Liveness is physical (sinks + feed children); the fingerprint
        registry holds no reference of its own, so a freed node also
        leaves the share registry and later twins get fresh nodes.
        """
        while node is not self.root and node.refcount == 0:
            feed = node.feed
            feed.feed_children.remove(node)
            if node.fingerprint is not None:
                siblings = node.logical_parent.children_by_fp[node.fingerprint]
                siblings.remove(node)
                if not siblings:
                    del node.logical_parent.children_by_fp[node.fingerprint]
            node.feed = node.logical_parent = node.host = None
            node = feed

    # -- introspection ----------------------------------------------------------

    def live_nodes(self) -> List[PlanNode]:
        """Every operator node currently in the DAG (root excluded)."""
        nodes: List[PlanNode] = []
        stack = list(self.root.feed_children)
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.feed_children)
        return nodes

    def stats(self) -> Dict[str, int]:
        """Plan-shape counters (monitoring, benchmarks, churn assertions)."""
        return {
            "queries": len(self.queries),
            "live_nodes": len(self.live_nodes()),
            "nodes_created": self.nodes_created,
            "nodes_shared": self.nodes_shared,
            "nodes_subsumed": self.nodes_subsumed,
        }

    def __repr__(self) -> str:
        return (
            f"StreamPlan({self.source.name!r}, queries={len(self.queries)}, "
            f"nodes={len(self.live_nodes())})"
        )
