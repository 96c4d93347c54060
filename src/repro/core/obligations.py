"""The stream-obligation vocabulary and its query-graph translation.

Section 2.2 of the paper defines three obligation types (Table 1), one
per Aurora box, with fine-grained constraints carried in attribute
assignments:

========================  ==============================================
Operator                  Obligation id
========================  ==============================================
Filter                    ``exacml:obligation:stream-filter``
Map                       ``exacml:obligation:stream-map``
Window-Based Aggregation  ``exacml:obligation:stream-window``
========================  ==============================================

(The paper's Table 1 spells the ids ``stream-filtering`` /
``stream-mapping`` / ``stream-window-aggregation`` while its Figure 2
uses the short forms above; this module accepts both and emits the
Figure 2 forms, which are the ones shown inside an actual policy.)

:func:`obligations_to_graph` is the PEP-side decoder: it turns the
obligations returned by the PDP into the policy's Aurora query graph.
:func:`graph_to_obligations` is the policy-authoring-side encoder, and
:func:`stream_policy` builds a complete XACML policy for a stream
resource in one call.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

from repro.errors import ObligationError
from repro.expr.ast import BooleanExpression
from repro.expr.parser import parse_condition
from repro.streams.graph import QueryGraph
from repro.streams.operators.filter import FilterOperator
from repro.streams.operators.map import MapOperator
from repro.streams.operators.window import (
    AggregateOperator,
    AggregationSpec,
    WindowSpec,
    WindowType,
)
from repro.xacml.attributes import AttributeValue
from repro.xacml.policy import Policy, Rule, Target
from repro.xacml.response import AttributeAssignment, Effect, Obligation

# -- Obligation ids (Figure 2 short forms, Table 1 long forms accepted) ------

FILTER_OBLIGATION = "exacml:obligation:stream-filter"
MAP_OBLIGATION = "exacml:obligation:stream-map"
WINDOW_OBLIGATION = "exacml:obligation:stream-window"

_FILTER_IDS = {FILTER_OBLIGATION, "exacml:obligation:stream-filtering"}
_MAP_IDS = {MAP_OBLIGATION, "exacml:obligation:stream-mapping"}
_WINDOW_IDS = {WINDOW_OBLIGATION, "exacml:obligation:stream-window-aggregation"}

# -- Attribute-assignment ids (both "exacml:" and "pCloud:" prefixes occur
#    in the paper; both are accepted, "exacml:" is emitted) ------------------

FILTER_CONDITION_ID = "exacml:obligation:stream-filter-condition-id"
MAP_ATTRIBUTE_ID = "exacml:obligation:stream-map-attribute-id"
WINDOW_TYPE_ID = "exacml:obligation:stream-window-type-id"
WINDOW_SIZE_ID = "exacml:obligation:stream-window-size-id"
WINDOW_STEP_ID = "exacml:obligation:stream-window-step-id"
WINDOW_ATTR_ID = "exacml:obligation:stream-window-attr-id"


def _suffix(attribute_id: str) -> str:
    """Normalise an assignment id to its suffix after the prefix."""
    for prefix in ("exacml:obligation:", "pCloud:obligation:", "pcloud:obligation:"):
        if attribute_id.startswith(prefix):
            return attribute_id[len(prefix):]
    return attribute_id


# ---------------------------------------------------------------------------
# Decoding: obligations → query graph
# ---------------------------------------------------------------------------

def obligations_to_graph(
    obligations: Iterable[Obligation],
    stream_name: str,
    name: Optional[str] = None,
) -> QueryGraph:
    """Build the policy's query graph from PDP obligations.

    Operators are installed in the canonical Aurora order of the paper's
    Figure 1: filter, then map, then window aggregation.  Obligations
    with unrelated ids are ignored (a policy may carry other obligations,
    e.g. audit requirements, that the stream PEP does not interpret).
    """
    filter_op: Optional[FilterOperator] = None
    map_op: Optional[MapOperator] = None
    aggregate_op: Optional[AggregateOperator] = None
    for obligation in obligations:
        if obligation.obligation_id in _FILTER_IDS:
            if filter_op is not None:
                raise ObligationError("duplicate stream-filter obligation")
            filter_op = _decode_filter(obligation)
        elif obligation.obligation_id in _MAP_IDS:
            if map_op is not None:
                raise ObligationError("duplicate stream-map obligation")
            map_op = _decode_map(obligation)
        elif obligation.obligation_id in _WINDOW_IDS:
            if aggregate_op is not None:
                raise ObligationError("duplicate stream-window obligation")
            aggregate_op = _decode_window(obligation)
    graph = QueryGraph(stream_name, name=name)
    for operator in (filter_op, map_op, aggregate_op):
        if operator is not None:
            graph.append(operator)
    return graph


def _decode_filter(obligation: Obligation) -> FilterOperator:
    conditions = [
        assignment.value.value
        for assignment in obligation.assignments
        if _suffix(assignment.attribute_id) == "stream-filter-condition-id"
    ]
    if len(conditions) != 1:
        raise ObligationError(
            f"stream-filter obligation needs exactly one condition, got "
            f"{len(conditions)}"
        )
    return FilterOperator(parse_condition(str(conditions[0])))


def _decode_map(obligation: Obligation) -> MapOperator:
    attributes = [
        str(assignment.value.value)
        for assignment in obligation.assignments
        if _suffix(assignment.attribute_id) == "stream-map-attribute-id"
    ]
    if not attributes:
        raise ObligationError("stream-map obligation has no attributes")
    return MapOperator(attributes)


def _decode_window(obligation: Obligation) -> AggregateOperator:
    window_type: Optional[WindowType] = None
    size: Optional[int] = None
    step: Optional[int] = None
    aggregations: List[AggregationSpec] = []
    for assignment in obligation.assignments:
        suffix = _suffix(assignment.attribute_id)
        value = assignment.value.value
        if suffix == "stream-window-type-id":
            window_type = WindowType.parse(str(value))
        elif suffix == "stream-window-size-id":
            size = _as_int(value, "window size")
        elif suffix == "stream-window-step-id":
            step = _as_int(value, "window advance step")
        elif suffix == "stream-window-attr-id":
            aggregations.append(AggregationSpec.parse(str(value)))
    if window_type is None or size is None or step is None:
        raise ObligationError(
            "stream-window obligation needs window type, size and step"
        )
    if not aggregations:
        raise ObligationError("stream-window obligation has no attribute:function pairs")
    return AggregateOperator(WindowSpec(window_type, size, step), aggregations)


def _as_int(value, what: str) -> int:
    """*value* as an int.  A fractional or boolean value is refused, not
    truncated: 2.9 → 2 would grant a finer window than the policy says."""
    try:
        if isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer()
        ):
            raise ValueError(value)
        return int(value)
    except (TypeError, ValueError):
        raise ObligationError(f"bad {what}: {value!r}") from None


# ---------------------------------------------------------------------------
# Encoding: query graph → obligations
# ---------------------------------------------------------------------------

def graph_to_obligations(graph: QueryGraph) -> List[Obligation]:
    """Encode a policy query graph as XACML obligations (Figure 2 layout)."""
    obligations: List[Obligation] = []
    filter_op = graph.filter_operator
    if filter_op is not None:
        obligations.append(
            Obligation(
                FILTER_OBLIGATION,
                Effect.PERMIT,
                [
                    AttributeAssignment(
                        FILTER_CONDITION_ID,
                        AttributeValue.string(
                            filter_op.condition.to_condition_string()
                        ),
                    )
                ],
            )
        )
    map_op = graph.map_operator
    if map_op is not None:
        obligations.append(
            Obligation(
                MAP_OBLIGATION,
                Effect.PERMIT,
                [
                    AttributeAssignment(MAP_ATTRIBUTE_ID, AttributeValue.string(a))
                    for a in map_op.attributes
                ],
            )
        )
    aggregate_op = graph.aggregate_operator
    if aggregate_op is not None:
        window = aggregate_op.window
        assignments = [
            AttributeAssignment(WINDOW_STEP_ID, AttributeValue.integer(window.step)),
            AttributeAssignment(WINDOW_SIZE_ID, AttributeValue.integer(window.size)),
            AttributeAssignment(
                WINDOW_TYPE_ID, AttributeValue.string(window.window_type.value)
            ),
        ]
        assignments.extend(
            AttributeAssignment(
                WINDOW_ATTR_ID, AttributeValue.string(spec.to_obligation_value())
            )
            for spec in aggregate_op.aggregations
        )
        obligations.append(Obligation(WINDOW_OBLIGATION, Effect.PERMIT, assignments))
    return obligations


def stream_policy(
    policy_id: str,
    stream_name: str,
    graph: QueryGraph,
    subject: Optional[str] = None,
    action: str = "read",
    description: str = "",
) -> Policy:
    """Build a complete Permit policy for *stream_name* from a query graph.

    The policy's target matches the stream resource (and optionally a
    subject); its single Permit rule carries no condition; the graph is
    encoded into the obligations block exactly as in the paper's Figure 2.
    """
    target = Target.for_ids(subject=subject, resource=stream_name, action=action)
    rule = Rule(f"{policy_id}:rule", Effect.PERMIT)
    return Policy(
        policy_id,
        target=target,
        rules=[rule],
        obligations=graph_to_obligations(graph),
        description=description,
    )
