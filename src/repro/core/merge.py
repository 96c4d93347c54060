"""Merging policy and user query graphs (Section 3.1).

"One could simply concatenate the two graphs, but properly merging them
together gains advantages such as reducing the number of operators in
query graph and therefore improving efficiency."

Merge rules (per operator type):

- **Filter** — conditions are conjoined, ``C3 = (C1) AND (C2)``, then
  simplified (``x > 5 AND x > 8`` → ``x > 8``).
- **Map** — the paper's text says union, its NR/PR rule and worked
  StreamSQL imply intersection.  The default here is the *safe*
  intersection semantics (union would widen the projection beyond what
  the policy permits); the literal union semantics is available via
  ``MergeOptions(map_semantics="union")`` for verbatim reproduction.
  Attributes needed by the merged aggregation are retained in the map
  (that is how the paper's Figure 4(b) keeps ``samplingtime``).
- **Window aggregation** — merged only when the window types match and
  the policy's size and step are ≤ the user's (the user must not see
  finer granularity than permitted; violating refinements raise
  :class:`WindowRefinementError`).  The merged operator takes the user's
  window geometry and the *intersection* of the (attribute, function)
  sets, plus — matching Figure 4(b) — the policy's timestamp carrier
  aggregation when the user query omitted it.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

from repro.errors import MergeError, WindowRefinementError
from repro.expr.simplify import simplify_merged_condition
from repro.streams.graph import QueryGraph
from repro.streams.operators.filter import FilterOperator
from repro.streams.operators.map import MapOperator
from repro.streams.operators.window import AggregateOperator, AggregationSpec
from repro.streams.schema import DataType, Schema
from repro.core.warnings_check import WarningReport, check_query_against_policy


class MergeOptions(NamedTuple):
    """The one merge switch.

    ``map_semantics``
        ``"intersection"`` (safe default) or ``"union"`` (the literal
        Section 3.1 text; leaks policy-withheld attributes — provided for
        verbatim-paper reproduction and the ablation benchmark).

    Simplifying the conjoined filter and keeping the policy's timestamp
    carrier (Figure 4(b)) are merge rules, not options.
    """

    map_semantics: str = "intersection"


class MergeResult(NamedTuple):
    """The merged graph plus the NR/PR findings discovered on the way."""

    graph: QueryGraph
    warnings: List[WarningReport]


def merge_query_graphs(
    policy_graph: QueryGraph,
    user_graph: QueryGraph,
    schema: Optional[Schema] = None,
    options: MergeOptions = MergeOptions(),
) -> MergeResult:
    """Merge *user_graph* into *policy_graph* under the Section 3.1 rules.

    *schema* (the source stream's schema) enables the timestamp-carrier
    behaviour and final validation; pass None to skip both.  NR/PR
    analysis runs on the original graphs (Section 3.2, step 4) and its
    findings are returned — deciding whether warnings block registration
    is the PEP's job, not the merger's.
    """
    if policy_graph.source.lower() != user_graph.source.lower():
        raise MergeError(
            f"cannot merge graphs over different streams: policy reads "
            f"{policy_graph.source!r}, user reads {user_graph.source!r}"
        )
    warnings = check_query_against_policy(policy_graph, user_graph)

    merged_filter = _merge_filters(
        policy_graph.filter_operator, user_graph.filter_operator
    )
    merged_aggregate = _merge_aggregates(
        policy_graph.aggregate_operator, user_graph.aggregate_operator, schema
    )
    merged_map = _merge_maps(
        policy_graph.map_operator,
        user_graph.map_operator,
        merged_aggregate,
        options,
    )

    merged = QueryGraph(
        policy_graph.source, name=f"{policy_graph.name}+{user_graph.name}"
    )
    if merged_filter is not None:
        merged.append(merged_filter)
    if merged_map is not None:
        merged.append(merged_map)
    if merged_aggregate is not None:
        merged.append(merged_aggregate)
    if schema is not None and not merged.is_passthrough:
        merged.validate(schema)
    return MergeResult(merged, warnings)


def _merge_filters(
    policy_filter: Optional[FilterOperator],
    user_filter: Optional[FilterOperator],
) -> Optional[FilterOperator]:
    if policy_filter is None and user_filter is None:
        return None
    if policy_filter is None:
        return user_filter
    if user_filter is None:
        return policy_filter
    return FilterOperator(
        simplify_merged_condition(policy_filter.condition, user_filter.condition)
    )


def _merge_aggregates(
    policy_aggregate: Optional[AggregateOperator],
    user_aggregate: Optional[AggregateOperator],
    schema: Optional[Schema],
) -> Optional[AggregateOperator]:
    if policy_aggregate is None and user_aggregate is None:
        return None
    if policy_aggregate is None:
        return user_aggregate
    if user_aggregate is None:
        return policy_aggregate
    if not user_aggregate.window.refines(policy_aggregate.window):
        raise WindowRefinementError(
            f"user window {user_aggregate.window!r} is finer-grained than "
            f"policy window {policy_aggregate.window!r} permits "
            f"(types must match; policy size/step must be <= user's)"
        )
    policy_keys = {spec.key: spec for spec in policy_aggregate.aggregations}
    intersection: List[AggregationSpec] = [
        spec for spec in user_aggregate.aggregations if spec.key in policy_keys
    ]
    if schema is not None:
        carrier = _policy_time_carrier(policy_aggregate, schema)
        if carrier is not None and all(
            spec.attribute != carrier.attribute for spec in intersection
        ):
            intersection.insert(0, carrier)
    if not intersection:
        raise MergeError(
            "merged aggregation is empty: no (attribute, function) pair is "
            "shared by policy and user query"
        )
    return AggregateOperator(
        user_aggregate.window, intersection, user_aggregate.time_attribute
    )


def _policy_time_carrier(
    policy_aggregate: AggregateOperator, schema: Schema
) -> Optional[AggregationSpec]:
    """The policy's aggregation over the stream's timestamp attribute."""
    for spec in policy_aggregate.aggregations:
        if spec.attribute in schema:
            if schema.field(spec.attribute).dtype is DataType.TIMESTAMP:
                return spec
    return None


def _merge_maps(
    policy_map: Optional[MapOperator],
    user_map: Optional[MapOperator],
    merged_aggregate: Optional[AggregateOperator],
    options: MergeOptions,
) -> Optional[MapOperator]:
    if policy_map is None and user_map is None:
        return None
    if policy_map is None:
        merged_set = set(user_map.attribute_set())
        ordered: Sequence[str] = user_map.attributes
    elif user_map is None:
        merged_set = set(policy_map.attribute_set())
        ordered = policy_map.attributes
    elif options.map_semantics == "union":
        merged_set = set(policy_map.attribute_set()) | set(user_map.attribute_set())
        ordered = list(policy_map.attributes) + [
            a for a in user_map.attributes if a.lower() not in policy_map.attribute_set()
        ]
    elif options.map_semantics == "intersection":
        merged_set = set(policy_map.attribute_set()) & set(user_map.attribute_set())
        ordered = [a for a in policy_map.attributes if a.lower() in merged_set]
    else:
        raise MergeError(f"unknown map_semantics {options.map_semantics!r}")

    # Retain attributes the merged aggregation needs (Figure 4(b) keeps
    # samplingtime in the map because lastval(samplingtime) survives).
    if merged_aggregate is not None:
        needed = [spec.attribute for spec in merged_aggregate.aggregations]
        extra = [a for a in needed if a not in merged_set]
        if extra:
            if policy_map is not None:
                leaked = [a for a in extra if a not in policy_map.attribute_set()]
                if leaked:
                    raise MergeError(
                        f"merged aggregation needs attributes outside the "
                        f"policy projection: {leaked}"
                    )
            ordered = list(ordered) + extra
            merged_set.update(extra)
    if not merged_set:
        raise MergeError(
            "merged projection is empty: the policy and user attribute sets "
            "do not overlap"
        )
    return MapOperator(ordered)
