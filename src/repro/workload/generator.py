"""The Table 3 workload generator.

Each continuous query in the paper's experiment corresponds to three
artifacts: (1) a StreamSQL script for the direct-query system, (2) an
XACML policy whose obligations encode exactly the same query graph, and
(3) a matching XACML request (optionally carrying a customised user
query).  Query-graph shapes are drawn from seven combinations of
Filter (FB), Map (MB) and Aggregation (AB) boxes with the composition
160 : 170 : 130 : 124 : 254 : 290 : 372
(FB : MB : AB : FB+MB : FB+AB : MB+AB : FB+MB+AB), and "the actual
specifications of each query graph are generated randomly, but ...
parameter names are consistent with those in stream schemas".

Customised user queries are generated as *compatible refinements* of the
policy graph — tighter filter thresholds, identical projections, and
equal-or-coarser windows over a subset of the policy's aggregations — so
the PEP's merge succeeds without NR warnings, matching the paper's setup
where "PDP will always permit the request so that PEP can generate query
graphs from obligations and user queries".
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.obligations import stream_policy
from repro.core.user_query import UserQuery
from repro.expr.ast import AndExpression, BooleanExpression, Operator, SimpleExpression
from repro.streams.graph import QueryGraph
from repro.streams.operators.aggregate import get_aggregate_function
from repro.streams.operators.filter import FilterOperator
from repro.streams.operators.map import MapOperator
from repro.streams.operators.window import (
    AggregateOperator,
    AggregationSpec,
    WindowSpec,
    WindowType,
)
from repro.streams.schema import GPS_SCHEMA, WEATHER_SCHEMA, DataType, Schema
from repro.streams.streamsql.generator import generate_streamsql
from repro.xacml.policy import Policy
from repro.xacml.request import Request


class Table3(NamedTuple):
    """The parameters of the paper's Table 3."""

    n_direct_queries: int = 1500
    direct_query_composition: Tuple[int, ...] = (160, 170, 130, 124, 254, 290, 372)
    n_policies: int = 1000
    n_requests: int = 1500
    zipf_alpha: float = 0.223
    zipf_max_rank: int = 300


TABLE3 = Table3()

#: The seven shapes, as (has_filter, has_map, has_aggregate), in the
#: composition order of Table 3.
SHAPES: Tuple[Tuple[bool, bool, bool], ...] = (
    (True, False, False),   # Single FB
    (False, True, False),   # Single MB
    (False, False, True),   # Single AB
    (True, True, False),    # FB + MB
    (True, False, True),    # FB + AB
    (False, True, True),    # MB + AB
    (True, True, True),     # FB + MB + AB
)

SHAPE_NAMES = ("FB", "MB", "AB", "FB+MB", "FB+AB", "MB+AB", "FB+MB+AB")

#: Shape composition of Table 3 (aligned with SHAPES).
SHAPE_COMPOSITION: Dict[str, int] = dict(
    zip(SHAPE_NAMES, TABLE3.direct_query_composition)
)

#: Plausible value ranges per numeric attribute, used for random filter
#: thresholds so the generated conditions reference real schema names
#: with sensible constants.
_VALUE_RANGES: Dict[str, Tuple[float, float]] = {
    "temperature": (15.0, 38.0),
    "humidity": (20.0, 100.0),
    "solarradiation": (0.0, 1000.0),
    "rainrate": (0.0, 120.0),
    "windspeed": (0.0, 30.0),
    "winddirection": (0.0, 360.0),
    "barometer": (990.0, 1025.0),
    "latitude": (1.2, 1.5),
    "longitude": (103.6, 104.1),
    "altitude": (0.0, 80.0),
    "speed": (0.0, 35.0),
    "heading": (0.0, 360.0),
}

_FILTER_OPS = (Operator.GT, Operator.GE, Operator.LT, Operator.LE)


class WorkloadItem(NamedTuple):
    """One unit of workload: the three files of the paper's setup."""

    index: int
    shape: str
    stream: str
    policy: Policy
    request: Request
    user_query: Optional[UserQuery]
    direct_sql: str
    graph: QueryGraph


class WorkloadGenerator:
    """Seeded generator of the Table 3 workload."""

    def __init__(
        self,
        seed: int = 2012,
        parameters: Table3 = TABLE3,
        streams: Optional[Dict[str, Schema]] = None,
        user_query_fraction: float = 0.3,
    ):
        self._rng = random.Random(seed)
        self.parameters = parameters
        #: The "few real-time data streams" of the authors' deployment:
        #: several weather feeds plus GPS tracks.
        self.streams: Dict[str, Schema] = streams or {
            "weather0": _renamed(WEATHER_SCHEMA, "weather0"),
            "weather1": _renamed(WEATHER_SCHEMA, "weather1"),
            "weather2": _renamed(WEATHER_SCHEMA, "weather2"),
            "weather3": _renamed(WEATHER_SCHEMA, "weather3"),
            "gps0": _renamed(GPS_SCHEMA, "gps0"),
            "gps1": _renamed(GPS_SCHEMA, "gps1"),
        }
        self.user_query_fraction = user_query_fraction

    # -- random graph pieces -----------------------------------------------------

    def _numeric_attributes(self, schema: Schema) -> List[str]:
        return [
            field.name
            for field in schema
            if field.is_numeric and field.dtype is not DataType.TIMESTAMP
        ]

    def _random_filter(self, schema: Schema) -> FilterOperator:
        literal_count = self._rng.choice((1, 1, 2))
        literals: List[BooleanExpression] = []
        attributes = self._rng.sample(
            self._numeric_attributes(schema), k=literal_count
        )
        for attribute in attributes:
            low, high = _VALUE_RANGES.get(attribute.lower(), (0.0, 100.0))
            op = self._rng.choice(_FILTER_OPS)
            # Keep thresholds inside the central band so conditions pass a
            # realistic fraction of tuples.
            value = round(self._rng.uniform(low + 0.1 * (high - low),
                                            high - 0.1 * (high - low)), 2)
            literals.append(SimpleExpression(attribute, op, value))
        condition: BooleanExpression = (
            literals[0] if len(literals) == 1 else AndExpression(tuple(literals))
        )
        return FilterOperator(condition)

    def _random_map(self, schema: Schema, required: Sequence[str] = ()) -> MapOperator:
        names = list(schema.attribute_names)
        count = self._rng.randint(max(2, len(required)), max(3, len(names) - 2))
        chosen = set(a.lower() for a in required)
        chosen.add("samplingtime")
        candidates = [n for n in names if n.lower() not in chosen]
        self._rng.shuffle(candidates)
        for name in candidates[: max(0, count - len(chosen))]:
            chosen.add(name.lower())
        ordered = [n for n in names if n.lower() in chosen]
        return MapOperator(ordered)

    def _random_aggregate(self, schema: Schema) -> AggregateOperator:
        numeric = self._numeric_attributes(schema)
        spec_count = self._rng.choice((1, 2, 2, 3))
        attributes = self._rng.sample(numeric, k=min(spec_count, len(numeric)))
        functions = ("avg", "max", "min", "sum")
        specs = [
            AggregationSpec(attribute, get_aggregate_function(self._rng.choice(functions)))
            for attribute in attributes
        ]
        specs.insert(
            0, AggregationSpec("samplingtime", get_aggregate_function("lastval"))
        )
        size = self._rng.randint(4, 20)
        step = self._rng.randint(2, size)
        return AggregateOperator(WindowSpec(WindowType.TUPLE, size, step), specs)

    def random_graph(self, stream: str, shape: Tuple[bool, bool, bool]) -> QueryGraph:
        """A random, schema-consistent graph of the given FB/MB/AB shape."""
        schema = self.streams[stream]
        has_filter, has_map, has_aggregate = shape
        graph = QueryGraph(stream)
        aggregate = self._random_aggregate(schema) if has_aggregate else None
        if has_filter:
            graph.append(self._random_filter(schema))
        if has_map:
            required = (
                [spec.attribute for spec in aggregate.aggregations]
                if aggregate is not None
                else ()
            )
            graph.append(self._random_map(schema, required=required))
        if aggregate is not None:
            graph.append(aggregate)
        graph.validate(schema)
        return graph

    # -- refinement user queries ----------------------------------------------------

    def _refine(self, stream: str, graph: QueryGraph) -> UserQuery:
        """A customised query compatible with *graph* (no NR on merge)."""
        filter_condition: Optional[BooleanExpression] = None
        policy_filter = graph.filter_operator
        if policy_filter is not None:
            filter_condition = _tighten(policy_filter.condition, self._rng)
        map_attributes: Sequence[str] = ()
        policy_map = graph.map_operator
        if policy_map is not None:
            map_attributes = policy_map.attributes
        window = None
        aggregations: Sequence[AggregationSpec] = ()
        policy_aggregate = graph.aggregate_operator
        if policy_aggregate is not None:
            base = policy_aggregate.window
            window = WindowSpec(
                base.window_type,
                base.size + self._rng.randint(0, 6),
                base.step + self._rng.randint(0, 3),
            )
            aggregations = list(policy_aggregate.aggregations)
        return UserQuery(stream, filter_condition, map_attributes, window, aggregations)

    # -- the full workload -------------------------------------------------------------

    def _shape_sequence(self, count: int) -> List[int]:
        """Shape indexes for *count* items, honouring the composition."""
        composition = self.parameters.direct_query_composition
        total = sum(composition)
        sequence: List[int] = []
        for shape_index, share in enumerate(composition):
            sequence.extend([shape_index] * round(share * count / total))
        while len(sequence) < count:
            sequence.append(len(SHAPES) - 1)
        del sequence[count:]
        self._rng.shuffle(sequence)
        return sequence

    def generate(self) -> List[WorkloadItem]:
        """Produce the full request workload (``n_requests`` items).

        Items 0..n_policies-1 introduce unique policies; the remainder
        reuse earlier policies round-robin (the paper has 1000 unique
        policies behind 1500 matching requests) with fresh customised
        queries.
        """
        parameters = self.parameters
        shape_sequence = self._shape_sequence(parameters.n_requests)
        stream_names = sorted(self.streams)
        items: List[WorkloadItem] = []
        policies: List[Tuple[Policy, str, QueryGraph, str]] = []
        for index in range(parameters.n_requests):
            if index < parameters.n_policies:
                shape = SHAPES[shape_sequence[index]]
                shape_name = SHAPE_NAMES[shape_sequence[index]]
                stream = self._rng.choice(stream_names)
                graph = self.random_graph(stream, shape)
                subject = f"user{index}"
                policy = stream_policy(
                    f"policy:{index}", stream, graph, subject=subject,
                    description=f"workload policy {index} ({shape_name})",
                )
                policies.append((policy, subject, graph, shape_name))
            else:
                policy, subject, graph, shape_name = policies[
                    (index - parameters.n_policies) % parameters.n_policies
                ]
                stream = graph.source
            user_query = (
                self._refine(stream, graph)
                if self._rng.random() < self.user_query_fraction
                else None
            )
            request = Request.simple(subject, stream)
            items.append(
                WorkloadItem(
                    index=index,
                    shape=shape_name,
                    stream=stream,
                    policy=policy,
                    request=request,
                    user_query=user_query,
                    direct_sql=generate_streamsql(graph),
                    graph=graph,
                )
            )
        return items

    def unique_policies(self, items: Sequence[WorkloadItem]) -> List[Policy]:
        seen = set()
        policies = []
        for item in items:
            if item.policy.policy_id not in seen:
                seen.add(item.policy.policy_id)
                policies.append(item.policy)
        return policies


def _renamed(schema: Schema, name: str) -> Schema:
    return Schema(name, schema.fields)


def _tighten(condition: BooleanExpression, rng: random.Random) -> BooleanExpression:
    """Tighten every literal of a conjunctive condition.

    ``x > v`` becomes ``x > v'`` with ``v' ≥ v`` (similarly mirrored for
    ``<``), so the user set is a subset of the policy set and the merge
    produces neither NR nor PR for the filter pair.
    """
    if isinstance(condition, SimpleExpression):
        return _tighten_literal(condition, rng)
    if isinstance(condition, AndExpression):
        return AndExpression(
            tuple(_tighten(child, rng) for child in condition.children)
        )
    return condition


def _tighten_literal(literal: SimpleExpression, rng: random.Random) -> SimpleExpression:
    if not isinstance(literal.value, (int, float)):
        return literal
    delta = abs(literal.value) * rng.uniform(0.0, 0.15) + rng.uniform(0.0, 1.0)
    if literal.op in (Operator.GT, Operator.GE):
        return SimpleExpression(literal.attribute, literal.op, round(literal.value + delta, 2))
    if literal.op in (Operator.LT, Operator.LE):
        return SimpleExpression(literal.attribute, literal.op, round(literal.value - delta, 2))
    return literal
