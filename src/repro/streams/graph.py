"""Query graphs: pipelines of Aurora boxes applied to one input stream.

The paper models a continuous query as a directed acyclic graph of
operators.  Every graph it manipulates (policy obligations, user queries,
their merge — Figures 1 and 4) is a *chain* over a single input stream
drawn from {filter, map, window-aggregation}, so :class:`QueryGraph` is an
ordered pipeline.  The class still validates like a general DAG node list:
schemas are propagated box-to-box and every operator is checked against
its actual input schema.

A graph is a *declaration*, and so is every operator in it (one operator
object may sit in many graphs).  The only way to run one is to register
it with an engine, which attaches it to the source's shared plan
(:mod:`repro.streams.plan`).
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Tuple

from repro.errors import GraphError
from repro.streams.operators.base import Operator
from repro.streams.operators.filter import FilterOperator
from repro.streams.operators.map import MapOperator
from repro.streams.operators.window import AggregateOperator
from repro.streams.schema import Schema

_graph_counter = itertools.count(1)


class QueryGraph:
    """An ordered chain of operators over a named input stream."""

    def __init__(
        self,
        source: str,
        operators: Iterable[Operator] = (),
        name: Optional[str] = None,
    ):
        if not source:
            raise GraphError("query graph needs a source stream name")
        self.source = source
        self._operators: List[Operator] = list(operators)
        self.name = name or f"query_{next(_graph_counter)}"
        #: The :class:`~repro.streams.plan.ChainTrace` of this exact chain
        #: (edge schemas + plan fingerprints), set by whoever computed it
        #: so the plan does not derive it again on attach; None otherwise.
        #: :meth:`append` changes the chain and so drops it.
        self.trace = None

    # -- construction --------------------------------------------------------

    def append(self, operator: Operator) -> "QueryGraph":
        """Append a box to the end of the chain; returns self for chaining."""
        if not isinstance(operator, Operator):
            raise GraphError(f"not an operator: {operator!r}")
        self._operators.append(operator)
        self.trace = None
        return self

    @property
    def operators(self) -> Tuple[Operator, ...]:
        return tuple(self._operators)

    def __len__(self) -> int:
        return len(self._operators)

    @property
    def is_passthrough(self) -> bool:
        """True when the graph applies no transformation at all."""
        return not self._operators

    # -- inspection ------------------------------------------------------------

    def find(self, kind: str) -> List[Operator]:
        """All operators whose :attr:`Operator.kind` equals *kind*."""
        return [op for op in self._operators if op.kind == kind]

    def single(self, kind: str) -> Optional[Operator]:
        """The unique operator of *kind*, or None.

        Raises :class:`GraphError` when more than one is present — the
        merge rules of Section 3.1 are defined on at most one operator of
        each type per graph.
        """
        found = self.find(kind)
        if len(found) > 1:
            raise GraphError(f"graph {self.name!r} has {len(found)} {kind} operators")
        return found[0] if found else None

    @property
    def filter_operator(self) -> Optional[FilterOperator]:
        return self.single("filter")  # type: ignore[return-value]

    @property
    def map_operator(self) -> Optional[MapOperator]:
        return self.single("map")  # type: ignore[return-value]

    @property
    def aggregate_operator(self) -> Optional[AggregateOperator]:
        return self.single("aggregate")  # type: ignore[return-value]

    # -- validation ------------------------------------------------------------

    def validate(self, input_schema: Schema) -> Schema:
        """Propagate schemas through the chain; return the output schema.

        Raises on any inconsistency (unknown attribute, aggregate after a
        projection that dropped its input, type mismatch...).
        """
        schema = input_schema
        for operator in self._operators:
            schema = operator.output_schema(schema)
        return schema

    def schema_trace(self, input_schema: Schema) -> List[Schema]:
        """Schemas at every edge of the chain: input first, output last."""
        schemas = [input_schema]
        for operator in self._operators:
            schemas.append(operator.output_schema(schemas[-1]))
        return schemas

    def describe(self) -> str:
        if not self._operators:
            return f"{self.source} → (passthrough)"
        chain = " → ".join(op.describe() for op in self._operators)
        return f"{self.source} → {chain}"

    def __repr__(self) -> str:
        return f"QueryGraph({self.name!r}: {self.describe()})"
