"""Operator (box) base class.

An operator is a *declaration*: what a box computes, with no mutable
state, so one instance may sit in any number of query graphs.  What runs
is whatever :meth:`Operator.bind` returns for one pair of edge schemas —
compiled closures and window buffers live there, one per plan node.
"""

from __future__ import annotations

from typing import Callable

from repro.streams.schema import Schema
from repro.streams.tuples import Batch

#: What :meth:`Operator.bind` returns: the :class:`Batch` on its input
#: edge in (never empty, never mutated), the batch on its output edge
#: out.  A filter narrows ``rows``, a map re-labels ``columns``, a
#: window reads columns and emits one column per aggregation.
BoundOperator = Callable[[Batch], Batch]


class Operator:
    """Base class for Aurora boxes."""

    #: Short kind tag used by StreamSQL generation and merging ("filter",
    #: "map", "aggregate").
    kind: str = "operator"

    #: Whether a bound run accumulates cross-tuple state (windows).  The
    #: shared execution plan may attach a new query to an existing
    #: stateless node at any time, but a stateful node is only shareable
    #: before it has consumed input (afterwards the plan binds the
    #: declaration again so the newcomer starts from an empty window).
    #: Defaults to True — the conservative choice.
    stateful: bool = True

    def output_schema(self, input_schema: Schema) -> Schema:
        """The schema of tuples this operator emits given *input_schema*.

        Also serves as validation: raises if the operator cannot be
        applied to streams of *input_schema* (unknown attribute, wrong
        type for an aggregate, ...).
        """
        raise NotImplementedError

    def bind(self, input_schema: Schema, output_schema: Schema) -> BoundOperator:
        """One independent run of this declaration between two edges: a
        :data:`BoundOperator`, ``Batch -> Batch``.

        *output_schema* is ``self.output_schema(input_schema)`` (or an
        equal schema object the caller wants emitted tuples to carry).
        Everything schema-dependent is resolved here, once; the result
        is batch-partition invariant — feeding a stream in any split of
        batches emits the same rows in the same order.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable description (used in logs and errors)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"
