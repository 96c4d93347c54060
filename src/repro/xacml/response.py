"""XACML responses: decision, status and obligations."""

from __future__ import annotations

import enum
from typing import Iterable, List, Optional, Tuple

from repro.errors import XacmlError
from repro.xacml.attributes import AttributeValue


class Decision(enum.Enum):
    """The four XACML decisions."""

    PERMIT = "Permit"
    DENY = "Deny"
    NOT_APPLICABLE = "NotApplicable"
    INDETERMINATE = "Indeterminate"


class Effect(enum.Enum):
    """Rule effects."""

    PERMIT = "Permit"
    DENY = "Deny"

    @property
    def decision(self) -> Decision:
        return Decision.PERMIT if self is Effect.PERMIT else Decision.DENY


class AttributeAssignment:
    """One ``<AttributeAssignment>`` inside an obligation."""

    __slots__ = ("attribute_id", "value")

    def __init__(self, attribute_id: str, value: AttributeValue):
        if not attribute_id:
            raise XacmlError("attribute assignment needs an attribute id")
        self.attribute_id = attribute_id
        self.value = value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AttributeAssignment)
            and self.attribute_id == other.attribute_id
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.attribute_id, self.value))

    def __repr__(self) -> str:
        return f"AttributeAssignment({self.attribute_id!r}, {self.value.value!r})"


class Obligation:
    """An obligation the PEP must fulfil when the decision matches.

    eXACML+ embeds its fine-grained stream constraints here: the PDP
    returns the obligations to the PEP, which translates them into a
    query graph (paper Section 2.2).
    """

    def __init__(
        self,
        obligation_id: str,
        fulfill_on: Effect = Effect.PERMIT,
        assignments: Iterable[AttributeAssignment] = (),
    ):
        if not obligation_id:
            raise XacmlError("obligation needs an obligation id")
        self.obligation_id = obligation_id
        self.fulfill_on = fulfill_on
        self.assignments: Tuple[AttributeAssignment, ...] = tuple(assignments)
        #: Nothing is reassigned after construction, so the hash — a walk
        #: of every assignment — is taken once, when first asked for.
        self._hash: Optional[int] = None

    def values_of(self, attribute_id: str) -> List[AttributeValue]:
        """All assignment values with *attribute_id*, in document order."""
        return [a.value for a in self.assignments if a.attribute_id == attribute_id]

    def first_value(self, attribute_id: str):
        values = self.values_of(attribute_id)
        return values[0].value if values else None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Obligation)
            and self.obligation_id == other.obligation_id
            and self.fulfill_on == other.fulfill_on
            and self.assignments == other.assignments
        )

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(
                (self.obligation_id, self.fulfill_on, self.assignments)
            )
        return value

    def __reduce__(self):
        # String hashes are salted per process: a pickled obligation (a
        # shard worker's response) must not carry this process's hash.
        return Obligation, (self.obligation_id, self.fulfill_on, self.assignments)

    def __repr__(self) -> str:
        return (
            f"Obligation({self.obligation_id!r}, on={self.fulfill_on.value}, "
            f"{len(self.assignments)} assignments)"
        )


class Response:
    """The PDP's answer: decision + obligations of the deciding policy."""

    def __init__(
        self,
        decision: Decision,
        obligations: Iterable[Obligation] = (),
        status_message: Optional[str] = None,
        policy_id: Optional[str] = None,
    ):
        self.decision = decision
        self.obligations: Tuple[Obligation, ...] = tuple(obligations)
        self.status_message = status_message
        #: Id of the policy that produced the decision (None when
        #: NotApplicable) — used by the query-graph manager to associate
        #: spawned graphs with their granting policy (Section 3.3).
        self.policy_id = policy_id

    @property
    def permitted(self) -> bool:
        return self.decision is Decision.PERMIT

    def __repr__(self) -> str:
        return (
            f"Response({self.decision.value}, {len(self.obligations)} obligations, "
            f"policy={self.policy_id!r})"
        )
