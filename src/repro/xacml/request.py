"""XACML request contexts."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import XacmlError
from repro.xacml.attributes import (
    ACTION_ID,
    RESOURCE_ID,
    SUBJECT_ID,
    Attribute,
    AttributeCategory,
    AttributeValue,
)


class Request:
    """An access request: attributes grouped by category.

    In eXACML+ a request carries the user's credentials (subject
    attributes), the target data stream (resource-id) and the action
    (normally ``read``); the customised query travels alongside the
    request, not inside it.

    A request may be :meth:`seal`-ed, after which :meth:`add` raises:
    :func:`~repro.xacml.xml_io.parse_request_xml` hands the *same*
    parsed object to every caller that sends the same document, so it
    must never change under them.
    """

    def __init__(self, attributes: Iterable[Attribute] = ()):
        self._by_category: Dict[AttributeCategory, List[Attribute]] = {
            category: [] for category in AttributeCategory
        }
        self._sealed = False
        self._fingerprint: Optional[tuple] = None
        for attribute in attributes:
            self.add(attribute)

    @classmethod
    def simple(
        cls,
        subject: str,
        resource: str,
        action: str = "read",
        environment: Optional[Dict[str, object]] = None,
    ) -> "Request":
        """Convenience constructor for the common subject/resource/action shape."""
        request = cls()
        request.add(Attribute(AttributeCategory.SUBJECT, SUBJECT_ID, AttributeValue.string(subject)))
        request.add(Attribute(AttributeCategory.RESOURCE, RESOURCE_ID, AttributeValue.string(resource)))
        request.add(Attribute(AttributeCategory.ACTION, ACTION_ID, AttributeValue.string(action)))
        for attribute_id, value in (environment or {}).items():
            request.add(
                Attribute(
                    AttributeCategory.ENVIRONMENT,
                    attribute_id,
                    AttributeValue.infer(value),
                )
            )
        return request

    def add(self, attribute: Attribute) -> None:
        if self._sealed:
            raise XacmlError(
                "request is sealed: it is shared and cannot gain attributes"
            )
        self._by_category[attribute.category].append(attribute)
        self._fingerprint = None

    def seal(self) -> "Request":
        """Make the request immutable (``add`` raises from now on)."""
        self._sealed = True
        return self

    def attributes(self, category: AttributeCategory) -> List[Attribute]:
        return list(self._by_category[category])

    def all_attributes(self) -> List[Attribute]:
        result: List[Attribute] = []
        for category in AttributeCategory:
            result.extend(self._by_category[category])
        return result

    def values_of(self, category: AttributeCategory, attribute_id: str) -> List[AttributeValue]:
        """All values bound to *attribute_id* in *category* (may be many)."""
        return [
            attribute.value
            for attribute in self._by_category[category]
            if attribute.attribute_id == attribute_id
        ]

    def first_value(self, category: AttributeCategory, attribute_id: str):
        """The first raw value bound to *attribute_id*, or None."""
        values = self.values_of(category, attribute_id)
        return values[0].value if values else None

    @property
    def subject_id(self) -> Optional[str]:
        value = self.first_value(AttributeCategory.SUBJECT, SUBJECT_ID)
        return None if value is None else str(value)

    @property
    def resource_id(self) -> Optional[str]:
        value = self.first_value(AttributeCategory.RESOURCE, RESOURCE_ID)
        return None if value is None else str(value)

    @property
    def action_id(self) -> Optional[str]:
        value = self.first_value(AttributeCategory.ACTION, ACTION_ID)
        return None if value is None else str(value)

    def fingerprint(self) -> tuple:
        """A hashable canonical form of the full request content.

        Two requests with equal fingerprints are indistinguishable to the
        PDP: target matches and conditions quantify over the *set* of
        values bound to an attribute (``any(...)``), so attribute order
        and duplicates cannot affect a decision and the fingerprint is
        sorted.  Values are keyed by datatype, concrete Python type and
        string rendering so ``1``, ``1.0``, ``True`` and ``"1"`` never
        collapse onto one cache entry.  Computed once per request
        object (``add`` resets it), so a decision-cache hit on a
        request seen before sorts nothing.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        items = []
        for category, attributes in self._by_category.items():
            for attribute in attributes:
                value = attribute.value
                items.append(
                    (
                        category.value,
                        attribute.attribute_id,
                        value.datatype,
                        value.value.__class__.__name__,
                        str(value.value),
                    )
                )
        items.sort()
        self._fingerprint = tuple(items)
        return self._fingerprint

    def require_subject(self) -> str:
        subject = self.subject_id
        if subject is None:
            raise XacmlError("request has no subject-id attribute")
        return subject

    def __repr__(self) -> str:
        return (
            f"Request(subject={self.subject_id!r}, resource={self.resource_id!r}, "
            f"action={self.action_id!r})"
        )
