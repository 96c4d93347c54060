"""Customised user queries (the paper's Figure 4(a) XML format).

"The user sends a customised query to the PEP.  The query acts as a
request to apply additional operation on the authorized stream.  We
implement the query in XML form." (Section 3.1)

Format::

    <UserQuery>
      <Stream name="weather" />
      <Filter><FilterCondition> RainRate > 50 </FilterCondition></Filter>
      <Map><Attribute>RainRate</Attribute></Map>
      <Aggregation>
        <WindowType>tuple</WindowType>
        <WindowSize>10</WindowSize>
        <WindowStep>2</WindowStep>
        <Attribute>avg(RainRate)</Attribute>
      </Aggregation>
    </UserQuery>

All three operator sections are optional; an empty ``<UserQuery>`` (or a
``None`` user query at the PEP) means "give me the stream exactly as the
policy allows".
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET
from typing import List, Optional, Sequence, Union

from repro.errors import PolicyParseError
from repro.expr.ast import BooleanExpression
from repro.expr.parser import parse_condition
from repro.obs import MEMO_MAX_TEXT, Memo
from repro.streams.graph import QueryGraph
from repro.streams.operators.filter import FilterOperator
from repro.streams.operators.map import MapOperator
from repro.streams.operators.window import (
    AggregateOperator,
    AggregationSpec,
    WindowSpec,
    WindowType,
)
from repro.xacml.xml_io import pretty


class UserQuery:
    """A parsed customised query: stream + optional filter/map/aggregation.

    A value: nothing is reassigned after construction, two queries are
    equal when every part is (so equal queries print the same
    :meth:`to_xml`), and :meth:`from_xml` may hand the same object to
    every caller sending the same text.
    """

    def __init__(
        self,
        stream: str,
        filter_condition: Optional[Union[str, BooleanExpression]] = None,
        map_attributes: Sequence[str] = (),
        window: Optional[WindowSpec] = None,
        aggregations: Sequence[Union[str, AggregationSpec]] = (),
    ):
        if not stream:
            raise PolicyParseError("user query needs a stream name")
        if (window is None) != (not aggregations):
            raise PolicyParseError(
                "user query aggregation needs both a window and attribute functions"
            )
        self.stream = stream
        if isinstance(filter_condition, str):
            filter_condition = parse_condition(filter_condition)
        self.filter_condition = filter_condition
        self.map_attributes = tuple(map_attributes)
        self.window = window
        self.aggregations = tuple(
            spec if isinstance(spec, AggregationSpec) else AggregationSpec.parse(spec)
            for spec in aggregations
        )

    # -- conversion -----------------------------------------------------------

    def to_query_graph(self, name: Optional[str] = None) -> QueryGraph:
        """Lower to an Aurora query graph (Section 3.2, step 1)."""
        graph = QueryGraph(self.stream, name=name)
        if self.filter_condition is not None:
            graph.append(FilterOperator(self.filter_condition))
        if self.map_attributes:
            graph.append(MapOperator(self.map_attributes))
        if self.window is not None:
            graph.append(AggregateOperator(self.window, self.aggregations))
        return graph

    @property
    def is_empty(self) -> bool:
        return (
            self.filter_condition is None
            and not self.map_attributes
            and self.window is None
        )

    # -- XML ------------------------------------------------------------------

    def to_xml(self) -> str:
        root = ET.Element("UserQuery")
        ET.SubElement(root, "Stream", name=self.stream)
        if self.filter_condition is not None:
            filter_element = ET.SubElement(root, "Filter")
            condition = ET.SubElement(filter_element, "FilterCondition")
            condition.text = self.filter_condition.to_condition_string()
        if self.map_attributes:
            map_element = ET.SubElement(root, "Map")
            for attribute in self.map_attributes:
                ET.SubElement(map_element, "Attribute").text = attribute
        if self.window is not None:
            aggregation = ET.SubElement(root, "Aggregation")
            ET.SubElement(aggregation, "WindowType").text = self.window.window_type.value
            ET.SubElement(aggregation, "WindowSize").text = str(self.window.size)
            ET.SubElement(aggregation, "WindowStep").text = str(self.window.step)
            for spec in self.aggregations:
                ET.SubElement(aggregation, "Attribute").text = spec.to_call_syntax()
        return pretty(root)

    @classmethod
    def from_xml(cls, text: str) -> "UserQuery":
        """Parse a ``<UserQuery>`` document.

        Memoised by document text under the discipline of
        :func:`~repro.xacml.xml_io.parse_request_xml` (a
        :class:`repro.obs.Memo` named ``user_query_parse``).
        """
        return _memo.get(text)

    @classmethod
    def _parse(cls, text: str) -> "UserQuery":
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise PolicyParseError(f"malformed user query XML: {exc}") from exc
        if root.tag != "UserQuery":
            raise PolicyParseError(f"expected <UserQuery> root, found <{root.tag}>")
        stream_element = root.find("Stream")
        if stream_element is None or not stream_element.get("name"):
            raise PolicyParseError("user query is missing <Stream name=.../>")
        stream = stream_element.get("name")

        filter_condition: Optional[BooleanExpression] = None
        filter_element = root.find("Filter")
        if filter_element is not None:
            condition_element = filter_element.find("FilterCondition")
            if condition_element is None or not (condition_element.text or "").strip():
                raise PolicyParseError("<Filter> needs a <FilterCondition>")
            filter_condition = parse_condition(condition_element.text.strip())

        map_attributes: List[str] = []
        map_element = root.find("Map")
        if map_element is not None:
            for attribute_element in map_element.findall("Attribute"):
                text_value = (attribute_element.text or "").strip()
                if not text_value:
                    raise PolicyParseError("<Map> has an empty <Attribute>")
                map_attributes.append(text_value)
            if not map_attributes:
                raise PolicyParseError("<Map> needs at least one <Attribute>")

        window: Optional[WindowSpec] = None
        aggregations: List[AggregationSpec] = []
        aggregation_element = root.find("Aggregation")
        if aggregation_element is not None:
            window_type = _required_text(aggregation_element, "WindowType")
            size = _required_int(aggregation_element, "WindowSize")
            step = _required_int(aggregation_element, "WindowStep")
            window = WindowSpec(WindowType.parse(window_type), size, step)
            for attribute_element in aggregation_element.findall("Attribute"):
                text_value = (attribute_element.text or "").strip()
                if text_value:
                    aggregations.append(AggregationSpec.parse(text_value))
            if not aggregations:
                raise PolicyParseError("<Aggregation> needs at least one <Attribute>")

        return cls(stream, filter_condition, map_attributes, window, aggregations)

    def _value(self) -> tuple:
        return (
            self.stream,
            self.filter_condition,
            self.map_attributes,
            self.window,
            self.aggregations,
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, UserQuery) and self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def __repr__(self) -> str:
        parts = [f"stream={self.stream!r}"]
        if self.filter_condition is not None:
            parts.append(f"filter={self.filter_condition.to_condition_string()!r}")
        if self.map_attributes:
            parts.append(f"map={list(self.map_attributes)!r}")
        if self.window is not None:
            parts.append(f"window={self.window!r}")
            parts.append(f"aggregations={list(self.aggregations)!r}")
        return f"UserQuery({', '.join(parts)})"


# A filter's parse tree weighs up to ~18 bytes a document character.
_memo = Memo(UserQuery._parse, lambda text, query: None if len(text) > MEMO_MAX_TEXT
             else 24 * sys.getsizeof(text), name="user_query_parse")


def _required_text(parent: ET.Element, tag: str) -> str:
    element = parent.find(tag)
    if element is None or not (element.text or "").strip():
        raise PolicyParseError(f"<Aggregation> is missing <{tag}>")
    return element.text.strip()


def _required_int(parent: ET.Element, tag: str) -> int:
    text = _required_text(parent, tag)
    try:
        return int(text)
    except ValueError:
        raise PolicyParseError(f"<{tag}> must be an integer, got {text!r}") from None
