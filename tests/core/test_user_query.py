"""Tests for customised user queries (Figure 4(a))."""

import pytest

from repro.core.user_query import UserQuery
from repro.errors import PolicyParseError
from repro.obs import MEMO_ENTRIES, MEMO_MAX_TEXT, MEMOS
from repro.streams.operators import WindowSpec, WindowType

MEMO = MEMOS["user_query_parse"]

#: The paper's Figure 4(a) document (typos normalised).
FIGURE_4A = """
<UserQuery>
  <Stream name="weather" />
  <Filter>
    <FilterCondition>
      RainRate > 50
    </FilterCondition>
  </Filter>
  <Map>
    <Attribute>RainRate</Attribute>
  </Map>
  <Aggregation>
    <WindowType>tuple</WindowType>
    <WindowSize>10</WindowSize>
    <WindowStep>2</WindowStep>
    <Attribute>avg(RainRate)</Attribute>
  </Aggregation>
</UserQuery>
"""


class TestParseFigure4a:
    def test_parses(self):
        query = UserQuery.from_xml(FIGURE_4A)
        assert query.stream == "weather"
        assert query.filter_condition.to_condition_string() == "rainrate > 50"
        assert query.map_attributes == ("RainRate",)
        assert query.window == WindowSpec(WindowType.TUPLE, 10, 2)
        assert [s.to_obligation_value() for s in query.aggregations] == ["rainrate:avg"]

    def test_to_query_graph(self):
        graph = UserQuery.from_xml(FIGURE_4A).to_query_graph()
        assert [op.kind for op in graph.operators] == ["filter", "map", "aggregate"]
        assert graph.source == "weather"

    def test_xml_round_trip(self):
        query = UserQuery.from_xml(FIGURE_4A)
        again = UserQuery.from_xml(query.to_xml())
        assert again.stream == query.stream
        assert (
            again.filter_condition.to_condition_string()
            == query.filter_condition.to_condition_string()
        )
        assert again.window == query.window
        assert again.aggregations == query.aggregations


class TestConstruction:
    def test_empty_query(self):
        query = UserQuery("weather")
        assert query.is_empty
        assert query.to_query_graph().is_passthrough

    def test_string_condition_parsed(self):
        query = UserQuery("weather", filter_condition="rainrate > 5")
        assert query.filter_condition.to_condition_string() == "rainrate > 5"

    def test_aggregation_needs_window_and_specs(self):
        with pytest.raises(PolicyParseError):
            UserQuery("weather", window=WindowSpec(WindowType.TUPLE, 5, 2))
        with pytest.raises(PolicyParseError):
            UserQuery("weather", aggregations=["avg(rainrate)"])

    def test_needs_stream(self):
        with pytest.raises(PolicyParseError):
            UserQuery("")


class TestParseErrors:
    def test_not_xml(self):
        with pytest.raises(PolicyParseError):
            UserQuery.from_xml("nope")

    def test_wrong_root(self):
        with pytest.raises(PolicyParseError):
            UserQuery.from_xml("<Query/>")

    def test_missing_stream(self):
        with pytest.raises(PolicyParseError):
            UserQuery.from_xml("<UserQuery><Filter><FilterCondition>a > 1</FilterCondition></Filter></UserQuery>")

    def test_empty_filter(self):
        with pytest.raises(PolicyParseError):
            UserQuery.from_xml(
                "<UserQuery><Stream name='s'/><Filter></Filter></UserQuery>"
            )

    def test_empty_map(self):
        with pytest.raises(PolicyParseError):
            UserQuery.from_xml(
                "<UserQuery><Stream name='s'/><Map></Map></UserQuery>"
            )

    def test_aggregation_missing_size(self):
        bad = (
            "<UserQuery><Stream name='s'/><Aggregation>"
            "<WindowType>tuple</WindowType><WindowStep>2</WindowStep>"
            "<Attribute>avg(x)</Attribute></Aggregation></UserQuery>"
        )
        with pytest.raises(PolicyParseError):
            UserQuery.from_xml(bad)

    def test_aggregation_non_integer_size(self):
        bad = (
            "<UserQuery><Stream name='s'/><Aggregation>"
            "<WindowType>tuple</WindowType><WindowSize>big</WindowSize>"
            "<WindowStep>2</WindowStep>"
            "<Attribute>avg(x)</Attribute></Aggregation></UserQuery>"
        )
        with pytest.raises(PolicyParseError):
            UserQuery.from_xml(bad)


class TestValue:
    """A user query is a value: part of the PEP's grant key, and shared
    by every caller whose document text is the same."""

    def parts(self, **changes):
        parts = dict(
            stream="weather",
            filter_condition="RainRate > 50 AND windspeed <= 3",
            map_attributes=["RainRate", "windspeed"],
            window=WindowSpec(WindowType.TUPLE, 10, 2),
            aggregations=["avg(RainRate)"],
        )
        parts.update(changes)
        return parts

    def test_equal_parts_are_equal_and_hash_alike(self):
        first, second = UserQuery(**self.parts()), UserQuery(**self.parts())
        assert first == second and hash(first) == hash(second)
        assert first.to_xml() == second.to_xml()
        assert first != "weather" and UserQuery("weather") == UserQuery("weather")

    @pytest.mark.parametrize("changes", [
        dict(stream="gps"),
        dict(filter_condition="RainRate > 51 AND windspeed <= 3"),
        dict(filter_condition=None),
        dict(map_attributes=["RainRate"]),
        dict(map_attributes=["windspeed", "RainRate"]),
        dict(window=WindowSpec(WindowType.TUPLE, 10, 5)),
        dict(aggregations=["max(RainRate)"]),
        dict(window=None, aggregations=()),
    ])
    def test_any_differing_part_differs(self, changes):
        base, other = UserQuery(**self.parts()), UserQuery(**self.parts(**changes))
        assert base != other
        assert base.to_xml() != other.to_xml()
        assert UserQuery.from_xml(base.to_xml()) != UserQuery.from_xml(other.to_xml())

    def test_round_trip_is_the_same_value(self):
        query = UserQuery(**self.parts())
        again = UserQuery.from_xml(query.to_xml())
        assert again == query and hash(again) == hash(query)
        assert len({query, again, UserQuery(**self.parts())}) == 1


class TestParseMemo:
    """``from_xml`` memoises by document text under the request memo's
    discipline: shared result, bounded, oversize and failing documents
    never stored."""

    def test_same_text_same_object_equal_to_a_fresh_parse(self):
        first, second = UserQuery.from_xml(FIGURE_4A), UserQuery.from_xml(FIGURE_4A)
        assert second is first
        fresh = UserQuery._parse(FIGURE_4A)
        assert fresh is not first and fresh == first

    def test_a_failing_document_raises_on_every_call(self):
        before = MEMO.info().currsize
        for _ in range(3):
            with pytest.raises(PolicyParseError):
                UserQuery.from_xml("<UserQuery><Stream name='s'/><Map></Map></UserQuery>")
        assert MEMO.info().currsize == before

    def test_oversize_document_parses_but_is_not_retained(self):
        padded = FIGURE_4A + " " * MEMO_MAX_TEXT
        before = MEMO.info()
        first, second = UserQuery.from_xml(padded), UserQuery.from_xml(padded)
        assert first is not second and first == second
        after = MEMO.info()
        assert after._replace(misses=before.misses) == before
        assert after.misses == before.misses + 2

    def test_memo_is_capped_by_the_shared_entry_cap(self):
        assert MEMO.info().maxsize == MEMO_ENTRIES
