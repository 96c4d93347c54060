"""Tests for XML serialisation and parsing of policies and requests."""

import pytest

from repro.errors import PolicyParseError, XacmlError
from repro.xacml.attributes import Attribute, AttributeCategory, AttributeValue
from repro.obs import MEMO_ENTRIES, MEMO_MAX_TEXT
from repro.xacml.policy import Condition, Policy, Rule, Target
from repro.xacml.request import Request
from repro.xacml.response import AttributeAssignment, Effect, Obligation
from repro.xacml.xml_io import (
    parse_policy_xml,
    parse_request_xml,
    policy_to_xml,
    request_to_xml,
)

#: The paper's Figure 2 obligations block, wrapped in a minimal policy.
FIGURE_2_POLICY = """
<Policy PolicyId="nea:weather" RuleCombiningAlgId="first-applicable">
  <Target/>
  <Rule RuleId="r1" Effect="Permit"/>
  <Obligations>
    <Obligation ObligationId="exacml:obligation:stream-filter" FulfillOn="Permit">
      <AttributeAssignment AttributeId="pCloud:obligation:stream-filter-condition-id"
        DataType="http://www.w3.org/2001/XMLSchema#string">rainrate &gt; 5</AttributeAssignment>
    </Obligation>
    <Obligation ObligationId="exacml:obligation:stream-map" FulfillOn="Permit">
      <AttributeAssignment AttributeId="pCloud:obligation:stream-map-attribute-id"
        DataType="http://www.w3.org/2001/XMLSchema#string">samplingtime</AttributeAssignment>
      <AttributeAssignment AttributeId="pCloud:obligation:stream-map-attribute-id"
        DataType="http://www.w3.org/2001/XMLSchema#string">rainrate</AttributeAssignment>
      <AttributeAssignment AttributeId="pCloud:obligation:stream-map-attribute-id"
        DataType="http://www.w3.org/2001/XMLSchema#string">windspeed</AttributeAssignment>
    </Obligation>
    <Obligation ObligationId="exacml:obligation:stream-window" FulfillOn="Permit">
      <AttributeAssignment AttributeId="pCloud:obligation:stream-window-step-id"
        DataType="http://www.w3.org/2001/XMLSchema#integer">2</AttributeAssignment>
      <AttributeAssignment AttributeId="pCloud:obligation:stream-window-size-id"
        DataType="http://www.w3.org/2001/XMLSchema#integer">5</AttributeAssignment>
      <AttributeAssignment AttributeId="pCloud:obligation:stream-window-type-id"
        DataType="http://www.w3.org/2001/XMLSchema#string">tuple</AttributeAssignment>
      <AttributeAssignment AttributeId="pCloud:obligation:stream-window-attr-id"
        DataType="http://www.w3.org/2001/XMLSchema#string">samplingtime:lastval</AttributeAssignment>
      <AttributeAssignment AttributeId="pCloud:obligation:stream-window-attr-id"
        DataType="http://www.w3.org/2001/XMLSchema#string">rainrate:avg</AttributeAssignment>
      <AttributeAssignment AttributeId="pCloud:obligation:stream-window-attr-id"
        DataType="http://www.w3.org/2001/XMLSchema#string">windspeed:max</AttributeAssignment>
    </Obligation>
  </Obligations>
</Policy>
"""


class TestPolicyRoundTrip:
    def build_policy(self):
        return Policy(
            "p1",
            target=Target.for_ids(subject="LTA", resource="weather", action="read"),
            rules=[
                Rule(
                    "r1",
                    Effect.PERMIT,
                    condition=Condition(
                        AttributeCategory.ENVIRONMENT,
                        "hour",
                        "integer-less-than",
                        AttributeValue.integer(18),
                    ),
                    description="business hours only",
                ),
                Rule("r2", Effect.DENY),
            ],
            rule_combining="first-applicable",
            obligations=[
                Obligation(
                    "ob1",
                    Effect.PERMIT,
                    [AttributeAssignment("k", AttributeValue.string("v"))],
                )
            ],
            description="round-trip test policy",
        )

    def test_round_trip_preserves_everything(self):
        policy = self.build_policy()
        parsed = parse_policy_xml(policy_to_xml(policy))
        assert parsed.policy_id == policy.policy_id
        assert parsed.description == policy.description
        assert parsed.rule_combining == policy.rule_combining
        assert len(parsed.rules) == 2
        assert parsed.rules[0].condition.function_id == "integer-less-than"
        assert parsed.obligations == policy.obligations

    def test_round_trip_behaviour_identical(self):
        policy = self.build_policy()
        parsed = parse_policy_xml(policy_to_xml(policy))
        ok = Request.simple("LTA", "weather", "read", environment={"hour": 9})
        late = Request.simple("LTA", "weather", "read", environment={"hour": 20})
        other = Request.simple("NEA", "weather", "read", environment={"hour": 9})
        for request in (ok, late, other):
            assert parsed.evaluate(request) == policy.evaluate(request)


class TestPaperFigure2:
    def test_parses(self):
        policy = parse_policy_xml(FIGURE_2_POLICY)
        assert len(policy.obligations) == 3
        window = policy.obligations[2]
        assert window.first_value(
            "pCloud:obligation:stream-window-size-id"
        ) == 5
        attrs = window.values_of("pCloud:obligation:stream-window-attr-id")
        assert [v.value for v in attrs] == [
            "samplingtime:lastval", "rainrate:avg", "windspeed:max",
        ]

    def test_obligations_build_figure1_graph(self):
        from repro.core.obligations import obligations_to_graph

        policy = parse_policy_xml(FIGURE_2_POLICY)
        graph = obligations_to_graph(policy.obligations, "weather")
        assert [op.kind for op in graph.operators] == ["filter", "map", "aggregate"]
        assert graph.aggregate_operator.window.size == 5
        assert graph.aggregate_operator.window.step == 2


class TestParseErrors:
    def test_not_xml(self):
        with pytest.raises(PolicyParseError):
            parse_policy_xml("this is not xml")

    def test_wrong_root(self):
        with pytest.raises(PolicyParseError):
            parse_policy_xml("<Wrong/>")

    def test_missing_policy_id(self):
        with pytest.raises(PolicyParseError):
            parse_policy_xml("<Policy><Rule RuleId='r' Effect='Permit'/></Policy>")

    def test_no_rules(self):
        with pytest.raises(PolicyParseError):
            parse_policy_xml("<Policy PolicyId='p'><Target/></Policy>")

    def test_bad_effect(self):
        with pytest.raises(PolicyParseError):
            parse_policy_xml(
                "<Policy PolicyId='p'><Rule RuleId='r' Effect='Maybe'/></Policy>"
            )


class TestRequestRoundTrip:
    def test_round_trip(self):
        request = Request.simple("LTA", "weather", "read", environment={"hour": 13})
        parsed = parse_request_xml(request_to_xml(request))
        assert parsed.subject_id == "LTA"
        assert parsed.resource_id == "weather"
        assert parsed.action_id == "read"
        assert parsed.first_value(AttributeCategory.ENVIRONMENT, "hour") == 13

    def test_wrong_root(self):
        with pytest.raises(PolicyParseError):
            parse_request_xml("<Policy/>")

    def test_unknown_section(self):
        with pytest.raises(PolicyParseError):
            parse_request_xml("<Request><Weird/></Request>")


def request_xml(subject="LTA", **environment):
    return request_to_xml(Request.simple(subject, "weather", environment=environment))


EXTRA = Attribute(AttributeCategory.SUBJECT, "role", AttributeValue.string("admin"))


class TestRequestParseMemo:
    """``parse_request_xml`` memoises by document text; a memoised
    request is shared, so it must be immutable, bounded and never a
    cached failure."""

    def test_repeat_parse_equals_a_fresh_unmemoised_parse(self):
        xml = request_xml(hour=13)
        fresh = parse_request_xml.__wrapped__(xml)
        first, second = parse_request_xml(xml), parse_request_xml(xml)
        assert second is first and first is not fresh
        assert first.fingerprint() == fresh.fingerprint()
        assert first.all_attributes() == fresh.all_attributes()

    @pytest.mark.parametrize(
        "document", ["<Request><Subject>", "<Policy/>", "<Request><Weird/></Request>"]
    )
    def test_a_failing_document_raises_on_every_call(self, document):
        before = parse_request_xml.cache_info().currsize
        for _ in range(3):
            with pytest.raises(PolicyParseError):
                parse_request_xml(document)
        assert parse_request_xml.cache_info().currsize == before

    def test_memoised_request_is_sealed_and_keeps_its_content(self):
        xml = request_xml("NEA")
        parsed = parse_request_xml(xml)
        expected = parsed.all_attributes()
        with pytest.raises(XacmlError):
            parsed.add(EXTRA)
        again = parse_request_xml(xml)
        assert again.all_attributes() == expected
        assert again.fingerprint() == parse_request_xml.__wrapped__(xml).fingerprint()

    def test_memo_never_holds_more_than_its_cap(self):
        parse_request_xml.cache_clear()
        assert parse_request_xml.cache_info().maxsize == MEMO_ENTRIES
        for n in range(MEMO_ENTRIES + 20):
            parse_request_xml(
                f'<Request><Subject><Attribute AttributeId="n{n}"/></Subject></Request>'
            )
        info = parse_request_xml.cache_info()
        assert info.currsize == MEMO_ENTRIES
        assert info.misses == MEMO_ENTRIES + 20
        parse_request_xml.cache_clear()

    def test_oversize_document_parses_but_is_not_retained(self):
        padding = "x" * MEMO_MAX_TEXT
        xml = request_xml(note=padding)
        assert len(xml) > MEMO_MAX_TEXT
        before = parse_request_xml.cache_info()
        first, second = parse_request_xml(xml), parse_request_xml(xml)
        assert first is not second
        assert first.first_value(AttributeCategory.ENVIRONMENT, "note") == padding
        assert first.fingerprint() == second.fingerprint()
        assert parse_request_xml.cache_info() == before._replace(misses=before.misses + 2)

    def test_fingerprint_follows_add_on_an_unsealed_request(self):
        request = Request.simple("LTA", "weather")
        before = request.fingerprint()
        assert request.fingerprint() is before      # computed once
        request.add(EXTRA)
        after = request.fingerprint()
        assert after != before
        assert ("subject", "role") in {item[:2] for item in after}
