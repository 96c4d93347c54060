"""XML serialisation and parsing for policies and requests.

The format mirrors XACML 2.0 closely enough that the paper's Figure 2
obligation block is valid input, while staying self-contained (no
namespace plumbing).  Round-trip is exact: ``parse_policy_xml(
policy_to_xml(p))`` reproduces ``p``.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET
from typing import List, Optional, Sequence

from repro.errors import PolicyParseError
from repro.obs import MEMO_MAX_TEXT, Memo
from repro.xacml.attributes import (
    Attribute,
    AttributeCategory,
    AttributeValue,
    XS_STRING,
)
from repro.xacml.policy import Condition, Match, Policy, Rule, Target
from repro.xacml.request import Request
from repro.xacml.response import AttributeAssignment, Effect, Obligation

_CATEGORY_SECTIONS = (
    (AttributeCategory.SUBJECT, "Subjects", "Subject", "SubjectMatch"),
    (AttributeCategory.RESOURCE, "Resources", "Resource", "ResourceMatch"),
    (AttributeCategory.ACTION, "Actions", "Action", "ActionMatch"),
)


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

def policy_to_xml(policy: Policy) -> str:
    """Render *policy* as an XML document string."""
    root = ET.Element(
        "Policy",
        PolicyId=policy.policy_id,
        RuleCombiningAlgId=policy.rule_combining,
    )
    if policy.description:
        ET.SubElement(root, "Description").text = policy.description
    root.append(_target_element(policy.target))
    for rule in policy.rules:
        root.append(_rule_element(rule))
    if policy.obligations:
        obligations = ET.SubElement(root, "Obligations")
        for obligation in policy.obligations:
            obligations.append(_obligation_element(obligation))
    return _pretty(root)


def _target_element(target: Target) -> ET.Element:
    element = ET.Element("Target")
    for category, plural, singular, match_tag in _CATEGORY_SECTIONS:
        alternatives = {
            AttributeCategory.SUBJECT: target.subjects,
            AttributeCategory.RESOURCE: target.resources,
            AttributeCategory.ACTION: target.actions,
        }[category]
        if not alternatives:
            continue
        section = ET.SubElement(element, plural)
        for alternative in alternatives:
            group = ET.SubElement(section, singular)
            for match in alternative:
                match_element = ET.SubElement(
                    group,
                    match_tag,
                    MatchId=match.function_id,
                    AttributeId=match.attribute_id,
                )
                value = ET.SubElement(
                    match_element, "AttributeValue", DataType=match.value.datatype
                )
                value.text = match.value.serialize()
    return element


def _rule_element(rule: Rule) -> ET.Element:
    element = ET.Element("Rule", RuleId=rule.rule_id, Effect=rule.effect.value)
    if rule.description:
        ET.SubElement(element, "Description").text = rule.description
    if not rule.target.is_any:
        element.append(_target_element(rule.target))
    if rule.condition is not None:
        condition = ET.SubElement(
            element,
            "Condition",
            FunctionId=rule.condition.function_id,
            Category=rule.condition.category.value,
            AttributeId=rule.condition.attribute_id,
        )
        value = ET.SubElement(
            condition, "AttributeValue", DataType=rule.condition.value.datatype
        )
        value.text = rule.condition.value.serialize()
    return element


def _obligation_element(obligation: Obligation) -> ET.Element:
    element = ET.Element(
        "Obligation",
        ObligationId=obligation.obligation_id,
        FulfillOn=obligation.fulfill_on.value,
    )
    for assignment in obligation.assignments:
        assignment_element = ET.SubElement(
            element,
            "AttributeAssignment",
            AttributeId=assignment.attribute_id,
            DataType=assignment.value.datatype,
        )
        assignment_element.text = assignment.value.serialize()
    return element


def request_to_xml(request: Request) -> str:
    """Render *request* as an XML document string."""
    root = ET.Element("Request")
    sections = {
        AttributeCategory.SUBJECT: "Subject",
        AttributeCategory.RESOURCE: "Resource",
        AttributeCategory.ACTION: "Action",
        AttributeCategory.ENVIRONMENT: "Environment",
    }
    for category, tag in sections.items():
        attributes = request.attributes(category)
        if not attributes and category is not AttributeCategory.ENVIRONMENT:
            attributes = []
        if not attributes:
            continue
        section = ET.SubElement(root, tag)
        for attribute in attributes:
            attribute_element = ET.SubElement(
                section,
                "Attribute",
                AttributeId=attribute.attribute_id,
                DataType=attribute.value.datatype,
            )
            value = ET.SubElement(attribute_element, "AttributeValue")
            value.text = attribute.value.serialize()
    return _pretty(root)


def _pretty(root: ET.Element) -> str:
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_policy_xml(text: str) -> Policy:
    """Parse a policy document produced by :func:`policy_to_xml`."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise PolicyParseError(f"malformed policy XML: {exc}") from exc
    if root.tag != "Policy":
        raise PolicyParseError(f"expected <Policy> root, found <{root.tag}>")
    policy_id = root.get("PolicyId")
    if not policy_id:
        raise PolicyParseError("policy is missing PolicyId")
    rule_combining = root.get("RuleCombiningAlgId", "first-applicable")
    description = _child_text(root, "Description")
    target = _parse_target(root.find("Target"))
    rules = [_parse_rule(element) for element in root.findall("Rule")]
    if not rules:
        raise PolicyParseError(f"policy {policy_id!r} has no rules")
    obligations: List[Obligation] = []
    obligations_element = root.find("Obligations")
    if obligations_element is not None:
        obligations = [
            _parse_obligation(element)
            for element in obligations_element.findall("Obligation")
        ]
    return Policy(
        policy_id,
        target=target,
        rules=rules,
        rule_combining=rule_combining,
        obligations=obligations,
        description=description or "",
    )


def _child_text(element: ET.Element, tag: str) -> Optional[str]:
    child = element.find(tag)
    return None if child is None else (child.text or "")


def _parse_target(element: Optional[ET.Element]) -> Target:
    if element is None:
        return Target()
    sections = {}
    for category, plural, singular, match_tag in _CATEGORY_SECTIONS:
        alternatives: List[List[Match]] = []
        section = element.find(plural)
        if section is not None:
            for group in section.findall(singular):
                matches = []
                for match_element in group.findall(match_tag):
                    matches.append(_parse_match(category, match_element))
                alternatives.append(matches)
        sections[category] = alternatives
    return Target(
        subjects=sections[AttributeCategory.SUBJECT],
        resources=sections[AttributeCategory.RESOURCE],
        actions=sections[AttributeCategory.ACTION],
    )


def _parse_match(category: AttributeCategory, element: ET.Element) -> Match:
    attribute_id = element.get("AttributeId")
    if not attribute_id:
        raise PolicyParseError("target match is missing AttributeId")
    function_id = element.get("MatchId", "string-equal")
    value_element = element.find("AttributeValue")
    if value_element is None:
        raise PolicyParseError(f"match on {attribute_id!r} has no AttributeValue")
    value = AttributeValue.parse(
        value_element.get("DataType", XS_STRING), value_element.text or ""
    )
    return Match(category, attribute_id, value, function_id)


def _parse_rule(element: ET.Element) -> Rule:
    rule_id = element.get("RuleId")
    if not rule_id:
        raise PolicyParseError("rule is missing RuleId")
    effect_text = element.get("Effect", "")
    try:
        effect = Effect(effect_text)
    except ValueError:
        raise PolicyParseError(f"rule {rule_id!r} has bad Effect {effect_text!r}") from None
    target = _parse_target(element.find("Target"))
    condition: Optional[Condition] = None
    condition_element = element.find("Condition")
    if condition_element is not None:
        category_text = condition_element.get("Category", "environment")
        try:
            category = AttributeCategory(category_text)
        except ValueError:
            raise PolicyParseError(f"bad condition category {category_text!r}") from None
        attribute_id = condition_element.get("AttributeId")
        function_id = condition_element.get("FunctionId")
        if not attribute_id or not function_id:
            raise PolicyParseError("condition needs AttributeId and FunctionId")
        value_element = condition_element.find("AttributeValue")
        if value_element is None:
            raise PolicyParseError("condition has no AttributeValue")
        value = AttributeValue.parse(
            value_element.get("DataType", XS_STRING), value_element.text or ""
        )
        condition = Condition(category, attribute_id, function_id, value)
    return Rule(
        rule_id,
        effect,
        target=target,
        condition=condition,
        description=_child_text(element, "Description") or "",
    )


def _parse_obligation(element: ET.Element) -> Obligation:
    obligation_id = element.get("ObligationId")
    if not obligation_id:
        raise PolicyParseError("obligation is missing ObligationId")
    fulfill_text = element.get("FulfillOn", "Permit")
    try:
        fulfill_on = Effect(fulfill_text)
    except ValueError:
        raise PolicyParseError(f"bad FulfillOn {fulfill_text!r}") from None
    assignments = []
    for assignment_element in element.findall("AttributeAssignment"):
        attribute_id = assignment_element.get("AttributeId")
        if not attribute_id:
            raise PolicyParseError("attribute assignment is missing AttributeId")
        value = AttributeValue.parse(
            assignment_element.get("DataType", XS_STRING),
            (assignment_element.text or "").strip(),
        )
        assignments.append(AttributeAssignment(attribute_id, value))
    return Obligation(obligation_id, fulfill_on, assignments)


def parse_request_xml(text: str) -> Request:
    """Parse a request document produced by :func:`request_to_xml`.

    The result is sealed (:meth:`Request.seal`): a served deployment
    sees the same few documents thousands of times, so parses are
    memoised by document text and every caller sending the same text
    gets the same object.  The memo (``request_parse``) is a pure
    function of the text: it needs no invalidation, outlives
    decision-cache flushes and keeps no failure (it raises on every call).
    ``parse_request_xml.cache_info()`` / ``.cache_clear()`` /
    ``.__wrapped__`` (the unmemoised parse) are the memo's.
    """
    return _memo.get(text)


def _parse_request(text: str) -> Request:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise PolicyParseError(f"malformed request XML: {exc}") from exc
    if root.tag != "Request":
        raise PolicyParseError(f"expected <Request> root, found <{root.tag}>")
    sections = {
        "Subject": AttributeCategory.SUBJECT,
        "Resource": AttributeCategory.RESOURCE,
        "Action": AttributeCategory.ACTION,
        "Environment": AttributeCategory.ENVIRONMENT,
    }
    request = Request()
    for child in root:
        category = sections.get(child.tag)
        if category is None:
            raise PolicyParseError(f"unexpected request section <{child.tag}>")
        for attribute_element in child.findall("Attribute"):
            attribute_id = attribute_element.get("AttributeId")
            if not attribute_id:
                raise PolicyParseError("request attribute is missing AttributeId")
            datatype = attribute_element.get("DataType", XS_STRING)
            value_element = attribute_element.find("AttributeValue")
            text_value = (
                value_element.text if value_element is not None else attribute_element.text
            )
            value = AttributeValue.parse(datatype, (text_value or "").strip())
            request.add(Attribute(category, attribute_id, value))
    return request.seal()


# An attribute and its fingerprint row weigh ~320 bytes; values, the text again.
_memo = Memo(_parse_request, lambda text, request: None if len(text) > MEMO_MAX_TEXT
                     else 2 * sys.getsizeof(text) + 384 * len(request.all_attributes()) + 1024,
                     name="request_parse")
parse_request_xml.cache_info, parse_request_xml.cache_clear = _memo.info, _memo.clear
parse_request_xml.__wrapped__ = _parse_request
