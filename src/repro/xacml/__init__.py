"""A from-scratch XACML subset (the paper's Sun-XACML substitute).

Implements the slice of OASIS XACML the eXACML+ framework depends on:

- attribute-based requests in the four standard categories (subject,
  resource, action, environment),
- policies with targets, rules (Permit/Deny effects), conditions and
  rule-combining algorithms,
- obligations with attribute assignments — the extension point the paper
  embeds its fine-grained stream constraints in,
- a PDP that evaluates requests against a policy store and returns a
  decision plus the obligations of the deciding policy,
- XML serialisation and parsing for policies and requests, so workloads
  can be stored as files like the paper's experiment inputs.
"""

from repro.xacml.attributes import Attribute, AttributeCategory, AttributeValue
from repro.xacml.request import Request
from repro.xacml.response import Decision, Obligation, Response
from repro.xacml.policy import Condition, Match, Policy, Rule, Target
from repro.xacml.policyset import PolicySet
from repro.xacml.combining import RuleCombiningAlgorithm, PolicyCombiningAlgorithm
from repro.xacml.index import PolicyIndex
from repro.xacml.pdp import DecisionCache, PolicyDecisionPoint
from repro.xacml.sharding import (
    InvalidationBus,
    ProcessShardPool,
    ScatterEvaluator,
    ShardedPDP,
    ShardedPolicyStore,
)
from repro.xacml.store import PolicyStore
from repro.xacml.xml_io import (
    parse_policy_xml,
    parse_request_xml,
    policy_to_xml,
    request_to_xml,
)

__all__ = [
    "Attribute",
    "AttributeCategory",
    "AttributeValue",
    "Request",
    "Decision",
    "Obligation",
    "Response",
    "Condition",
    "Match",
    "Policy",
    "PolicySet",
    "Rule",
    "Target",
    "RuleCombiningAlgorithm",
    "PolicyCombiningAlgorithm",
    "DecisionCache",
    "InvalidationBus",
    "PolicyDecisionPoint",
    "PolicyIndex",
    "PolicyStore",
    "ProcessShardPool",
    "ScatterEvaluator",
    "ShardedPDP",
    "ShardedPolicyStore",
    "parse_policy_xml",
    "parse_request_xml",
    "policy_to_xml",
    "request_to_xml",
]
