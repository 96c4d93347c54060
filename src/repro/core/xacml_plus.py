"""The assembled XACML+ instance (the paper's Figure 3(b)).

An :class:`XacmlPlusInstance` wires together a policy store, a PDP, an
access registry, a query-graph manager and a PEP over one stream engine.
It is the unit the eXACML+ framework deploys on the data server — "new
XACML+ instances are added into the framework to handle access control
needs on data streams".

Whatever evaluates requests is ``instance.pdp``, the one PDP the
instance is built with, which its PEP shares.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.access_registry import AccessRegistry
from repro.core.graph_manager import QueryGraphManager
from repro.core.pep import PepResult, PolicyEnforcementPoint
from repro.core.user_query import UserQuery
from repro.streams.engine import StreamEngine
from repro.streams.handles import StreamHandle
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.policy import Policy
from repro.xacml.request import Request
from repro.xacml.store import PolicyStore
from repro.xacml.xml_io import parse_policy_xml, parse_request_xml


class XacmlPlusInstance:
    """One PDP+PEP pair bound to a stream engine."""

    def __init__(
        self,
        engine: Optional[StreamEngine] = None,
        enforce_single_access: bool = True,
        allow_partial_results: bool = False,
    ):
        self.engine = engine if engine is not None else StreamEngine()
        self.store = PolicyStore()
        self.pdp = PolicyDecisionPoint(self.store)
        self.access_registry = AccessRegistry(enforce=enforce_single_access)
        self.graph_manager = QueryGraphManager(
            self.engine, self.store, self.access_registry
        )
        self.pep = PolicyEnforcementPoint(
            self.pdp,
            self.engine,
            access_registry=self.access_registry,
            graph_manager=self.graph_manager,
            allow_partial_results=allow_partial_results,
        )

    # -- policy management (data-owner side) -----------------------------------

    def load_policy(self, policy: Union[Policy, str]) -> Policy:
        """Load a policy object or an XML policy document."""
        if isinstance(policy, str):
            policy = parse_policy_xml(policy)
        self.store.load(policy)
        return policy

    def update_policy(self, policy: Union[Policy, str]) -> Policy:
        """Replace a policy; spawned query graphs are revoked immediately."""
        if isinstance(policy, str):
            policy = parse_policy_xml(policy)
        self.store.update(policy)
        return policy

    def remove_policy(self, policy_id: str) -> None:
        """Remove a policy; spawned query graphs are revoked immediately."""
        self.store.remove(policy_id)

    # -- request path (user side) ------------------------------------------------

    def request_stream(
        self,
        request: Union[Request, str],
        user_query: Optional[Union[UserQuery, str]] = None,
    ) -> PepResult:
        """Process one access request (optionally with a customised query).

        Accepts live objects or the XML documents of the paper's workload
        files.
        """
        if isinstance(request, str):
            request = parse_request_xml(request)
        if isinstance(user_query, str):
            user_query = UserQuery.from_xml(user_query)
        return self.pep.handle_request(request, user_query)

    def release_stream(self, handle: StreamHandle) -> None:
        self.pep.release(handle)

    # -- introspection -------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"XacmlPlusInstance(policies={len(self.store)}, "
            f"active_queries={len(self.engine.active_queries())})"
        )
