"""Message types exchanged between the framework entities.

The prototype's entities communicate over sockets (Section 4.1); in this
reproduction messages are plain objects whose *serialised size* drives
the network simulation.  Sizes are estimated from the XML forms actually
exchanged — requests, user queries and policies travel as XML documents,
responses carry a handle URI or an error string.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.core.user_query import UserQuery
from repro.xacml.request import Request
from repro.xacml.xml_io import request_to_xml


class StreamRequestMessage(NamedTuple):
    """Client → proxy → server: request + optional customised query."""

    request: Request
    user_query: Optional[UserQuery]

    def payload_bytes(self) -> int:
        size = len(request_to_xml(self.request).encode())
        if self.user_query is not None:
            size += len(self.user_query.to_xml().encode())
        return size

    def cache_key(self) -> str:
        """Key under which a proxy may cache the resulting handle.

        Two requests hit the same cache entry when the same subject asks
        for the same resource/action with a byte-identical customised
        query — the proxy cannot do better without interpreting policy.
        """
        query_part = self.user_query.to_xml() if self.user_query else ""
        return "|".join(
            (
                self.request.subject_id or "",
                self.request.resource_id or "",
                self.request.action_id or "",
                query_part,
            )
        )


class StreamResponseMessage(NamedTuple):
    """Server → proxy → client: a handle URI, or an error.

    ``decision``/``policy_id`` carry the PDP verdict alongside the
    transport outcome so served clients (and differential harnesses)
    can compare access-control decisions without dereferencing handles.
    """

    handle_uri: Optional[str]
    error_kind: Optional[str] = None   # "denied" | "nr" | "pr" | "concurrent" | "invalid"
    error_detail: Optional[str] = None
    decision: Optional[str] = None     # Decision.value, when the PDP ran
    policy_id: Optional[str] = None    # deciding policy, when permitted

    def payload_bytes(self) -> int:
        size = len((self.handle_uri or "").encode())
        size += len((self.error_detail or "").encode())
        return max(size, 64)  # framing floor

    @property
    def ok(self) -> bool:
        return self.handle_uri is not None and self.error_kind is None


class DirectQueryMessage(NamedTuple):
    """Client → DSMS: a raw StreamSQL script (the baseline's input)."""

    streamsql: str

    def payload_bytes(self) -> int:
        return len(self.streamsql.encode())
