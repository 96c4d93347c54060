"""Length-prefixed wire format for the serving front-end.

Every frame is a 4-byte big-endian unsigned length followed by exactly
that many payload bytes; the payload is a UTF-8 JSON envelope::

    {"seq": <int>, "op": "<op name>", "body": {...}}

Sequence numbers are per-connection and client-assigned; the server
echoes them on replies, and guarantees replies leave a connection in
request order (so a pipelined client may also match positionally).

The codec is deliberately sans-IO: :class:`FrameDecoder` consumes raw
byte chunks and yields complete payloads, so the exact same code path
is driven by the asyncio server, the client, and socketless property
tests.  All malformed input — oversized length prefixes, truncated
frames, non-JSON payloads, unknown ops, envelope/body shape errors —
surfaces as :class:`~repro.errors.TransportError`; nothing in this
module raises anything else on bad bytes.

Payloads reuse the XML document forms of ``framework/messages.py``
(requests, user queries and policies travel exactly as the simulated
network sizes them), so a served deployment and the simulation exchange
byte-identical documents.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Type, get_type_hints

from repro.errors import TransportError

#: Frames above this are protocol violations — reject before buffering,
#: so a corrupt or hostile length prefix cannot balloon memory.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct("!I")
HEADER_BYTES = _HEADER.size


# -- operations (client → server) ----------------------------------------------------

@dataclass(frozen=True)
class EvaluateOp:
    """One access request: XML request + optional customised query.

    ``decide_only`` asks for the bare PDP verdict — no PEP workflow, no
    engine registration — the cheap, side-effect-free form benchmarks
    and differential probes use.
    """

    request_xml: str
    user_query_xml: Optional[str] = None
    decide_only: bool = False


@dataclass(frozen=True)
class LoadOp:
    """Data-owner → server: load one XML policy document."""

    policy_xml: str


@dataclass(frozen=True)
class UpdateOp:
    """Replace a loaded policy (revokes its spawned graphs)."""

    policy_xml: str


@dataclass(frozen=True)
class RevokeOp:
    """Remove a policy by id (revokes its spawned graphs)."""

    policy_id: str


@dataclass(frozen=True)
class IngestOp:
    """Append records to an input stream."""

    stream: str
    records: List[dict] = field(default_factory=list)


@dataclass(frozen=True)
class PingOp:
    """Liveness probe; the server acks without touching the instance."""


# -- replies (server → client) -------------------------------------------------------

@dataclass(frozen=True)
class EvaluateReply:
    """Outcome of one :class:`EvaluateOp`."""

    ok: bool
    handle_uri: Optional[str] = None
    decision: Optional[str] = None
    policy_id: Optional[str] = None
    error_kind: Optional[str] = None
    error_detail: Optional[str] = None


@dataclass(frozen=True)
class AckReply:
    """Success reply for load/update/revoke/ingest/ping."""

    op: str
    detail: Optional[str] = None
    count: int = 0


@dataclass(frozen=True)
class ErrorReply:
    """The operation failed; the connection stays usable.

    ``retryable`` distinguishes transient faults from fatal ones: the
    server sets it for failures a later attempt can outrun (a shard
    worker mid-restart, for instance), and resilient clients retry
    *only* such replies — a fatal error (bad request, unknown policy,
    degraded shard) retried forever would just burn the deadline.
    """

    error_kind: str
    error_detail: str = ""
    retryable: bool = False


#: op-name → message class, both directions; the single source of truth
#: the codec and the property tests iterate over.
MESSAGE_TYPES: Dict[str, Type] = {
    "evaluate": EvaluateOp,
    "load": LoadOp,
    "update": UpdateOp,
    "revoke": RevokeOp,
    "ingest": IngestOp,
    "ping": PingOp,
    "evaluate_reply": EvaluateReply,
    "ack": AckReply,
    "error": ErrorReply,
}

#: Field annotation → (exact types a decoded JSON value may have, exact
#: type of every element when the value is a list).  Exact, not
#: ``isinstance``: JSON only ever decodes to these classes, and ``True``
#: must not pass for an ``int`` count.  A message field annotated with
#: anything else fails at import, here, not on a live connection.
_JSON_TYPES = {
    str: ((str,), None),
    Optional[str]: ((str, type(None)), None),
    bool: ((bool,), None),
    int: ((int,), None),
    List[dict]: ((list,), dict),
}

# The codec's tables, built once: what ``dataclasses.fields`` /
# ``asdict`` would re-derive on every frame.
#: message class → (op name, field names in declaration order)
_ENCODE_TABLE = {
    cls: (name, tuple(f.name for f in dataclasses.fields(cls)))
    for name, cls in MESSAGE_TYPES.items()
}
#: op name → (message class, field name → its ``_JSON_TYPES`` entry)
_DECODE_TABLE = {
    name: (cls, {f.name: _JSON_TYPES[get_type_hints(cls)[f.name]]
                 for f in dataclasses.fields(cls)})
    for name, cls in MESSAGE_TYPES.items()
}
_ENCODER = json.JSONEncoder(separators=(",", ":"))


# -- framing -------------------------------------------------------------------------

def encode_frame(payload: bytes) -> bytes:
    """Prefix *payload* with its length; rejects oversized payloads."""
    if len(payload) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental (sans-IO) frame parser.

    Feed it byte chunks of any granularity; iterate the complete
    payloads it has accumulated.  Oversized length prefixes raise
    immediately (before the body arrives); :meth:`eof` raises if the
    peer hung up mid-frame.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[bytes]:
        """Consume *data*; return every payload completed by it."""
        self._buffer.extend(data)
        frames: List[bytes] = []
        while True:
            if len(self._buffer) < HEADER_BYTES:
                return frames
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise TransportError(
                    f"declared frame length {length} exceeds the "
                    f"{MAX_FRAME_BYTES}-byte limit"
                )
            if len(self._buffer) < HEADER_BYTES + length:
                return frames
            frames.append(bytes(self._buffer[HEADER_BYTES:HEADER_BYTES + length]))
            del self._buffer[:HEADER_BYTES + length]

    def eof(self) -> None:
        """Signal end of input; raises if a frame was left unfinished."""
        if self._buffer:
            raise TransportError(
                f"connection closed mid-frame with {len(self._buffer)} "
                "buffered bytes"
            )

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


# -- codec ---------------------------------------------------------------------------

def encode_message(seq: int, message) -> bytes:
    """Encode one op/reply object into a complete frame."""
    entry = _ENCODE_TABLE.get(type(message))
    if entry is None:
        raise TransportError(f"unregistered message type {type(message).__name__}")
    op, names = entry
    body = {name: getattr(message, name) for name in names}
    return encode_frame(_ENCODER.encode({"seq": seq, "op": op, "body": body}).encode())


def decode_message(payload: bytes) -> Tuple[int, object]:
    """Decode one frame payload into ``(seq, message)``.

    Every way the payload can be malformed — bad UTF-8, bad JSON, a
    non-object envelope, a missing/invalid ``seq``/``op``, an unknown
    op, body fields that do not match the message type in name or in
    JSON type — raises :class:`TransportError`.
    """
    try:
        envelope = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TransportError(f"undecodable frame payload: {error}") from error
    if not isinstance(envelope, dict):
        raise TransportError(
            f"frame envelope must be an object, got {type(envelope).__name__}"
        )
    seq = envelope.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool):
        raise TransportError(f"invalid sequence number {seq!r}")
    op = envelope.get("op")
    entry = _DECODE_TABLE.get(op) if isinstance(op, str) else None
    if entry is None:
        raise TransportError(f"unknown op {op!r}")
    message_type, fields = entry
    body = envelope.get("body")
    if not isinstance(body, dict):
        raise TransportError(f"op {op!r} body must be an object")
    unknown = body.keys() - fields.keys()
    if unknown:
        raise TransportError(
            f"op {op!r} carries unknown fields {sorted(unknown)}"
        )
    for name, value in body.items():
        accepted, element = fields[name]
        if type(value) not in accepted:
            raise TransportError(
                f"op {op!r} field {name!r} cannot be a {type(value).__name__}"
            )
        if element is not None and any(type(item) is not element for item in value):
            raise TransportError(
                f"op {op!r} field {name!r} must hold only {element.__name__} items"
            )
    try:
        message = message_type(**body)
    except TypeError as error:
        raise TransportError(f"op {op!r} body mismatch: {error}") from error
    return seq, message


def iter_messages(decoder: FrameDecoder, data: bytes) -> Iterator[Tuple[int, object]]:
    """Feed *data* and decode every completed frame (test convenience)."""
    for payload in decoder.feed(data):
        yield decode_message(payload)
