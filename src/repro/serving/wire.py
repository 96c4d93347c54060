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

:func:`encode_message` is the only encoder and writes ``{"seq":N,``
first, so a repeated message differs from frame to frame by its seq
alone: both directions memoise the bytes after the seq (see there).
"""

from __future__ import annotations

import dataclasses
import json
import re
import struct
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Type, get_type_hints

from repro.errors import TransportError
from repro.obs import MEMO_MAX_TEXT, Memo

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


@dataclass(frozen=True)
class StatsOp:
    """Ask a live server for its :class:`StatsReply`."""


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


@dataclass(frozen=True)
class StatsReply:
    """The server's registry snapshot: one flat mapping of dotted names
    (``docs/serving.md`` lists them) to JSON values."""

    values: Dict[str, object]


#: op-name → message class, both directions; the single source of truth
#: the codec and the property tests iterate over.
MESSAGE_TYPES: Dict[str, Type] = {
    "evaluate": EvaluateOp,
    "load": LoadOp,
    "update": UpdateOp,
    "revoke": RevokeOp,
    "ingest": IngestOp,
    "ping": PingOp,
    "stats": StatsOp,
    "evaluate_reply": EvaluateReply,
    "ack": AckReply,
    "error": ErrorReply,
    "stats_reply": StatsReply,
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
    Dict[str, object]: ((dict,), None),
}

# The codec's tables, built once: what ``dataclasses.fields`` /
# ``asdict`` would re-derive on every frame.
#: op name → (message class, field name → its ``_JSON_TYPES`` entry),
#: fields in declaration order
_DECODE_TABLE = {
    name: (cls, {f.name: _JSON_TYPES[get_type_hints(cls)[f.name]]
                 for f in dataclasses.fields(cls)})
    for name, cls in MESSAGE_TYPES.items()
}
#: Message classes with a list- or dict-typed field (``IngestOp.records``,
#: ``StatsReply.values``): a decoded container is its receiver's to
#: keep, so no memo ever shares one.
_CONTAINER_TYPED = frozenset(
    cls for cls, fields in _DECODE_TABLE.values()
    if any(accepted[0] in (list, dict) for accepted, _ in fields.values())
)
#: message class → (op name, field names, and — unless container-typed —
#: each field's exact JSON types: the encode memo's gate)
_ENCODE_TABLE = {
    cls: (name, tuple(fields), None if cls in _CONTAINER_TYPED else tuple(
        accepted for accepted, _ in fields.values()
    ))
    for name, (cls, fields) in _DECODE_TABLE.items()
}
_ENCODER = json.JSONEncoder(separators=(",", ":"))

#: The prefix :func:`encode_message` writes: ``{"seq":`` and a JSON int
#: of at most 18 digits, then the comma.
_CANONICAL_SEQ = re.compile(rb'\{"seq":(-?(?:0|[1-9][0-9]{0,17})),')
_MEMO_SEQ_BOUND = 10 ** 18


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


# -- codec ---------------------------------------------------------------------------

def encode_message(seq: int, message) -> bytes:
    """Encode one op/reply object into a complete frame.

    Raises :class:`TransportError` for exactly the messages the peer's
    :func:`decode_message` would refuse — a ``bool`` seq, an ``ok`` of
    ``1``, a ``count`` of ``1.5`` — and for an unregistered type; a
    ``str`` subclass goes out as the plain string it is.

    A message whose fields all hold exactly their declared JSON types
    (``True`` is no count, so an equal value of another type never
    shares its bytes) and whose seq has at most 18 digits is rendered
    once: the bytes after ``{"seq":N`` are memoised under the type and
    the field values (``frame_encode``, weighed by :func:`_weigh_frame`).
    ``encode_message.cache_info()`` / ``.cache_clear()`` /
    ``.__wrapped__`` (the unmemoised encoder) are the memo's.
    """
    entry = _ENCODE_TABLE.get(type(message))
    if (entry is None or entry[2] is None or type(seq) is not int
            or not -_MEMO_SEQ_BOUND < seq < _MEMO_SEQ_BOUND):
        return _encode(seq, message)
    key = (type(message), *vars(message).values())    # the fields, in order
    for value, accepted in zip(key[1:], entry[2]):
        if type(value) not in accepted:
            return _encode(seq, message)
    return encode_frame(b'{"seq":%d' % seq + _tail_memo.get(key))


def _encode(seq: int, message) -> bytes:
    """The unmemoised encoder (``encode_message.__wrapped__``)."""
    entry = _ENCODE_TABLE.get(type(message))
    if entry is None:
        raise TransportError(f"unregistered message type {type(message).__name__}")
    op, names, _ = entry
    body = {name: getattr(message, name) for name in names}
    payload = _render({"seq": seq, "op": op, "body": body})
    frame = encode_frame(payload)
    _decode(payload)    # refuses what the peer would refuse
    return frame


def _render_tail(key: tuple) -> bytes:
    """The bytes :func:`_encode` writes after ``{"seq":N`` for the
    message of type ``key[0]`` and field values ``key[1:]``."""
    op, names, _ = _ENCODE_TABLE[key[0]]
    return b"," + _render({"op": op, "body": dict(zip(names, key[1:]))})[1:]


def _render(envelope: dict) -> bytes:
    try:
        return _ENCODER.encode(envelope).encode()
    except (TypeError, ValueError, RecursionError) as error:
        raise TransportError(f"unencodable message: {error}") from error


def decode_message(payload: bytes) -> Tuple[int, object]:
    """Decode one frame payload into ``(seq, message)``.

    Every way the payload can be malformed — bad UTF-8, bad JSON, an
    integer past CPython's int-string limit, nesting past the recursion
    limit, a non-object envelope, a missing/invalid ``seq``/``op``, an
    unknown op, body fields that do not match the message type in name
    or in JSON type — raises :class:`TransportError`.

    A payload of at most :data:`~repro.obs.MEMO_MAX_TEXT` bytes that
    starts as :func:`encode_message` starts one, ``{"seq":N,`` with at
    most 18 digits, is looked up by the bytes after ``N``
    (``frame_decode``, weighed by :func:`_weigh_frame`): a repeated
    request is parsed and checked once.  A failure on that path, or a
    body that carries another ``seq`` key, is decoded again whole, so
    every error and its text is the unmemoised decoder's.  Each call
    returns a fresh message object sharing the memoised field values.
    ``decode_message.cache_info()`` / ``.cache_clear()`` /
    ``.__wrapped__`` (the unmemoised decoder) are the memo's.
    """
    canonical = len(payload) <= MEMO_MAX_TEXT and _CANONICAL_SEQ.match(payload)
    if not canonical:
        return _decode(payload)
    try:
        prototype = _body_memo.get(bytes(payload[canonical.end(1):]))
    except (ValueError, RecursionError, TransportError):
        return _decode(payload)
    message = object.__new__(type(prototype))
    message.__dict__.update(prototype.__dict__)
    return int(canonical[1]), message


def _decode_body(tail: bytes):
    """The message of a payload whose bytes after ``{"seq":N`` are *tail*."""
    envelope = json.loads(str(b"{" + tail[1:], "utf-8"))
    if "seq" in envelope:
        # A later (or escaped) seq key overrides the first: only the
        # whole payload knows which seq the frame carries.
        raise TransportError("seq key after the canonical prefix")
    return _message(envelope.get("op"), envelope.get("body"))


def _decode(payload: bytes) -> Tuple[int, object]:
    """The unmemoised decoder (``decode_message.__wrapped__``)."""
    try:
        envelope = json.loads(str(payload, "utf-8"))
    except (ValueError, RecursionError) as error:
        raise TransportError(f"undecodable frame payload: {error}") from error
    if not isinstance(envelope, dict):
        raise TransportError(
            f"frame envelope must be an object, got {type(envelope).__name__}"
        )
    seq = envelope.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool):
        raise TransportError(f"invalid sequence number {seq!r}")
    return seq, _message(envelope.get("op"), envelope.get("body"))


def _message(op, body):
    """The message an envelope's ``op`` and ``body`` name, type-checked."""
    entry = _DECODE_TABLE.get(op) if isinstance(op, str) else None
    if entry is None:
        raise TransportError(f"unknown op {op!r}")
    message_type, fields = entry
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
        return message_type(**body)
    except TypeError as error:
        raise TransportError(f"op {op!r} body mismatch: {error}") from error


def _weigh_frame(tail: bytes, cls: type, values) -> Optional[int]:
    """Either frame memo's entry: the tail, the field values and at most
    ~700 bytes of objects around them; ``None`` for a long tail, a
    container the receiver keeps, or a reply naming a stream handle
    (each handle is new, so its reply never repeats)."""
    fields = dict(zip(_ENCODE_TABLE[cls][1], values))
    if len(tail) > MEMO_MAX_TEXT or cls in _CONTAINER_TYPED or fields.get("handle_uri"):
        return None
    return len(tail) + sum(map(sys.getsizeof, fields.values())) + 768


_body_memo = Memo(_decode_body, lambda tail, message: _weigh_frame(
    tail, type(message), vars(message).values()), name="frame_decode")
decode_message.cache_info, decode_message.cache_clear = _body_memo.info, _body_memo.clear
decode_message.__wrapped__ = _decode
_tail_memo = Memo(_render_tail, lambda key, tail: _weigh_frame(tail, key[0], key[1:]),
                  name="frame_encode")
encode_message.cache_info, encode_message.cache_clear = _tail_memo.info, _tail_memo.clear
encode_message.__wrapped__ = _encode


def iter_messages(decoder: FrameDecoder, data: bytes) -> Iterator[Tuple[int, object]]:
    """Feed *data* and decode every completed frame (test convenience)."""
    for payload in decoder.feed(data):
        yield decode_message(payload)
