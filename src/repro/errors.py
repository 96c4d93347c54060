"""Exception hierarchy for the eXACML+ reproduction.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch one base class.  Sub-hierarchies mirror the main
subsystems: the stream engine, the expression toolkit, the XACML substrate
and the eXACML+ core.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Stream engine (repro.streams)
# ---------------------------------------------------------------------------

class StreamError(ReproError):
    """Base class for stream-engine errors."""


class SchemaError(StreamError):
    """A schema is malformed, or a tuple does not match its schema."""


class UnknownAttributeError(SchemaError):
    """An operator or expression references an attribute not in the schema."""

    def __init__(self, attribute, schema_name=None):
        self.attribute = attribute
        self.schema_name = schema_name
        where = f" in schema {schema_name!r}" if schema_name else ""
        super().__init__(f"unknown attribute {attribute!r}{where}")


class GraphError(StreamError):
    """A query graph is structurally invalid (cycle, dangling box, ...)."""


class EngineError(StreamError):
    """The stream engine rejected an operation."""


class UnknownStreamError(EngineError):
    """A referenced input or output stream is not registered."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown stream {name!r}")


class UnknownHandleError(EngineError):
    """A stream handle URI does not resolve to a live query."""

    def __init__(self, uri):
        self.uri = uri
        super().__init__(f"unknown or withdrawn stream handle {uri!r}")


class StreamSQLError(StreamError):
    """A StreamSQL script could not be parsed."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Expression toolkit (repro.expr)
# ---------------------------------------------------------------------------

class ExpressionError(ReproError):
    """Base class for boolean-expression errors."""


class ExpressionSyntaxError(ExpressionError):
    """A condition string could not be parsed."""

    def __init__(self, message, position=None):
        self.reason = message
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ExpressionTypeError(ExpressionError):
    """Operands of a comparison have incompatible types."""


# ---------------------------------------------------------------------------
# XACML substrate (repro.xacml)
# ---------------------------------------------------------------------------

class XacmlError(ReproError):
    """Base class for XACML errors."""


class PolicyParseError(XacmlError):
    """An XACML policy or request document could not be parsed."""


class PolicyStoreError(XacmlError):
    """The policy store rejected an operation (duplicate id, missing id...)."""


class ObligationError(XacmlError):
    """An obligation block is malformed or uses an unknown vocabulary."""


class ShardUnavailableError(PolicyStoreError):
    """A shard's worker is down, restarting, or declared degraded.

    Raised (or mapped onto a retryable wire error) instead of poisoning
    the whole pool: only the affected shard's traffic fails, and
    *retryable* tells callers whether a supervised restart is expected
    (``True`` — retry with backoff) or the shard has exhausted its
    restart budget and was declared degraded (``False``).
    """

    def __init__(self, shard_id, reason, retryable=True, degraded=False):
        self.shard_id = shard_id
        self.retryable = retryable
        self.degraded = degraded
        state = "degraded" if degraded else "unavailable"
        super().__init__(f"shard {shard_id} is {state}: {reason}")


# ---------------------------------------------------------------------------
# eXACML+ core (repro.core)
# ---------------------------------------------------------------------------

class AccessControlError(ReproError):
    """Base class for eXACML+ access-control errors."""


class AccessDeniedError(AccessControlError):
    """The PDP denied the request (or found it not applicable)."""

    def __init__(self, decision, message=None):
        self.decision = decision
        super().__init__(message or f"access denied: decision={decision}")


class ConcurrentAccessError(AccessControlError):
    """A credential already holds a live query on the requested stream.

    Enforces the single-access constraint of Section 3.4 of the paper,
    which prevents the multi-window reconstruction attack.
    """

    def __init__(self, subject, stream):
        self.subject = subject
        self.stream = stream
        super().__init__(
            f"subject {subject!r} already has an active query on stream "
            f"{stream!r}; concurrent windows would permit stream "
            f"reconstruction (paper Section 3.4)"
        )


class MergeError(AccessControlError):
    """Two query graphs cannot be merged under the Section 3.1 rules."""


class WindowRefinementError(MergeError):
    """A user window is finer-grained than the policy window allows."""


class EmptyResultWarning(AccessControlError):
    """NR: the user query conflicts with policy; no tuples can be returned."""

    def __init__(self, message, conflicts=None):
        self.conflicts = list(conflicts or [])
        super().__init__(message)


class PartialResultWarning(AccessControlError):
    """PR: some tuples the user expects may be withheld by policy."""

    def __init__(self, message, conflicts=None):
        self.conflicts = list(conflicts or [])
        super().__init__(message)


# ---------------------------------------------------------------------------
# Framework (repro.framework)
# ---------------------------------------------------------------------------

class FrameworkError(ReproError):
    """Base class for cloud-framework errors."""


class TransportError(FrameworkError):
    """A simulated network transfer failed (unknown endpoint, ...)."""


class ClientTimeoutError(FrameworkError):
    """A served call missed its per-call deadline.

    Deliberately *not* a :class:`TransportError`: the transport may be
    perfectly healthy while the server is merely slow or hung, and
    callers need to tell the two apart (a timed-out mutation may or may
    not have been applied, so it must not be blindly retried the way a
    transport-level connection failure can be surfaced and re-dialled).
    """
