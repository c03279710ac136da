"""Oblivious transfer toolkit.

Protocol families: Diffie-Hellman base OT (np), delegated-query variants
where two helpers assemble the query from shares (dq / duq, with or without
a separate choice issuer), their multi-receiver forms (dq-mr / duq-mr), a
compiler wrapping any base suite with a constant-size response, and a
pad-based three-party variant (supersonic). harness runs any of them as a
multi-party session with a byte-exact transcript; laws states each protocol
law once, as a check that raises LawViolation; cli exposes run, verify
(the laws), and bench commands.
"""

from .errors import (
    AmbiguousTag,
    ConsistencyAbort,
    DecodeError,
    ElementOutOfRange,
    EmbeddingOverflow,
    IndexOutOfRange,
    InputTooShort,
    KeyTooSmall,
    LawViolation,
    LengthMismatch,
    MalformedCiphertext,
    NoTagMatch,
    OtkitError,
    PlaintextOutOfRange,
    PrimeSearchExhausted,
    ProtocolError,
    ShapeMismatch,
    TruncatedFrame,
    UnknownRole,
    UnknownTag,
    UsageError,
)
from .groupmath import GroupParams, gen_group
from .harness import (
    Envelope,
    MsgType,
    Role,
    SessionConfig,
    SessionTranscript,
    export_transcript,
    project_view,
    run_session,
)
from .rng import SeededSource, SystemSource

__all__ = [
    "AmbiguousTag",
    "ConsistencyAbort",
    "DecodeError",
    "ElementOutOfRange",
    "EmbeddingOverflow",
    "Envelope",
    "GroupParams",
    "IndexOutOfRange",
    "InputTooShort",
    "KeyTooSmall",
    "LawViolation",
    "LengthMismatch",
    "MalformedCiphertext",
    "MsgType",
    "NoTagMatch",
    "OtkitError",
    "PlaintextOutOfRange",
    "PrimeSearchExhausted",
    "ProtocolError",
    "Role",
    "SeededSource",
    "SessionConfig",
    "SessionTranscript",
    "ShapeMismatch",
    "SystemSource",
    "TruncatedFrame",
    "UnknownRole",
    "UnknownTag",
    "UsageError",
    "export_transcript",
    "gen_group",
    "project_view",
    "run_session",
]
