"""Error taxonomy shared by every module.

ProtocolError covers failures that a party detects mid-protocol (aborts,
tag mismatches, malformed peer data); a length or count from a peer that
does not fit the party's own inputs raises ShapeMismatch. DecodeError covers
wire failures. UsageError is reserved for caller mistakes (bad flags,
out-of-range inputs, its own messages of unequal length) and maps to exit
code 2 on the command line.
"""


class OtkitError(Exception):
    """Base class for all toolkit errors."""


class UsageError(OtkitError):
    """Caller passed an input that violates an operation's contract."""


class ProtocolError(OtkitError):
    """A party aborted or rejected data during a protocol run."""


class LawViolation(OtkitError):
    """A protocol law failed to hold; the message says which and where."""


class PrimeSearchExhausted(OtkitError):
    """No suitable prime found within the retry budget."""


class InputTooShort(UsageError):
    """Byte string shorter than the requested split boundary."""


class LengthMismatch(UsageError):
    """Operands that must share a length do not."""


class PlaintextOutOfRange(UsageError):
    """Plaintext outside [0, n) for the given public key."""


class MalformedCiphertext(ProtocolError):
    """Ciphertext not invertible mod n, cannot be decrypted."""


class ElementOutOfRange(ProtocolError):
    """Group element from a peer outside [1, P)."""


class ShapeMismatch(ProtocolError):
    """A length or count from a peer does not match the party's own."""


class ConsistencyAbort(ProtocolError):
    """Query pair failed the b0 * b1 = C well-formedness relation."""


class NoTagMatch(ProtocolError):
    """Neither decryption candidate carries the expected tag."""


class AmbiguousTag(ProtocolError):
    """Both decryption candidates carry the expected tag."""


class KeyTooSmall(UsageError):
    """Homomorphic key modulus too short to embed protocol payloads."""


class IndexOutOfRange(UsageError):
    """Record or selector index outside [0, z)."""


class EmbeddingOverflow(UsageError):
    """Payload does not fit below the homomorphic plaintext modulus."""


class DecodeError(ProtocolError):
    """Serialized structure cannot be parsed back."""


class TruncatedFrame(DecodeError):
    """Wire frame shorter than its declared length."""


class UnknownTag(DecodeError):
    """Message-type byte not in the tag table."""


class UnknownRole(DecodeError):
    """Role byte not in the role table."""
