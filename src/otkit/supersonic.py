"""Three-party OT from one-time pads and controlled swaps.

No public-key operation anywhere on this path: the receiver pads both
messages' slots with keys it chose itself, and the two share bits drive one
controlled swap each at the sender and at the helper. The two swaps compose
to a swap by s, so the first element of the final pair is always the
encryption of m_s. The helper forwards only that first element.
"""

from dataclasses import dataclass, field

from .errors import LengthMismatch, UsageError
from .primitives import ByteString, controlled_swap, ss_share, xor_bytes
from .rng import RandomSource


@dataclass
class PadKeys:
    """Receiver's pad pair. Strictly single-use: retrieval spends it."""

    k0: ByteString
    k1: ByteString
    spent: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class EncPair:
    c0: ByteString
    c1: ByteString


def sup_setup(sigma_bits: int, rng: RandomSource) -> PadKeys:
    """Two independent uniform pads of the session length."""
    if sigma_bits % 8:
        raise UsageError("sigma_bits must be a multiple of 8")
    nbytes = sigma_bits // 8
    return PadKeys(k0=rng.randbytes(nbytes), k1=rng.randbytes(nbytes))


def sup_gen_query(s: int, rng: RandomSource) -> tuple[int, int]:
    """XOR shares of the choice bit, one per remote party."""
    if s not in (0, 1):
        raise UsageError("choice bit must be 0 or 1")
    return ss_share(s, rng)


def sup_gen_res(
    m0: ByteString, m1: ByteString, keys: PadKeys, q1: int
) -> EncPair:
    """Pad each message slot-wise, then swap under the sender's share."""
    if len(m0) != len(m1) or len(m0) != len(keys.k0) or len(keys.k0) != len(keys.k1):
        raise LengthMismatch("messages and pads must share the session length")
    e = (xor_bytes(m0, keys.k0), xor_bytes(m1, keys.k1))
    c0, c1 = controlled_swap(q1, e)
    return EncPair(c0=c0, c1=c1)


def sup_obl_filter(e_prime: EncPair, q2: int) -> ByteString:
    """Swap under the helper's share and forward only the first element."""
    head, _ = controlled_swap(q2, (e_prime.c0, e_prime.c1))
    return head


def sup_retrieve(c: ByteString, keys: PadKeys, s: int) -> ByteString:
    """m_s = c xor k_s. Spends the pads."""
    if s not in (0, 1):
        raise UsageError("choice bit must be 0 or 1")
    if keys.spent:
        raise UsageError("pad keys are single-use and were already spent")
    k = keys.k0 if s == 0 else keys.k1
    if len(c) != len(k):
        raise LengthMismatch("response and pad lengths differ")
    keys.spent = True
    return xor_bytes(c, k)
