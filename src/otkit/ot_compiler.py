"""Constant-size-response wrapper around any conventional OT suite.

The receiver ships a selector along with its base query: a tuple of n
ciphertexts under its key, encrypting one-hot at its choice
(paillier.one_hot). The sender still computes every base response element,
but collapses them into a single element's worth of ciphertexts, one per
component, by one paillier.select call with a row per element, so the
response size stops depending on the message count. The compressed response
is that tuple of ciphertexts; it travels with each at the key's full width,
the COMPRESSED_RESPONSE entry of the codec table in harness.py. The receiver
decrypts the one surviving element and hands it to the suite's retrieve.

Embedding: every component travels through the plaintext space as the
big-endian integer of a 2-byte length header followed by the component bytes,
which keeps decoding unambiguous after decryption.
"""

from .base_ot import ConventionalOtSuite
from .errors import DecodeError, EmbeddingOverflow, KeyTooSmall
from .paillier import (
    Ciphertext,
    PaillierPublicKey,
    PaillierSecretKey,
    dec,
    one_hot,
    select,
)
from .primitives import ByteString
from .rng import RandomSource


HEADER_BYTES = 2


def _component_bytes(component) -> bytes:
    if isinstance(component, int):
        return component.to_bytes((component.bit_length() + 7) // 8, "big")
    return bytes(component)


def embed_component(component, pk_R: PaillierPublicKey) -> int:
    """Header + payload as one integer below the plaintext modulus."""
    payload = _component_bytes(component)
    if len(payload) >= 1 << (8 * HEADER_BYTES):
        raise EmbeddingOverflow("component too long for the length header")
    value = int.from_bytes(len(payload).to_bytes(HEADER_BYTES, "big") + payload, "big")
    if value >= pk_R.n:
        raise EmbeddingOverflow("component does not fit below the modulus")
    return value


def unembed_component(value: int, kind: str):
    """Invert embed_component; the header pins the payload length."""
    if value == 0:
        payload = b""
    else:
        minimal = (value.bit_length() + 7) // 8
        payload = None
        for k in range(max(minimal, HEADER_BYTES), minimal + HEADER_BYTES + 1):
            buf = value.to_bytes(k, "big")
            if int.from_bytes(buf[:HEADER_BYTES], "big") == k - HEADER_BYTES:
                payload = buf[HEADER_BYTES:]
                break
        if payload is None:
            raise DecodeError("no length header matches the decrypted value")
    if kind == "elem":
        return int.from_bytes(payload, "big")
    return payload


def comp_gen_query(
    suite: ConventionalOtSuite,
    pk_base,
    n: int,
    s: int,
    pk_R: PaillierPublicKey,
    rng: RandomSource,
    component_bits: int | None = None,
):
    """Base query plus a fresh encrypted one-hot selector at s.

    component_bits, when known at query time, is the widest component the
    base suite will produce; the key must clear it plus header and slack.
    """
    if component_bits is not None:
        needed = component_bits + 8 * HEADER_BYTES + 8
        if pk_R.bits() <= needed:
            raise KeyTooSmall(f"need a modulus over {needed} bits")
    base_query, base_secret = suite.gen_query(pk_base, n, s, rng)
    return base_query, base_secret, one_hot(pk_R, n, s, rng)


def comp_gen_res(
    suite: ConventionalOtSuite,
    msgs: list[ByteString],
    pk_base,
    base_query,
    selector: tuple[Ciphertext, ...],
    pk_R: PaillierPublicKey,
    rng: RandomSource,
) -> tuple[Ciphertext, ...]:
    """Component-wise inner product of the base response with the selector:
    one ciphertext per base response component, however many messages."""
    elements = suite.gen_res(msgs, pk_base, base_query, rng)
    rows = [[embed_component(part, pk_R) for part in e] for e in elements]
    return select(pk_R, selector, rows)


def comp_retrieve(
    suite: ConventionalOtSuite,
    compressed: tuple[Ciphertext, ...],
    sk_R: PaillierSecretKey,
    base_secret,
    pk_base,
) -> ByteString:
    """Decrypt and decode the surviving element, then finish with the suite."""
    element = tuple(
        unembed_component(dec(sk_R, ct), kind)
        for ct, kind in zip(compressed, suite.component_kinds)
    )
    return suite.retrieve(element, base_secret, pk_base)
