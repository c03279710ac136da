"""Naor-Pinkas 1-out-of-n oblivious transfer over the DH group (SODA 2001).

The receiver with choice s sends b0 = g^r for s = 0, else C_s / g^r. The
sender masks m_0 under b0 and each other m_i under C_i / b0 with a hash of
a fresh DH share, so the receiver unmasks element s alone. C_1 is the
session's C, so np-ot is the n = 2 case; public_element derives the other
C_i from P and i, so nobody knows their discrete logs.

`mask_messages`, `_mask` and `unmask_element` are the one mask of every
group-based transfer, (g^y, oracle(b^y) xor m). They take the oracle as an
argument: hash_H for a plain message, hash_G for a tagged one (duq_family).
Callers pass the module global at call time, so a tracer that rebinds it
sees every call. unmask_message opens a plain message and refuses a body
that is not the receiver's own sigma bits.

np_suite() fills the suite contract that the response compiler consumes
with this OT's own functions. The response's wire format lives in the
session engine's codec table (harness._CODECS), as every payload format does.
"""

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

from .errors import IndexOutOfRange, LengthMismatch, ShapeMismatch
from .groupmath import (
    GroupElement,
    GroupParams,
    Scalar,
    check_elements,
    elem_div,
    elem_to_bytes,
    modexp,
    rand_scalar,
)
from .primitives import ByteString, hash_H, xor_bytes
from .rng import RandomSource

ResponseElement = tuple[GroupElement, ByteString]
Oracle = Callable[[ByteString, int], ByteString]


@dataclass(frozen=True)
class NpSecret:
    """Receiver side secret: the nonzero blind r and the choice s."""

    r: Scalar
    s: int


class NpResponse(NamedTuple):
    """Two response elements, slot 0 first; also the tagged pair of the
    delegated-unknown-query OT, whose slots are randomly permuted."""

    e0: ResponseElement
    e1: ResponseElement


def public_element(pk: GroupParams, i: int) -> GroupElement:
    """C_i: the session's C for i = 1, else the square mod P of a SHAKE-256
    output keyed by (P, i), first mapped into [2, P - 2] so that the square
    is neither 0 nor 1."""
    if i == 1:
        return pk.C
    key = b"C" + elem_to_bytes(pk.P, pk) + i.to_bytes(4, "big")
    digest = hashlib.shake_256(key).digest(pk.elem_bytes() + 16)
    x = 2 + int.from_bytes(digest, "big") % (pk.P - 3)
    return x * x % pk.P


def np_gen_query(
    pk: GroupParams, s: int, rng: RandomSource, n: int = 2
) -> tuple[GroupElement, NpSecret]:
    """Query element b0: g^r for s = 0, else C_s / g^r. It divides by C_1 at
    s = 0 too, so the receiver's counted work depends on neither s nor n."""
    if not 0 <= s < n:
        raise IndexOutOfRange(f"choice {s} outside [0, {n})")
    r = rand_scalar(pk, rng, nonzero=True)
    chosen = modexp(pk.g, r, pk)
    other = elem_div(public_element(pk, max(s, 1)), chosen, pk)
    return (other if s else chosen), NpSecret(r=r, s=s)


def np_gen_res(
    msgs: Sequence[ByteString], pk: GroupParams, query: GroupElement, rng: RandomSource
) -> tuple[ResponseElement, ...]:
    """One element per message: m_0 masked under b0 = query, each other m_i
    under C_i / b0."""
    check_elements(pk, query)
    bases = [query] + [elem_div(public_element(pk, i), query, pk) for i in range(1, len(msgs))]
    return mask_messages(msgs, bases, pk, rng, hash_H)


def _mask(
    m: ByteString, base: GroupElement, pk: GroupParams, rng: RandomSource, oracle: Oracle
) -> ResponseElement:
    """(g^y, m xor oracle(base^y)) for a fresh nonzero y: y = 0 sends the
    head 1, whose pad anyone strips."""
    y = rand_scalar(pk, rng, nonzero=True)
    pad = oracle(elem_to_bytes(modexp(base, y, pk), pk), 8 * len(m))
    return modexp(pk.g, y, pk), xor_bytes(pad, m)


def mask_messages(
    msgs: Sequence[ByteString], bases: Sequence[GroupElement], pk: GroupParams,
    rng: RandomSource, oracle: Oracle,
) -> tuple[ResponseElement, ...]:
    """Mask msgs[i] against bases[i], in order, each under a fresh y. The
    caller vouches for the bases: np_gen_res derives them from the public
    elements, the dq and duq senders take a pair multiplying to C."""
    if len({len(m) for m in msgs}) > 1:
        raise LengthMismatch("messages must share the session length")
    return tuple(_mask(m, base, pk, rng, oracle) for m, base in zip(msgs, bases, strict=True))


def unmask_element(
    element: ResponseElement, exponent: Scalar, pk: GroupParams, oracle: Oracle
) -> ByteString:
    """Strip the oracle's pad of one response element with a known exponent,
    refusing a head outside [1, P)."""
    head, body = element
    check_elements(pk, head)
    pad = oracle(elem_to_bytes(modexp(head, exponent, pk), pk), 8 * len(body))
    return xor_bytes(pad, body)


def unmask_message(
    element: ResponseElement, exponent: Scalar, pk: GroupParams, sigma_bits: int
) -> ByteString:
    """unmask_element under hash_H, refusing a body that is not sigma_bits long."""
    if 8 * len(element[1]) != sigma_bits:
        raise ShapeMismatch(f"{len(element[1])}-byte body, expected {sigma_bits // 8}")
    return unmask_element(element, exponent, pk, hash_H)


def np_retrieve(
    res: NpResponse, secret: NpSecret, pk: GroupParams, sigma_bits: int
) -> ByteString:
    """m_s from the response element at the stored choice."""
    return unmask_message(res[secret.s], secret.r, pk, sigma_bits)


@dataclass(frozen=True)
class ConventionalOtSuite:
    """Suite operations: gen_query(pk, s, rng, n), gen_res(msgs, pk, query,
    rng) and retrieve(element, secret, pk, sigma_bits). gen_res returns one
    response element per message, a tuple of components whose kinds
    component_kinds declares ("elem" for a group element, "mask" for a byte
    string), so the compiler can embed and recover them. retrieve opens the
    one element it is given, the one at the receiver's choice, and refuses a
    mask that is not sigma_bits long."""

    gen_query: Callable[[Any, int, RandomSource, int], tuple[Any, Any]]
    gen_res: Callable[[list[ByteString], Any, Any, RandomSource], tuple[tuple, ...]]
    retrieve: Callable[[tuple, Any, Any, int], ByteString]
    component_kinds: tuple[str, ...]


def np_suite() -> ConventionalOtSuite:
    return ConventionalOtSuite(
        gen_query=np_gen_query,
        gen_res=np_gen_res,
        retrieve=lambda element, secret, pk, bits: unmask_message(element, secret.r, pk, bits),
        component_kinds=("elem", "mask"),
    )
