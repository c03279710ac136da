"""1-out-of-2 oblivious transfer over the DH group.

The receiver sends a single group element; the sender derives the companion
element through the public C, masks each message with a hash of a fresh
DH share, and the receiver can unmask exactly the slot its blind matches.
Also defines the pluggable suite contract that the response compiler
consumes, plus that contract's instantiation for this OT. The
response's wire format lives in the session engine's codec table
(harness._CODECS), as every payload format does.
"""

from dataclasses import dataclass
from typing import Any, Callable

from .errors import IndexOutOfRange, LengthMismatch
from .groupmath import (
    GroupElement,
    GroupParams,
    Power,
    Scalar,
    base_powers,
    elem_div,
    elem_to_bytes,
    modexp,
    rand_scalar,
)
from .primitives import ByteString, hash_H, xor_bytes
from .rng import RandomSource

ResponseElement = tuple[GroupElement, ByteString]


@dataclass(frozen=True)
class NpSecret:
    """Receiver side secret: the nonzero blind r and the choice bit."""

    r: Scalar
    s: int


@dataclass(frozen=True)
class NpResponse:
    """Two response elements, slot 0 first; also the tagged pair of the
    delegated-unknown-query OT, whose slots are randomly permuted."""

    e0: ResponseElement
    e1: ResponseElement


def np_gen_query(
    pk: GroupParams, s: int, rng: RandomSource
) -> tuple[GroupElement, NpSecret]:
    """Query element b0, where b_s = g^r and b_(1-s) = C / b_s."""
    r = rand_scalar(pk, rng, nonzero=True)
    chosen = modexp(pk.g, r, pk)
    other = elem_div(pk.C, chosen, pk)
    b0 = chosen if s == 0 else other
    return b0, NpSecret(r=r, s=s)


def np_gen_res(
    m0: ByteString,
    m1: ByteString,
    pk: GroupParams,
    query: GroupElement,
    rng: RandomSource,
) -> NpResponse:
    """Mask both messages against the query pair (b0, C / b0)."""
    powers = base_powers(query, pk, 1), base_powers(elem_div(pk.C, query, pk), pk, 1)
    return _mask_pair(m0, m1, pk, powers, rng)


def _mask(
    m: ByteString, power: Power, pk: GroupParams, rng: RandomSource
) -> ResponseElement:
    """(g^y, m xor H(power(y))) for a fresh y."""
    y = rand_scalar(pk, rng)
    pad = hash_H(elem_to_bytes(power(y), pk), 8 * len(m))
    return modexp(pk.g, y, pk), xor_bytes(pad, m)


def _mask_pair(
    m0: ByteString,
    m1: ByteString,
    pk: GroupParams,
    powers: tuple[Power, Power],
    rng: RandomSource,
) -> NpResponse:
    """Mask m_i against powers[i], slot 0 first. The caller vouches that the
    powers belong to a pair multiplying to C."""
    if len(m0) != len(m1):
        raise LengthMismatch("messages must share the session length")
    return NpResponse(
        e0=_mask(m0, powers[0], pk, rng), e1=_mask(m1, powers[1], pk, rng)
    )


def unmask_element(
    element: ResponseElement, exponent: Scalar, pk: GroupParams
) -> ByteString:
    """Strip the hash pad of one response element with a known exponent."""
    head, body = element
    pad = hash_H(elem_to_bytes(modexp(head, exponent, pk), pk), 8 * len(body))
    return xor_bytes(pad, body)


def np_retrieve(res: NpResponse, secret: NpSecret, pk: GroupParams) -> ByteString:
    """m_s from the response slot matching the stored choice bit."""
    element = res.e0 if secret.s == 0 else res.e1
    return unmask_element(element, secret.r, pk)


@dataclass(frozen=True)
class ConventionalOtSuite:
    """Suite operations: gen_query, gen_res, retrieve.

    gen_res returns one response element per message; each element is a
    tuple of components whose kinds are declared in component_kinds
    ("elem" for a group element, "mask" for a byte string), which is what
    lets the compiler embed and recover them.
    """

    gen_query: Callable[[Any, int, int, RandomSource], tuple[Any, Any]]
    gen_res: Callable[[list[ByteString], Any, Any, RandomSource], list[tuple]]
    retrieve: Callable[[list[tuple], Any, Any, Any, int], ByteString]
    component_kinds: tuple[str, ...]


def _suite_gen_query(pk, n, s, rng):
    if not 0 <= s < n:
        raise IndexOutOfRange(f"choice {s} outside [0, {n})")
    # beyond two messages the query degenerates: every element is masked
    # against the query element b0 itself, one element per index
    return np_gen_query(pk, s if n == 2 else 0, rng)


def _suite_gen_res(msgs, pk, query, rng):
    if len(msgs) == 2:
        res = np_gen_res(msgs[0], msgs[1], pk, query, rng)
        return [res.e0, res.e1]
    power = base_powers(query, pk, len(msgs))
    return [_mask(m, power, pk, rng) for m in msgs]


def _suite_retrieve(res_elements, query, secret, pk, s):
    # a compiled session hands back the single surviving element
    element = res_elements[0] if len(res_elements) == 1 else res_elements[s]
    return unmask_element(element, secret.r, pk)


def np_suite() -> ConventionalOtSuite:
    return ConventionalOtSuite(
        gen_query=_suite_gen_query,
        gen_res=_suite_gen_res,
        retrieve=_suite_retrieve,
        component_kinds=("elem", "mask"),
    )
