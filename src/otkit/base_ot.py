"""1-out-of-2 oblivious transfer over the DH group.

The receiver sends a single group element; the sender derives the companion
element through the public C, masks each message with a hash of a fresh
DH share, and the receiver can unmask exactly the slot its blind matches.
Also defines the pluggable four-operation contract that the response
compiler consumes, plus that contract's instantiation for this OT.
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
    gen_group,
    modexp,
    rand_scalar,
)
from .primitives import ByteString, hash_H, xor_bytes
from .rng import RandomSource
from .wire import Reader, encode_bytes, encode_uint

ResponseElement = tuple[GroupElement, ByteString]


@dataclass(frozen=True)
class NpSecret:
    """Receiver side secret: the nonzero blind r and the choice bit."""

    r: Scalar
    s: int


@dataclass(frozen=True)
class NpResponse:
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


def np_query_powers(
    query: GroupElement, pk: GroupParams, uses: int = 1
) -> tuple[Power, Power]:
    """Power functions of the query pair (b0, C / b0), each for `uses` exponents."""
    return base_powers(query, pk, uses), base_powers(elem_div(pk.C, query, pk), pk, uses)


def np_gen_res(
    m0: ByteString,
    m1: ByteString,
    pk: GroupParams,
    query: GroupElement,
    rng: RandomSource,
) -> NpResponse:
    """Mask both messages against the query pair (b0, C / b0)."""
    return _mask_pair(m0, m1, pk, np_query_powers(query, pk), rng)


def _mask_pair(
    m0: ByteString,
    m1: ByteString,
    pk: GroupParams,
    powers: tuple[Power, Power],
    rng: RandomSource,
) -> NpResponse:
    """Mask m_i with a hash of powers[i](y) for a fresh y per slot. The caller
    vouches that the powers belong to a pair multiplying to C."""
    if len(m0) != len(m1):
        raise LengthMismatch("messages must share the session length")
    elements = []
    for i in (0, 1):
        y = rand_scalar(pk, rng)
        pad = hash_H(elem_to_bytes(powers[i](y), pk), 8 * len(m0))
        elements.append((modexp(pk.g, y, pk), xor_bytes(pad, (m0, m1)[i])))
    return NpResponse(e0=elements[0], e1=elements[1])


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


def encode_response_element(e: ResponseElement) -> bytes:
    return encode_uint(e[0]) + encode_bytes(e[1])


def read_response_element(r: Reader) -> ResponseElement:
    return (r.read_uint(), r.read_bytes())


def encode_np_response(res: NpResponse) -> bytes:
    return encode_response_element(res.e0) + encode_response_element(res.e1)


def decode_np_response(buf: bytes) -> NpResponse:
    r = Reader(buf)
    e0 = read_response_element(r)
    e1 = read_response_element(r)
    r.expect_end()
    return NpResponse(e0=e0, e1=e1)


@dataclass(frozen=True)
class ConventionalOtSuite:
    """Four-operation bundle: init, gen_query, gen_res, retrieve.

    gen_res returns one response element per message; each element is a
    tuple of components whose kinds are declared in component_kinds
    ("elem" for a group element, "mask" for a byte string), which is what
    lets the compiler embed and recover them.
    """

    init: Callable[[int, RandomSource], Any]
    gen_query: Callable[[Any, int, int, RandomSource], tuple[Any, Any]]
    gen_res: Callable[[list[ByteString], Any, Any, RandomSource], list[tuple]]
    retrieve: Callable[[list[tuple], Any, Any, Any, int], ByteString]
    component_kinds: tuple[str, ...]


def _suite_gen_query(pk, n, s, rng):
    if not 0 <= s < n:
        raise IndexOutOfRange(f"choice {s} outside [0, {n})")
    # beyond two messages the query degenerates: every element is masked
    # against slot 0 of the same pair, one element per index
    return np_gen_query(pk, s if n == 2 else 0, rng)


def _suite_gen_res(msgs, pk, query, rng):
    if len(msgs) == 2:
        res = np_gen_res(msgs[0], msgs[1], pk, query, rng)
        return [res.e0, res.e1]
    powers = np_query_powers(query, pk, uses=len(msgs))
    return [_mask_pair(m, m, pk, powers, rng).e0 for m in msgs]


def _suite_retrieve(res_elements, query, secret, pk, s):
    # a compiled session hands back the single surviving element
    element = res_elements[0] if len(res_elements) == 1 else res_elements[s]
    return unmask_element(element, secret.r, pk)


def np_suite() -> ConventionalOtSuite:
    return ConventionalOtSuite(
        init=lambda lambda_bits, rng: gen_group(lambda_bits, rng),
        gen_query=_suite_gen_query,
        gen_res=_suite_gen_res,
        retrieve=_suite_retrieve,
        component_kinds=("elem", "mask"),
    )
