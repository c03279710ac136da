"""1-out-of-2 oblivious transfer over the DH group.

The receiver sends a single group element; the sender derives the companion
element through the public C, masks each message with a hash of a fresh
DH share, and the receiver can unmask exactly the slot its blind matches.

`_mask`, `_mask_pair` and `unmask_element` are the one mask of every
group-based transfer, (g^y, oracle(b^y) xor m). They take the oracle as an
argument: hash_H for a plain message, hash_G for a tagged one (duq_family).
Callers pass the module global at call time, so a tracer that rebinds it
sees every call. unmask_message opens a plain message for np-ot and the
dq family, and refuses a body that is not the receiver's own sigma bits.

Also defines the pluggable suite contract that the response compiler
consumes, plus that contract's instantiation for this OT. The response's
wire format lives in the session engine's codec table (harness._CODECS), as
every payload format does.
"""

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from .errors import ElementOutOfRange, IndexOutOfRange, LengthMismatch, ShapeMismatch
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
Oracle = Callable[[ByteString, int], ByteString]


@dataclass(frozen=True)
class NpSecret:
    """Receiver side secret: the nonzero blind r and the choice bit."""

    r: Scalar
    s: int


class NpResponse(NamedTuple):
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
    if not 0 < query < pk.P:
        raise ElementOutOfRange("query element outside [1, P) has no inverse")
    powers = base_powers(query, pk, 1), base_powers(elem_div(pk.C, query, pk), pk, 1)
    return _mask_pair(m0, m1, pk, powers, rng, hash_H)


def _mask(
    m: ByteString, power: Power, pk: GroupParams, rng: RandomSource, oracle: Oracle
) -> ResponseElement:
    """(g^y, m xor oracle(power(y))) for a fresh y."""
    y = rand_scalar(pk, rng)
    pad = oracle(elem_to_bytes(power(y), pk), 8 * len(m))
    return modexp(pk.g, y, pk), xor_bytes(pad, m)


def _mask_pair(
    m0: ByteString,
    m1: ByteString,
    pk: GroupParams,
    powers: tuple[Power, Power],
    rng: RandomSource,
    oracle: Oracle,
) -> NpResponse:
    """Mask m_i against powers[i], slot 0 first. The caller vouches that the
    powers belong to a pair multiplying to C."""
    if len(m0) != len(m1):
        raise LengthMismatch("messages must share the session length")
    return NpResponse(
        _mask(m0, powers[0], pk, rng, oracle), _mask(m1, powers[1], pk, rng, oracle)
    )


def unmask_element(
    element: ResponseElement, exponent: Scalar, pk: GroupParams, oracle: Oracle
) -> ByteString:
    """Strip the oracle's pad of one response element with a known exponent."""
    head, body = element
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
    """m_s from the response slot matching the stored choice bit."""
    return unmask_message(res[secret.s], secret.r, pk, sigma_bits)


@dataclass(frozen=True)
class ConventionalOtSuite:
    """Suite operations: gen_query, gen_res, retrieve.

    gen_res returns one response element per message; each element is a
    tuple of components whose kinds are declared in component_kinds
    ("elem" for a group element, "mask" for a byte string), which is what
    lets the compiler embed and recover them. retrieve(element, secret, pk)
    opens the one element it is given: the one at the receiver's choice.
    """

    gen_query: Callable[[Any, int, int, RandomSource], tuple[Any, Any]]
    gen_res: Callable[[list[ByteString], Any, Any, RandomSource], list[tuple]]
    retrieve: Callable[[tuple, Any, Any], ByteString]
    component_kinds: tuple[str, ...]


def _suite_gen_query(pk, n, s, rng):
    if not 0 <= s < n:
        raise IndexOutOfRange(f"choice {s} outside [0, {n})")
    # beyond two messages the query degenerates: every element is masked
    # against the query element b0 itself, one element per index
    return np_gen_query(pk, s if n == 2 else 0, rng)


def _suite_gen_res(msgs, pk, query, rng):
    if len(msgs) == 2:
        return list(np_gen_res(msgs[0], msgs[1], pk, query, rng))
    power = base_powers(query, pk, len(msgs))
    return [_mask(m, power, pk, rng, hash_H) for m in msgs]


def _suite_retrieve(element, secret, pk):
    return unmask_element(element, secret.r, pk, hash_H)


def np_suite() -> ConventionalOtSuite:
    return ConventionalOtSuite(
        gen_query=_suite_gen_query,
        gen_res=_suite_gen_res,
        retrieve=_suite_retrieve,
        component_kinds=("elem", "mask"),
    )
