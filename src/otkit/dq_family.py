"""Delegated-query OT and its multi-receiver extension.

The receiver never computes its own query: it splits the choice bit into XOR
shares and hands each helper server a share plus a fresh blind. P2 builds a
partial query pair from C and its blind, P1 finishes the pair with its own
blind, and the sender answers only if the pair multiplies back to C. The
receiver unmasks with the combined exponent x = r2 + r1 * (-1)^s2.

In the multi-receiver form the sender answers with one response pair per
database entry and P1 forwards exactly the pair at the receiver's index v.
The single sender is the one-record case of that loop. A database is the
plain tuple of (m0, m1) pairs that the session engine has already checked.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .base_ot import NpResponse, mask_messages, unmask_message
from .errors import ConsistencyAbort, IndexOutOfRange, ShapeMismatch
from .groupmath import (
    GroupElement,
    GroupParams,
    Scalar,
    check_elements,
    elem_div,
    elem_mul,
    modexp,
    rand_scalar,
)
from .primitives import ByteString, controlled_swap, hash_H, ss_share
from .rng import RandomSource


@dataclass(frozen=True)
class DelegationRequest:
    """One helper's slice of the delegated query: a bit share and a blind."""

    share: int
    blind: Scalar


class PartialQueryPair(NamedTuple):
    d0: GroupElement
    d1: GroupElement


class FinalQueryPair(NamedTuple):
    b0: GroupElement
    b1: GroupElement


def dq_r_request(
    s: int, pk: GroupParams, rng: RandomSource
) -> tuple[DelegationRequest, DelegationRequest]:
    """Split s into shares and pair each with an independent blind."""
    share1, share2 = ss_share(s, rng)
    r1 = rand_scalar(pk, rng)
    r2 = rand_scalar(pk, rng)
    return (
        DelegationRequest(share=share1, blind=r1),
        DelegationRequest(share=share2, blind=r2),
    )


def dq_p2_gen_query(req2: DelegationRequest, pk: GroupParams) -> PartialQueryPair:
    """Pair with g^r2 in slot share and C/g^r2 in the other slot."""
    gr2 = modexp(pk.g, req2.blind, pk)
    d = gr2, elem_div(pk.C, gr2, pk)
    return PartialQueryPair(*controlled_swap(req2.share, d))


def dq_p1_gen_query(
    req1: DelegationRequest, partial: PartialQueryPair, pk: GroupParams
) -> FinalQueryPair:
    """Finish the pair: slot share takes d0 * g^r1, the other d1 / g^r1."""
    check_elements(pk, *partial)
    gr1 = modexp(pk.g, req1.blind, pk)
    b = elem_mul(partial.d0, gr1, pk), elem_div(partial.d1, gr1, pk)
    return FinalQueryPair(*controlled_swap(req1.share, b))


def check_consistency(query: FinalQueryPair, pk: GroupParams) -> None:
    """Abort unless b0 and b1 lie in [1, P) and b0 * b1 = C."""
    check_elements(pk, *query)
    if elem_mul(query.b0, query.b1, pk) != pk.C:
        raise ConsistencyAbort("query pair does not multiply to C")


def dqmr_s_gen_res_multi(
    db: tuple[tuple[ByteString, ByteString], ...],
    pk: GroupParams,
    query: FinalQueryPair,
    rng: RandomSource,
) -> list[NpResponse]:
    """One independent response pair per database entry, each masked
    against b0 and b1 of a pair that passes check_consistency."""
    check_consistency(query, pk)
    return [NpResponse(*mask_messages((m0, m1), query, pk, rng, hash_H)) for m0, m1 in db]


def dq_s_gen_res(
    m0: ByteString,
    m1: ByteString,
    pk: GroupParams,
    query: FinalQueryPair,
    rng: RandomSource,
) -> NpResponse:
    """Answer a well-formed pair exactly like the base OT sender: the
    one-record database (m0, m1)."""
    return dqmr_s_gen_res_multi(((m0, m1),), pk, query, rng)[0]


def retrieval_exponent(
    blind1: Scalar, blind2: Scalar, share2: int, pk: GroupParams
) -> Scalar:
    """x = r2 + r1 * (-1)^s2, reduced into [0, q)."""
    sign = 1 if share2 == 0 else -1
    return (blind2 + sign * blind1) % pk.q


def dq_r_retrieve(
    res: NpResponse,
    req1: DelegationRequest,
    req2: DelegationRequest,
    s: int,
    pk: GroupParams,
    sigma_bits: int,
) -> ByteString:
    """m_s, unmasked with the combined exponent."""
    x = retrieval_exponent(req1.blind, req2.blind, req2.share, pk)
    return unmask_message(res[s], x, pk, sigma_bits)


def dqmr_p1_filter(responses: list[NpResponse], v: int) -> NpResponse:
    """Forward exactly the pair at index v; the rest never leave P1."""
    if v < 0:
        raise IndexOutOfRange(f"index {v} is negative")
    if v >= len(responses):
        raise ShapeMismatch(f"index {v} outside the {len(responses)} responses")
    return responses[v]
