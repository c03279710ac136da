"""Delegated-query OT and its multi-receiver extension.

The receiver never computes its own query: it splits the choice bit into XOR
shares and hands each helper server a share plus a fresh blind. P2 builds a
partial query pair from C and its blind, P1 finishes the pair with its own
blind, and the sender answers only if the pair multiplies back to C. The
receiver unmasks with the combined exponent x = r2 + r1 * (-1)^s2.

In the multi-receiver form the sender answers with one response pair per
database entry and P1 forwards exactly the pair at the receiver's index v.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .base_ot import NpResponse, _mask_pair, unmask_message
from .errors import ConsistencyAbort, IndexOutOfRange, ShapeMismatch, UsageError
from .groupmath import (
    GroupElement,
    GroupParams,
    Power,
    Scalar,
    base_powers,
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


@dataclass(frozen=True)
class MessageDatabase:
    """Sender's ordered vector of message pairs, uniform length per component."""

    pairs: tuple[tuple[ByteString, ByteString], ...]

    def __post_init__(self):
        if not self.pairs:
            raise UsageError("database needs at least one pair")
        sigma = len(self.pairs[0][0])
        for m0, m1 in self.pairs:
            if len(m0) != sigma or len(m1) != sigma:
                raise UsageError("database entries must share one length")

    @property
    def z(self) -> int:
        return len(self.pairs)


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
    gr1 = modexp(pk.g, req1.blind, pk)
    b = elem_mul(partial.d0, gr1, pk), elem_div(partial.d1, gr1, pk)
    return FinalQueryPair(*controlled_swap(req1.share, b))


def check_consistency(query: FinalQueryPair, pk: GroupParams) -> None:
    """Abort unless b0 * b1 = C."""
    if elem_mul(query.b0, query.b1, pk) != pk.C:
        raise ConsistencyAbort("query pair does not multiply to C")


def query_powers(
    query: FinalQueryPair, pk: GroupParams, uses: int = 1
) -> tuple[Power, Power]:
    """Power functions of b0 and b1, each for `uses` exponents; abort unless b0 * b1 = C."""
    check_consistency(query, pk)
    return base_powers(query.b0, pk, uses), base_powers(query.b1, pk, uses)


def dq_s_gen_res(
    m0: ByteString,
    m1: ByteString,
    pk: GroupParams,
    query: FinalQueryPair,
    rng: RandomSource,
) -> NpResponse:
    """Answer a well-formed pair exactly like the base OT sender."""
    return _mask_pair(m0, m1, pk, query_powers(query, pk), rng, hash_H)


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


def dqmr_s_gen_res_multi(
    db: MessageDatabase,
    pk: GroupParams,
    query: FinalQueryPair,
    rng: RandomSource,
) -> list[NpResponse]:
    """One independent response pair per database entry, all against one
    pair of power functions built for z exponents each."""
    powers = query_powers(query, pk, uses=db.z)
    return [_mask_pair(m0, m1, pk, powers, rng, hash_H) for m0, m1 in db.pairs]


def dqmr_p1_filter(responses: list[NpResponse], v: int) -> NpResponse:
    """Forward exactly the pair at index v; the rest never leave P1."""
    if v < 0:
        raise IndexOutOfRange(f"index {v} is negative")
    if v >= len(responses):
        raise ShapeMismatch(f"index {v} outside the {len(responses)} responses")
    return responses[v]
