"""Delegated-unknown-query OT and its multi-receiver extension.

A third-party issuer holds the choice bit. It hands the helpers the bit
shares, hands the sender a random tag, and hands the receiver only its second
share plus that tag. A tagged pair is the base OT's plain mask of m_i || tag
under the wider oracle hash_G (base_ot._mask_pair), then randomly permuted:
an NpResponse whose slots are permuted. The receiver unmasks both slots under
hash_G (base_ot.unmask_element) and recognizes the right one by the tag
alone, so it never learns the choice bit.

The multi-receiver extension pushes all pairs through P1, which
compresses them against the issuer's compress vector, a tuple of ciphertexts
encrypting one-hot at the receiver's index (paillier.one_hot). One
paillier.select call takes the inner product of that vector with the
responses, one row per response and one column per pair slot and component,
so the receiver gets four ciphertexts regardless of the database size.
"""

from dataclasses import dataclass

from .base_ot import NpResponse, ResponseElement, _mask_pair, unmask_element
from .dq_family import (
    FinalQueryPair,
    MessageDatabase,
    query_powers,
    retrieval_exponent,
)
from .errors import (
    AmbiguousTag,
    KeyTooSmall,
    NoTagMatch,
    ShapeMismatch,
    UsageError,
)
from .groupmath import GroupParams, Power, Scalar, rand_scalar
from .paillier import (
    Ciphertext,
    PaillierPublicKey,
    PaillierSecretKey,
    dec,
    kgen,
    one_hot,
    select,
)
from .primitives import ByteString, hash_G, parse, random_permute_pair, ss_share
from .rng import RandomSource


@dataclass(frozen=True)
class IssuerBundle:
    """Everything the issuer distributes: both shares and the retrieval tag."""

    share1: int
    share2: int
    tag: ByteString


def duq_t_request(s: int, lambda_bits: int, rng: RandomSource) -> IssuerBundle:
    """Issuer's split of s plus a fresh uniform tag of lambda_bits."""
    if lambda_bits % 8:
        raise UsageError("tag length must be a multiple of 8 bits")
    share1, share2 = ss_share(s, rng)
    tag = rng.randbytes(lambda_bits // 8)
    return IssuerBundle(share1=share1, share2=share2, tag=tag)


def duq_r_request(pk: GroupParams, rng: RandomSource) -> tuple[Scalar, Scalar]:
    """The receiver's two blinds; it holds no share of s in this variant."""
    return rand_scalar(pk, rng), rand_scalar(pk, rng)


def duq_s_gen_res(
    m0: ByteString,
    m1: ByteString,
    pk: GroupParams,
    query: FinalQueryPair,
    tag: ByteString,
    rng: RandomSource,
) -> NpResponse:
    """Mask (m_i || tag) per slot, then randomly permute the pair."""
    return _mask_tagged_pair(m0, m1, pk, query_powers(query, pk), tag, rng)


def _mask_tagged_pair(
    m0: ByteString,
    m1: ByteString,
    pk: GroupParams,
    powers: tuple[Power, Power],
    tag: ByteString,
    rng: RandomSource,
) -> NpResponse:
    """duq_s_gen_res against power functions from query_powers, which has
    already checked that the pair multiplies to C."""
    pair = _mask_pair(m0 + tag, m1 + tag, pk, powers, rng, hash_G)
    return NpResponse(*random_permute_pair(pair, rng))


def _tag_match(
    candidates: tuple[ResponseElement, ...],
    x: Scalar,
    tag: ByteString,
    pk: GroupParams,
) -> ByteString:
    """Unmask every candidate and return the payload whose trailer is the tag."""
    hits = []
    for element in candidates:
        if len(element[1]) < len(tag):
            continue
        message, trailer = parse(8 * len(tag), unmask_element(element, x, pk, hash_G))
        if trailer == tag:
            hits.append(message)
    if not hits:
        raise NoTagMatch("no decryption candidate carries the tag")
    if len(hits) > 1:
        raise AmbiguousTag("both decryption candidates carry the tag")
    return hits[0]


def duq_r_retrieve(
    res: NpResponse,
    blind1: Scalar,
    blind2: Scalar,
    share2: int,
    tag: ByteString,
    pk: GroupParams,
) -> ByteString:
    """m_s: unmask both slots with x and keep the one ending in the tag."""
    x = retrieval_exponent(blind1, blind2, share2, pk)
    return _tag_match(res, x, tag, pk)


def embedding_min_bits(pk: GroupParams, sigma_bits: int, lambda_bits: int) -> int:
    """Smallest homomorphic modulus length that fits every component."""
    return max(pk.P.bit_length(), sigma_bits + lambda_bits) + 8


def duqmr_r_setup(
    bits: int,
    rng: RandomSource,
    group: GroupParams,
    sigma_bits: int,
    lambda_bits: int,
) -> tuple[PaillierPublicKey, PaillierSecretKey]:
    """Receiver's homomorphic keypair, refused unless it can embed every
    component of the session's group, messages and tags."""
    needed = embedding_min_bits(group, sigma_bits, lambda_bits)
    if bits <= needed:
        raise KeyTooSmall(
            f"{bits}-bit modulus cannot embed components, need > {needed}"
        )
    return kgen(bits, rng)


def duqmr_t_setup(
    z: int, v: int, pk_j: PaillierPublicKey, rng: RandomSource
) -> tuple[Ciphertext, ...]:
    """Fresh encryptions of the one-hot vector with 1 at position v."""
    return one_hot(pk_j, z, v, rng)


def duqmr_s_gen_res_multi(
    db: MessageDatabase,
    pk: GroupParams,
    query: FinalQueryPair,
    tag: ByteString,
    rng: RandomSource,
) -> list[NpResponse]:
    """One independently masked and permuted tagged pair per entry, all
    against one pair of power functions built for z exponents each."""
    powers = query_powers(query, pk, uses=db.z)
    return [_mask_tagged_pair(m0, m1, pk, powers, tag, rng) for m0, m1 in db.pairs]


def _embed(component: int | ByteString, pk_j: PaillierPublicKey) -> int:
    """A component as a plaintext; duqmr_r_setup sized the key for every
    honest one, so one that does not fit came from the sender."""
    value = (
        component
        if isinstance(component, int)
        else int.from_bytes(component, "big")
    )
    if value >= pk_j.n:
        raise ShapeMismatch("component does not fit below the modulus")
    return value


def duqmr_p1_filter(
    responses: list[NpResponse],
    w: tuple[Ciphertext, ...],
    pk_j: PaillierPublicKey,
) -> tuple[Ciphertext, ...]:
    """Inner product of each pair component with the one-hot vector: four
    ciphertexts in (slot, component) order, slot 0's head and body first."""
    rows = [[_embed(part, pk_j) for element in resp for part in element]
            for resp in responses]
    return select(pk_j, w, rows)


def duqmr_r_retrieve(
    filtered: tuple[Ciphertext, ...],
    sk_j: PaillierSecretKey,
    blind1: Scalar,
    blind2: Scalar,
    share2: int,
    tag: ByteString,
    sigma_bits: int,
    pk: GroupParams,
) -> ByteString:
    """Decrypt the four components, rebuild the pair, and tag-match as usual."""
    mask_bytes = (sigma_bits + 8 * len(tag)) // 8
    candidates = []
    for head_ct, body_ct in (filtered[:2], filtered[2:]):
        head = dec(sk_j, head_ct)
        body = dec(sk_j, body_ct)
        if not 1 <= head < pk.P or body >= 1 << (8 * mask_bytes):
            # garbage decryption (wrong key); this slot cannot be honest
            continue
        candidates.append((head, body.to_bytes(mask_bytes, "big")))
    x = retrieval_exponent(blind1, blind2, share2, pk)
    return _tag_match(tuple(candidates), x, tag, pk)
