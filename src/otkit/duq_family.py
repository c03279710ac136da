"""Delegated-unknown-query OT and its multi-receiver extension.

A third-party issuer holds the choice bit. It hands the helpers the bit
shares, hands the sender a random tag, and hands the receiver only its second
share plus that tag. The sender masks each message together with the tag
under the wider hash, then randomly permutes the pair, so the receiver
recognizes the right slot by the tag alone and never learns the choice bit.

The multi-receiver extension pushes all pairs through P1, which compresses
them against an encrypted one-hot vector so the receiver gets four
ciphertexts regardless of the database size.
"""

from dataclasses import dataclass

from .base_ot import ResponseElement
from .dq_family import (
    FinalQueryPair,
    MessageDatabase,
    query_powers,
    retrieval_exponent,
)
from .errors import (
    AmbiguousTag,
    EmbeddingOverflow,
    IndexOutOfRange,
    KeyTooSmall,
    LengthMismatch,
    NoTagMatch,
    UsageError,
)
from .groupmath import GroupParams, Power, Scalar, elem_to_bytes, modexp, rand_scalar
from .paillier import (
    HomCiphertext,
    PaillierPublicKey,
    PaillierSecretKey,
    dec,
    enc,
    hadd,
    hscale,
    kgen,
)
from .primitives import (
    ByteString,
    hash_G,
    parse,
    random_permute_pair,
    ss_share,
    xor_bytes,
)
from .rng import RandomSource


@dataclass(frozen=True)
class IssuerBundle:
    """Everything the issuer distributes: both shares and the retrieval tag."""

    share1: int
    share2: int
    tag: ByteString


@dataclass(frozen=True)
class TaggedResponse:
    """Randomly ordered pair of (group element, masked message||tag)."""

    pair: tuple[ResponseElement, ResponseElement]


@dataclass(frozen=True)
class CompressVector:
    """Encrypted one-hot selector held by P1, hot at the receiver's index."""

    entries: tuple[HomCiphertext, ...]


@dataclass(frozen=True)
class FilteredResponse:
    """Homomorphic inner products: o_ic for pair slot i, component c."""

    o00: HomCiphertext
    o01: HomCiphertext
    o10: HomCiphertext
    o11: HomCiphertext


def duq_t_request(s: int, lambda_bits: int, rng: RandomSource) -> IssuerBundle:
    """Issuer's split of s plus a fresh uniform tag of lambda_bits."""
    if s not in (0, 1):
        raise UsageError("choice bit must be 0 or 1")
    if lambda_bits % 8:
        raise UsageError("tag length must be a multiple of 8 bits")
    shares = ss_share(s, rng)
    tag = rng.randbytes(lambda_bits // 8)
    return IssuerBundle(share1=shares.s1, share2=shares.s2, tag=tag)


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
) -> TaggedResponse:
    """Mask (m_i || tag) per slot, then randomly permute the pair."""
    return _mask_tagged_pair(m0, m1, pk, query_powers(query, pk), tag, rng)


def _mask_tagged_pair(
    m0: ByteString,
    m1: ByteString,
    pk: GroupParams,
    powers: tuple[Power, Power],
    tag: ByteString,
    rng: RandomSource,
) -> TaggedResponse:
    """duq_s_gen_res against power functions from query_powers, which has
    already checked that the pair multiplies to C."""
    if len(m0) != len(m1):
        raise LengthMismatch("messages must share the session length")
    sigma_bits, lambda_bits = 8 * len(m0), 8 * len(tag)
    elements = []
    for i in (0, 1):
        y = rand_scalar(pk, rng)
        pad = hash_G(elem_to_bytes(powers[i](y), pk), sigma_bits, lambda_bits)
        elements.append(
            (modexp(pk.g, y, pk), xor_bytes(pad, (m0, m1)[i] + tag))
        )
    return TaggedResponse(pair=random_permute_pair(tuple(elements), rng))


def _tag_match(
    candidates: tuple[ResponseElement, ...],
    x: Scalar,
    tag: ByteString,
    pk: GroupParams,
) -> ByteString:
    """Unmask every candidate and return the payload whose trailer is the tag."""
    lam = len(tag)
    hits = []
    for head, body in candidates:
        sigma_bits = 8 * (len(body) - lam)
        if sigma_bits < 0:
            continue
        pad = hash_G(elem_to_bytes(modexp(head, x, pk), pk), sigma_bits, 8 * lam)
        message, trailer = parse(8 * lam, xor_bytes(pad, body))
        if trailer == tag:
            hits.append(message)
    if not hits:
        raise NoTagMatch("no decryption candidate carries the tag")
    if len(hits) > 1:
        raise AmbiguousTag("both decryption candidates carry the tag")
    return hits[0]


def duq_r_retrieve(
    res: TaggedResponse,
    blind1: Scalar,
    blind2: Scalar,
    share2: int,
    tag: ByteString,
    pk: GroupParams,
) -> ByteString:
    """m_s: unmask both slots with x and keep the one ending in the tag."""
    x = retrieval_exponent(blind1, blind2, share2, pk)
    return _tag_match(res.pair, x, tag, pk)


def embedding_min_bits(pk: GroupParams, sigma_bits: int, lambda_bits: int) -> int:
    """Smallest homomorphic modulus length that fits every component."""
    return max(pk.P.bit_length(), sigma_bits + lambda_bits) + 8


def duqmr_r_setup(
    bits: int,
    rng: RandomSource,
    group: GroupParams | None = None,
    sigma_bits: int = 0,
    lambda_bits: int = 0,
    max_attempts: int | None = None,
) -> tuple[PaillierPublicKey, PaillierSecretKey]:
    """Receiver's homomorphic keypair, sized to embed every component.

    When the session context (group, sigma, lambda) is known the embedding
    bound is enforced here; bare calls just generate a key.
    """
    if group is not None:
        needed = embedding_min_bits(group, sigma_bits, lambda_bits)
        if bits <= needed:
            raise KeyTooSmall(
                f"{bits}-bit modulus cannot embed components, need > {needed}"
            )
    return kgen(bits, rng, max_attempts)


def duqmr_t_setup(
    z: int, v: int, pk_j: PaillierPublicKey, rng: RandomSource
) -> CompressVector:
    """Fresh encryptions of the one-hot vector with 1 at position v."""
    if not 0 <= v < z:
        raise IndexOutOfRange(f"index {v} outside [0, {z})")
    return CompressVector(
        entries=tuple(enc(pk_j, 1 if t == v else 0, rng) for t in range(z))
    )


def duqmr_s_gen_res_multi(
    db: MessageDatabase,
    pk: GroupParams,
    query: FinalQueryPair,
    tag: ByteString,
    rng: RandomSource,
) -> list[TaggedResponse]:
    """One independently masked and permuted tagged pair per entry, all
    against one pair of power functions built for z exponents each."""
    powers = query_powers(query, pk, uses=db.z)
    return [_mask_tagged_pair(m0, m1, pk, powers, tag, rng) for m0, m1 in db.pairs]


def _embed(component: int | ByteString, pk_j: PaillierPublicKey) -> int:
    value = (
        component
        if isinstance(component, int)
        else int.from_bytes(component, "big")
    )
    if value >= pk_j.n:
        raise EmbeddingOverflow("component does not fit below the modulus")
    return value


def duqmr_p1_filter(
    responses: list[TaggedResponse],
    w: CompressVector,
    pk_j: PaillierPublicKey,
) -> FilteredResponse:
    """Inner product of each pair component with the one-hot vector."""
    if len(responses) != len(w.entries):
        raise LengthMismatch(
            f"{len(responses)} responses against {len(w.entries)} selector entries"
        )
    sums = {}
    for i in (0, 1):
        for c in (0, 1):
            acc = None
            for t, resp in enumerate(responses):
                term = hscale(pk_j, w.entries[t], _embed(resp.pair[i][c], pk_j))
                acc = term if acc is None else hadd(pk_j, acc, term)
            sums[(i, c)] = acc
    return FilteredResponse(
        o00=sums[(0, 0)], o01=sums[(0, 1)], o10=sums[(1, 0)], o11=sums[(1, 1)]
    )


def duqmr_r_retrieve(
    filtered: FilteredResponse,
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
    for head_ct, body_ct in ((filtered.o00, filtered.o01), (filtered.o10, filtered.o11)):
        head = dec(sk_j, head_ct)
        body = dec(sk_j, body_ct)
        if not 1 <= head < pk.P or body >= 1 << (8 * mask_bytes):
            # garbage decryption (wrong key); this slot cannot be honest
            continue
        candidates.append((head, body.to_bytes(mask_bytes, "big")))
    x = retrieval_exponent(blind1, blind2, share2, pk)
    return _tag_match(tuple(candidates), x, tag, pk)
