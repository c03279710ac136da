"""Issuer-driven OT: tags, tag matching, homomorphic compression."""

import pytest

from otkit.base_ot import NpResponse
from otkit.dq_family import DelegationRequest, dq_p1_gen_query, dq_p2_gen_query
from otkit.dq_family import FinalQueryPair, MessageDatabase
from otkit.duq_family import (
    duq_r_request,
    duq_r_retrieve,
    duq_s_gen_res,
    duq_t_request,
    duqmr_p1_filter,
    duqmr_r_retrieve,
    duqmr_r_setup,
    duqmr_s_gen_res_multi,
    duqmr_t_setup,
    embedding_min_bits,
)
from otkit.errors import (
    AmbiguousTag,
    IndexOutOfRange,
    KeyTooSmall,
    LengthMismatch,
    NoTagMatch,
    ShapeMismatch,
    UsageError,
)
from otkit.groupmath import elem_mul, elem_to_bytes
from otkit.paillier import dec, kgen
from otkit.primitives import hash_G, xor_bytes
from otkit.rng import SeededSource


def _assemble(pk, share1, share2, blind1, blind2):
    partial = dq_p2_gen_query(DelegationRequest(share=share2, blind=blind2), pk)
    return dq_p1_gen_query(DelegationRequest(share=share1, blind=blind1), partial, pk)


class TestIssuer:
    def test_bundle_shape(self, rng):
        for s in (0, 1):
            bundle = duq_t_request(s, 128, rng)
            assert bundle.share1 ^ bundle.share2 == s
            assert len(bundle.tag) == 16

    def test_choice_bit_checked(self, rng):
        with pytest.raises(UsageError):
            duq_t_request(2, 128, rng)

    def test_tag_width_checked(self, rng):
        with pytest.raises(UsageError):
            duq_t_request(0, 12, rng)

    def test_tags_fresh_per_call(self):
        tags = {duq_t_request(0, 64, SeededSource(i)).tag for i in range(50)}
        assert len(tags) == 50


class TestTaggedTransfer:
    @pytest.mark.parametrize("s1", [0, 1])
    @pytest.mark.parametrize("s2", [0, 1])
    def test_all_share_cells(self, group512, rng, s1, s2):
        m0, m1 = b"\x21" * 8, b"\xde" * 8
        tag = rng.randbytes(16)
        blind1, blind2 = duq_r_request(group512, rng)
        final = _assemble(group512, s1, s2, blind1, blind2)
        res = duq_s_gen_res(m0, m1, group512, final, tag, rng)
        got = duq_r_retrieve(res, blind1, blind2, s2, tag, group512)
        assert got == (m0, m1)[s1 ^ s2]

    def test_issuer_round_trip(self, group512, rng):
        for s in (0, 1):
            bundle = duq_t_request(s, 128, rng)
            m0, m1 = rng.randbytes(16), rng.randbytes(16)
            blind1, blind2 = duq_r_request(group512, rng)
            final = _assemble(group512, bundle.share1, bundle.share2, blind1, blind2)
            res = duq_s_gen_res(m0, m1, group512, final, bundle.tag, rng)
            got = duq_r_retrieve(
                res, blind1, blind2, bundle.share2, bundle.tag, group512
            )
            assert got == (m0, m1)[s]

    def test_pair_order_varies(self, group512):
        # the permutation sometimes leaves the tagged slot first, sometimes second
        tag = b"\x5a" * 8
        first_hits = 0
        for seed in range(40):
            rng = SeededSource(seed)
            blind1, blind2 = duq_r_request(group512, rng)
            final = _assemble(group512, 0, 0, blind1, blind2)
            res = duq_s_gen_res(b"\x01" * 4, b"\x02" * 4, group512, final, tag, rng)
            try:
                one_slot = duq_r_retrieve(
                    NpResponse(res.e0, (1, b"")),
                    blind1,
                    blind2,
                    0,
                    tag,
                    group512,
                )
                first_hits += 1 if one_slot == b"\x01" * 4 else 0
            except NoTagMatch:
                pass
        assert 0 < first_hits < 40

    def test_length_mismatch(self, group512, rng):
        final = _assemble(group512, 0, 0, 5, 6)
        with pytest.raises(LengthMismatch):
            duq_s_gen_res(b"\x01", b"\x02\x03", group512, final, b"\xaa" * 8, rng)

    def test_wrong_tag_rejected(self, group512, rng):
        tag = rng.randbytes(16)
        blind1, blind2 = duq_r_request(group512, rng)
        final = _assemble(group512, 1, 0, blind1, blind2)
        res = duq_s_gen_res(b"\x0f" * 8, b"\xf0" * 8, group512, final, tag, rng)
        flipped = bytes([tag[0] ^ 0x01]) + tag[1:]
        with pytest.raises(NoTagMatch):
            duq_r_retrieve(res, blind1, blind2, 0, flipped, group512)

    def test_short_bodies_cannot_match(self, group512):
        res = NpResponse((1, b""), (1, b"\x00"))
        with pytest.raises(NoTagMatch):
            duq_r_retrieve(res, 3, 4, 0, b"\xaa" * 16, group512)

    def test_double_match_is_ambiguous(self, group512):
        # heads of 1 make the pad independent of the exponent, so a forged
        # pair can carry the tag in both slots; retrieval must refuse to guess
        tag = b"\x77" * 8
        pad = hash_G(elem_to_bytes(1, group512), 96)
        forged = tuple(
            (1, xor_bytes(pad, m + tag)) for m in (b"\x01\x02\x03\x04", b"\x05\x06\x07\x08")
        )
        with pytest.raises(AmbiguousTag):
            duq_r_retrieve(NpResponse(*forged), 3, 4, 0, tag, group512)


class TestEmbeddingBounds:
    def test_min_bits_formula(self, toy, group512):
        assert embedding_min_bits(toy, 64, 64) == 136
        assert embedding_min_bits(toy, 0, 0) == toy.P.bit_length() + 8
        assert embedding_min_bits(group512, 64, 64) == 521

    def test_setup_rejects_small_key(self, group512, rng):
        with pytest.raises(KeyTooSmall):
            duqmr_r_setup(512, rng, group=group512, sigma_bits=64, lambda_bits=64)

    def test_setup_sized_generates(self, toy, rng):
        pk_j, _ = duqmr_r_setup(160, rng, group=toy, sigma_bits=64, lambda_bits=64)
        assert pk_j.n.bit_length() == 160


class TestCompression:
    def test_selector_is_one_hot(self, paillier512, rng):
        pk_j, sk_j = paillier512
        w = duqmr_t_setup(5, 2, pk_j, rng)
        assert [dec(sk_j, ct) for ct in w] == [0, 0, 1, 0, 0]

    @pytest.mark.parametrize("v", [-1, 5])
    def test_selector_index_checked(self, paillier512, rng, v):
        with pytest.raises(IndexOutOfRange):
            duqmr_t_setup(5, v, paillier512[0], rng)

    def test_filter_length_checked(self, group512, paillier640, rng):
        db = MessageDatabase(pairs=tuple((b"\x01", b"\x02") for _ in range(3)))
        final = _assemble(group512, 0, 0, 5, 6)
        responses = duqmr_s_gen_res_multi(db, group512, final, b"\xaa" * 2, rng)
        w = duqmr_t_setup(2, 1, paillier640[0], rng)
        with pytest.raises(ShapeMismatch):
            duqmr_p1_filter(responses, w, paillier640[0])

    def test_oversized_component_rejected(self, group512, rng):
        # a 16-bit homomorphic modulus cannot hold 513-bit group elements;
        # duqmr_r_setup sizes the key, so at P1 only a peer can cause this
        tiny_pk, _ = kgen(16, SeededSource(5))
        db = MessageDatabase(pairs=((b"\x01", b"\x02"),))
        final = _assemble(group512, 0, 0, 5, 6)
        responses = duqmr_s_gen_res_multi(db, group512, final, b"\xbb" * 2, rng)
        w = duqmr_t_setup(1, 0, tiny_pk, rng)
        with pytest.raises(ShapeMismatch):
            duqmr_p1_filter(responses, w, tiny_pk)

    @pytest.mark.parametrize("s1", [0, 1])
    @pytest.mark.parametrize("s2", [0, 1])
    def test_compressed_round_trip(self, group512, paillier640, rng, s1, s2):
        pk_j, sk_j = paillier640
        db = MessageDatabase(
            pairs=tuple((bytes([t]) * 4, bytes([160 + t]) * 4) for t in range(3))
        )
        tag = rng.randbytes(4)
        blind1, blind2 = duq_r_request(group512, rng)
        final = _assemble(group512, s1, s2, blind1, blind2)
        responses = duqmr_s_gen_res_multi(db, group512, final, tag, rng)
        s = s1 ^ s2
        for v in range(db.z):
            w = duqmr_t_setup(db.z, v, pk_j, rng)
            filtered = duqmr_p1_filter(responses, w, pk_j)
            got = duqmr_r_retrieve(
                filtered, sk_j, blind1, blind2, s2, tag, 32, group512
            )
            assert got == db.pairs[v][s]

    def test_tampered_tag_rejected_after_compression(
        self, group512, paillier640, rng
    ):
        pk_j, sk_j = paillier640
        db = MessageDatabase(pairs=((b"\x31" * 4, b"\x32" * 4),))
        tag = rng.randbytes(4)
        blind1, blind2 = duq_r_request(group512, rng)
        final = _assemble(group512, 1, 1, blind1, blind2)
        responses = duqmr_s_gen_res_multi(db, group512, final, tag, rng)
        filtered = duqmr_p1_filter(responses, duqmr_t_setup(1, 0, pk_j, rng), pk_j)
        flipped = bytes([tag[0] ^ 0x01]) + tag[1:]
        with pytest.raises(NoTagMatch):
            duqmr_r_retrieve(
                filtered, sk_j, blind1, blind2, 1, flipped, 32, group512
            )
