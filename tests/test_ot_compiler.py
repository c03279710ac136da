"""Response compiler: embedding codec, equivalence, constant size."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit import paillier
from otkit.base_ot import np_gen_query, np_gen_res, np_retrieve, np_suite
from otkit.errors import (
    DecodeError,
    EmbeddingOverflow,
    IndexOutOfRange,
    KeyTooSmall,
    ShapeMismatch,
)
from otkit.harness import _CODECS, MsgType, SessionConfig, run_session
from otkit.ot_compiler import (
    HEADER_BYTES,
    comp_gen_query,
    comp_gen_res,
    comp_retrieve,
    embed_component,
    unembed_component,
)
from otkit.rng import SeededSource

ENCODE, DECODE = _CODECS[MsgType.COMPRESSED_RESPONSE]


class TestEmbedding:
    @given(payload=st.binary(min_size=0, max_size=64))
    @settings(max_examples=200)
    def test_bytes_round_trip(self, payload, paillier1024):
        pk, _ = paillier1024
        assert unembed_component(embed_component(payload, pk), "mask") == payload

    @given(value=st.integers(min_value=0, max_value=1 << 512))
    @settings(max_examples=200)
    def test_int_round_trip(self, value, paillier1024):
        pk, _ = paillier1024
        assert unembed_component(embed_component(value, pk), "elem") == value

    def test_empty_component(self, paillier512):
        pk, _ = paillier512
        assert embed_component(b"", pk) == 0
        assert unembed_component(0, "mask") == b""
        assert unembed_component(0, "elem") == 0

    def test_zero_int_is_empty_payload(self, paillier512):
        # 0 has no magnitude bytes, so it embeds exactly like b""
        pk, _ = paillier512
        assert embed_component(0, pk) == embed_component(b"", pk)

    def test_leading_zero_bytes_survive(self, paillier512):
        # the header is what keeps 00 01 distinct from 01
        pk, _ = paillier512
        assert unembed_component(embed_component(b"\x00\x01", pk), "mask") == b"\x00\x01"
        assert unembed_component(embed_component(b"\x01", pk), "mask") == b"\x01"

    def test_component_wider_than_modulus(self, paillier512):
        pk, _ = paillier512
        with pytest.raises(EmbeddingOverflow):
            embed_component(b"\xff" * 64, pk)

    def test_component_longer_than_header(self, paillier512):
        pk, _ = paillier512
        with pytest.raises(EmbeddingOverflow):
            embed_component(b"\x00" * (1 << (8 * HEADER_BYTES)), pk)

    def test_headerless_value_rejected(self):
        # 0x01 || 8 payload bytes claims length 1; no candidate width matches
        bad = int.from_bytes(b"\x01" + b"\xee" * 8, "big")
        with pytest.raises(DecodeError):
            unembed_component(bad, "mask")


class TestCompiledSession:
    def _run(self, pk_base, paillier, n, s, seed, sigma=8):
        suite = np_suite()
        pk_R, sk_R = paillier
        rng = SeededSource(seed)
        msgs = [bytes([40 + i]) * sigma for i in range(n)]
        q, secret, selector = comp_gen_query(suite, pk_base, n, s, pk_R, rng)
        compressed = comp_gen_res(suite, msgs, pk_base, q, selector, pk_R, rng)
        got = comp_retrieve(suite, compressed, sk_R, secret, pk_base)
        return msgs, compressed, got

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_round_trip_all_choices(self, toy, paillier512, n):
        for s in range(n):
            msgs, _, got = self._run(toy, paillier512, n, s, seed=30 + s)
            assert got == msgs[s]

    def test_round_trip_512_group(self, group512, paillier1024):
        msgs, _, got = self._run(group512, paillier1024, 4, 2, seed=77, sigma=16)
        assert got == msgs[2]

    def test_matches_plain_ot(self, toy, paillier512):
        # same seed: the compiled query equals the plain query, and the
        # compiled retrieval equals the plain retrieval for both choices
        suite = np_suite()
        pk_R, sk_R = paillier512
        msgs = [b"\x61" * 6, b"\x62" * 6]
        for s in (0, 1):
            q_c, sec_c, selector = comp_gen_query(
                suite, toy, 2, s, pk_R, SeededSource(9)
            )
            q_p, sec_p = np_gen_query(toy, s, SeededSource(9))
            assert q_c == q_p and sec_c == sec_p
            compressed = comp_gen_res(
                suite, msgs, toy, q_c, selector, pk_R, SeededSource(10)
            )
            plain = np_gen_res(msgs[0], msgs[1], toy, q_p, SeededSource(10))
            got_c = comp_retrieve(suite, compressed, sk_R, sec_c, toy)
            assert got_c == np_retrieve(plain, sec_p, toy, 48) == msgs[s]

    def test_choice_out_of_range(self, toy, paillier512, rng):
        with pytest.raises(IndexOutOfRange):
            comp_gen_query(np_suite(), toy, 4, 4, paillier512[0], rng)

    def test_key_size_guard(self, group512, paillier512, rng):
        # 513-bit components need headroom past a 512-bit modulus
        with pytest.raises(KeyTooSmall):
            comp_gen_query(
                np_suite(),
                group512,
                2,
                0,
                paillier512[0],
                rng,
                component_bits=group512.P.bit_length(),
            )

    def test_key_size_guard_passes_when_wide(self, group512, paillier1024, rng):
        comp_gen_query(
            np_suite(),
            group512,
            2,
            0,
            paillier1024[0],
            rng,
            component_bits=group512.P.bit_length(),
        )

    def test_selector_arity_checked(self, toy, paillier512, rng):
        suite = np_suite()
        q, _, selector = comp_gen_query(suite, toy, 3, 1, paillier512[0], rng)
        with pytest.raises(ShapeMismatch):
            comp_gen_res(
                suite, [b"\x01", b"\x02"], toy, q, selector, paillier512[0], rng
            )


class TestConstantSize:
    def test_length_blind_to_message_count(self, toy, paillier512, rng):
        suite = np_suite()
        pk_R, _ = paillier512
        sizes = set()
        for n in (2, 4, 8, 16):
            msgs = [bytes([i]) * 8 for i in range(n)]
            q, _, selector = comp_gen_query(suite, toy, n, 0, pk_R, rng)
            compressed = comp_gen_res(suite, msgs, toy, q, selector, pk_R, rng)
            sizes.add(len(ENCODE((compressed, pk_R))))
        assert len(sizes) == 1

    def test_component_count_is_suite_arity(self, toy, paillier512, rng):
        suite = np_suite()
        pk_R, _ = paillier512
        q, _, selector = comp_gen_query(suite, toy, 8, 3, pk_R, rng)
        compressed = comp_gen_res(
            suite, [bytes([i]) for i in range(8)], toy, q, selector, pk_R, rng
        )
        assert len(compressed) == len(suite.component_kinds)

    def test_encode_round_trip(self, toy, paillier512, rng):
        suite = np_suite()
        pk_R, _ = paillier512
        q, _, selector = comp_gen_query(suite, toy, 4, 1, pk_R, rng)
        compressed = comp_gen_res(
            suite, [bytes([i]) * 4 for i in range(4)], toy, q, selector, pk_R, rng
        )
        wire = ENCODE((compressed, pk_R))
        assert DECODE(wire) == compressed


class TestOperationCounts:
    def test_comp_np_paillier_operations_per_session(self, count_calls):
        # one key, the two-entry selector, and one two-term inner product
        # and one decryption per response component
        counts = count_calls(*(getattr(paillier, op) for op in
                               ("kgen", "enc", "hscale", "hadd", "dec")))
        cfg = SessionConfig(protocol="comp-np", sigma_bits=64, toy=True, seed=5, s=1,
                            m0=b"\x0a" * 8, m1=b"\xf5" * 8)
        assert run_session(cfg).outputs == {"RECEIVER": b"\xf5" * 8}
        assert counts == {"kgen": 1, "enc": 2, "hscale": 4, "hadd": 2, "dec": 2}
