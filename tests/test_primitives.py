"""Shared protocol building blocks: shares, swaps, hashes, parsing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit.errors import InputTooShort, LengthMismatch, UsageError
from otkit.primitives import (
    controlled_swap,
    hash_G,
    hash_H,
    parse,
    random_permute_pair,
    ss_share,
    xor_bytes,
)
from otkit.rng import SeededSource

N_SAMPLES = 10_000
# binomial(n, 1/2): mean n/2, sigma = sqrt(n)/2; the smoke bound is 5 sigma
FIVE_SIGMA = int(5 * (N_SAMPLES ** 0.5) / 2)


class TestSecretSharing:
    @given(s=st.integers(min_value=0, max_value=1), seed=st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_round_trip(self, s, seed):
        s1, s2 = ss_share(s, SeededSource(seed))
        assert s1 in (0, 1) and s2 in (0, 1)
        assert s1 ^ s2 == s

    def test_bad_bit_rejected(self, rng):
        with pytest.raises(UsageError):
            ss_share(2, rng)

    def test_share_bit_frequency(self):
        rng = SeededSource(31337)
        ones = sum(ss_share(1, rng)[0] for _ in range(N_SAMPLES))
        assert abs(ones - N_SAMPLES // 2) <= FIVE_SIGMA


class TestSwaps:
    def test_controlled_swap_truth_table(self):
        assert controlled_swap(0, ("a", "b")) == ("a", "b")
        assert controlled_swap(1, ("a", "b")) == ("b", "a")

    def test_permutation_is_involution_aware(self, rng):
        pair = (b"x", b"y")
        for _ in range(50):
            out = random_permute_pair(pair, rng)
            assert out in (pair, (pair[1], pair[0]))

    def test_permutation_coin_frequency(self):
        rng = SeededSource(424242)
        pair = (0, 1)
        swapped = sum(
            random_permute_pair(pair, rng)[0] for _ in range(N_SAMPLES)
        )
        assert abs(swapped - N_SAMPLES // 2) <= FIVE_SIGMA


class TestHashes:
    def test_h_golden_vectors(self):
        assert hash_H(b"", 128).hex() == "fd3d47ec252afaf37ee08bdd346a40bf"
        assert hash_H(b"abc", 128).hex() == "dbda5465a702a0c250a6f42638b57ee2"
        assert hash_H(b"abc", 64).hex() == "dbda5465a702a0c2"

    def test_g_golden_vectors(self):
        assert hash_G(b"", 128).hex() == "a01dc253b94528539c20cf5dfefcab12"
        assert (
            hash_G(b"abc", 256).hex()
            == "21840d22388e2be3b6b060cd88a7b89335f303ade987341f1593ce2bc8a577f6"
        )

    def test_domains_differ(self):
        # same data, same width, different oracle
        assert hash_H(b"abc", 128) != hash_G(b"abc", 128)

    @given(data=st.binary(max_size=64))
    @settings(max_examples=100)
    def test_widths(self, data):
        assert len(hash_H(data, 128)) == 16
        assert len(hash_G(data, 192)) == 24


class TestParse:
    def test_frozen_splits(self):
        assert parse(8, bytes.fromhex("abcd")) == (b"\xab", b"\xcd")
        assert parse(16, bytes.fromhex("010203")) == (b"\x01", b"\x02\x03")

    def test_whole_string_as_trailer(self):
        assert parse(16, bytes.fromhex("beef")) == (b"", b"\xbe\xef")

    def test_too_short(self):
        with pytest.raises(InputTooShort):
            parse(24, b"\x00\x01")

    @given(head=st.binary(max_size=32), tail=st.binary(min_size=1, max_size=32))
    @settings(max_examples=200)
    def test_concat_round_trip(self, head, tail):
        assert parse(8 * len(tail), head + tail) == (head, tail)


class TestXor:
    @given(a=st.binary(min_size=0, max_size=128))
    @settings(max_examples=100)
    def test_self_inverse(self, a):
        b = bytes(reversed(a))
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            xor_bytes(b"ab", b"abc")
        with pytest.raises(LengthMismatch):
            xor_bytes(b"", b"a")

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 65536])
    def test_matches_bytewise_reference(self, n):
        rnd = random.Random(n)
        a, b = rnd.randbytes(n), rnd.randbytes(n)
        zeros, ones = bytes(n), b"\xff" * n
        for x, y in ((a, b), (a, a), (zeros, b), (a, ones), (zeros, zeros)):
            assert xor_bytes(x, y) == bytes(u ^ v for u, v in zip(x, y))
