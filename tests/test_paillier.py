"""Additive homomorphic encryption round trips and algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit.errors import MalformedCiphertext, PlaintextOutOfRange
from otkit.paillier import (
    HomCiphertext,
    dec,
    enc,
    hadd,
    hscale,
    kgen,
)
from otkit.rng import SeededSource


class TestKeygen:
    def test_modulus_width_exact(self, paillier512):
        pk, sk = paillier512
        assert pk.bits() == 512
        assert pk.n_squared == pk.n * pk.n
        assert pk.generator == pk.n + 1
        assert sk.pk is pk

    def test_tiny_modulus_rejected(self, rng):
        with pytest.raises(ValueError):
            kgen(8, rng)

    def test_keys_differ_by_seed(self):
        pk_a, _ = kgen(128, SeededSource(1))
        pk_b, _ = kgen(128, SeededSource(2))
        assert pk_a.n != pk_b.n


class TestRoundTrip:
    @given(m=st.integers(min_value=0), seed=st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_enc_dec_identity(self, m, seed, paillier512):
        pk, sk = paillier512
        m %= pk.n
        assert dec(sk, enc(pk, m, SeededSource(seed))) == m

    def test_out_of_range_plaintexts(self, paillier512, rng):
        pk, _ = paillier512
        with pytest.raises(PlaintextOutOfRange):
            enc(pk, pk.n, rng)
        with pytest.raises(PlaintextOutOfRange):
            enc(pk, -1, rng)

    def test_noninvertible_ciphertext_rejected(self, paillier512):
        pk, sk = paillier512
        with pytest.raises(MalformedCiphertext):
            dec(sk, HomCiphertext(value=0))
        with pytest.raises(MalformedCiphertext):
            dec(sk, HomCiphertext(value=pk.n))


class TestHomomorphism:
    @given(
        m1=st.integers(min_value=0),
        m2=st.integers(min_value=0),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=100)
    def test_additive(self, m1, m2, seed, paillier512):
        pk, sk = paillier512
        rng = SeededSource(seed)
        m1, m2 = m1 % pk.n, m2 % pk.n
        total = hadd(pk, enc(pk, m1, rng), enc(pk, m2, rng))
        assert dec(sk, total) == (m1 + m2) % pk.n

    @given(
        m=st.integers(min_value=0),
        k=st.integers(min_value=0, max_value=1 << 128),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=100)
    def test_scalar(self, m, k, seed, paillier512):
        pk, sk = paillier512
        rng = SeededSource(seed)
        m %= pk.n
        assert dec(sk, hscale(pk, enc(pk, m, rng), k)) == (m * k) % pk.n

    def test_selector_inner_product(self, paillier512, rng):
        pk, sk = paillier512
        values = [rng.randbelow(1 << 64) for _ in range(8)]
        for v in (0, 3, 7):
            one_hot = [enc(pk, 1 if i == v else 0, rng) for i in range(8)]
            acc = None
            for ct, val in zip(one_hot, values):
                term = hscale(pk, ct, val)
                acc = term if acc is None else hadd(pk, acc, term)
            assert dec(sk, acc) == values[v]


class TestRandomization:
    def test_ciphertext_distinctness(self, paillier512):
        # 10^4 encryptions of the same plaintext must never collide; a
        # repeat would mean the blinding factor repeated
        pk, _ = paillier512
        rng = SeededSource(90210)
        seen = {enc(pk, 5, rng).value for _ in range(10_000)}
        assert len(seen) == 10_000
