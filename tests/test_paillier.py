"""Additive homomorphic encryption round trips and algebra."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit.errors import (
    IndexOutOfRange,
    MalformedCiphertext,
    PlaintextOutOfRange,
    ShapeMismatch,
)
from otkit.paillier import (
    dec,
    enc,
    hadd,
    hscale,
    kgen,
    one_hot,
    select,
)
from otkit.rng import SeededSource


class TestKeygen:
    def test_modulus_width_exact(self, paillier512):
        pk, sk = paillier512
        assert pk.bits() == 512
        assert pk.n_squared == pk.n * pk.n
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
            dec(sk, 0)
        with pytest.raises(MalformedCiphertext):
            dec(sk, pk.n)


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
        rows = [[rng.randbelow(1 << 64)] for _ in range(8)]
        for v in (0, 3, 7):
            selector = one_hot(pk, 8, v, rng)
            assert [dec(sk, ct) for ct in selector] == [int(i == v) for i in range(8)]
            assert [dec(sk, ct) for ct in select(pk, selector, rows)] == rows[v]

    def test_one_hot_encrypts_in_index_order(self, paillier512):
        pk, _ = paillier512
        rng = SeededSource(5)
        expected = tuple(enc(pk, int(i == 2), rng) for i in range(4))
        assert one_hot(pk, 4, 2, SeededSource(5)) == expected

    def test_select_is_the_weighted_sum(self, paillier512, rng):
        pk, sk = paillier512
        weights, rows = [3, 0, 5], [[7, 2], [11, 17], [13, 19]]
        selector = tuple(enc(pk, w, rng) for w in weights)
        assert [dec(sk, ct) for ct in select(pk, selector, rows)] == [
            3 * 7 + 5 * 13,
            3 * 2 + 5 * 19,
        ]

    @pytest.mark.parametrize("hot", [-1, 4])
    def test_one_hot_refuses_an_index_outside_the_size(self, paillier512, rng, hot):
        with pytest.raises(IndexOutOfRange):
            one_hot(paillier512[0], 4, hot, rng)

    @pytest.mark.parametrize("count", [0, 3])
    def test_select_refuses_a_row_count_off_the_selector(self, paillier512, rng, count):
        pk, _ = paillier512
        selector = one_hot(pk, 4, 1, rng)
        with pytest.raises(ShapeMismatch):
            select(pk, selector, [[5, 6]] * count)


class TestRandomization:
    def test_ciphertext_distinctness(self, paillier512):
        # 10^4 encryptions of the same plaintext must never collide; a
        # repeat would mean the blinding factor repeated
        pk, _ = paillier512
        rng = SeededSource(90210)
        seen = {enc(pk, 5, rng) for _ in range(10_000)}
        assert len(seen) == 10_000


@pytest.fixture(scope="module", params=[16, 64, 1152])
def crt_key(request):
    return kgen(request.param, SeededSource(request.param))


class TestCrt:
    """CRT decryption and the key constants against their textbook formulas."""

    @given(data=st.data())
    @settings(max_examples=100)
    def test_dec_matches_the_l_route(self, crt_key, data):
        pk, sk = crt_key
        n, n_sq = pk.n, pk.n_squared
        c = data.draw(st.integers(1, n_sq - 1).filter(lambda c: math.gcd(c, n) == 1))
        lam = math.lcm(sk.p - 1, sk.q - 1)
        mu = pow((pow(n + 1, lam, n_sq) - 1) // n, -1, n)
        expected = (pow(c, lam, n_sq) - 1) // n * mu % n
        assert dec(sk, c) == expected

    def test_constants_match_their_exponentiation_formulas(self, crt_key):
        pk, sk = crt_key
        p, q, n = sk.p, sk.q, pk.n
        assert p * q == n and p != q
        L = lambda u, d: (u - 1) // d  # noqa: E731
        assert sk.h_p == pow(L(pow(n + 1, p - 1, p * p), p), -1, p)
        assert sk.h_q == pow(L(pow(n + 1, q - 1, q * q), q), -1, q)

    def test_round_trip_at_the_edges(self, crt_key, rng):
        pk, sk = crt_key
        for m in (0, 1, 2, pk.n - 2, pk.n - 1, sk.p, sk.q):
            assert dec(sk, enc(pk, m, rng)) == m
