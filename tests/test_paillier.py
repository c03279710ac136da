"""Additive homomorphic encryption round trips and algebra."""

import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit import numth, paillier
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
        assert pk.n.bit_length() == 512
        assert pk.n_squared == pk.n * pk.n
        assert sk.pk is pk

    def test_tiny_modulus_rejected(self, rng):
        with pytest.raises(ValueError):
            kgen(8, rng)

    def test_keys_differ_by_seed(self):
        pk_a, _ = kgen(128, SeededSource(1))
        pk_b, _ = kgen(128, SeededSource(2))
        assert pk_a.n != pk_b.n


def _kgen_certifying_every_prime(bits, rng):
    """kgen as it was before primes were pretested: each prime certified with
    all 64 rounds as it is found, both drawn again when p = r or n is short."""
    while True:
        p, r = numth.gen_prime(bits // 2, rng), numth.gen_prime(bits - bits // 2, rng)
        if p != r and (p * r).bit_length() == bits:
            return p * r, p, r


class TestDeferredCertification:
    """kgen pretests candidates with a few Miller-Rabin rounds and certifies
    only the pair it keeps; the bases are a prefix of the 64-round test's, so
    it finds the keys that certifying every prime finds."""

    @pytest.mark.parametrize("bits,seeds", [
        (16, 10), (64, 10), (512, 10), (640, 10), (1024, 10), (1152, 40)
    ])
    def test_same_keys_and_rng_state_as_certifying_every_prime(self, bits, seeds):
        for seed in range(seeds):
            rng, ref_rng = SeededSource(seed), SeededSource(seed)
            pk, sk = kgen(bits, rng)
            assert (pk.n, sk.p, sk.q) == _kgen_certifying_every_prime(bits, ref_rng)
            assert rng.randbytes(16) == ref_rng.randbytes(16)

    def test_a_pair_that_fails_certification_is_dropped(self, monkeypatch):
        # the pretest admits the first composite it sees; seed 1 pairs it
        # with a prime into an n of full length, so only certification stops it
        # certification resumes at round PRETEST_ROUNDS of the same test
        backend, admitted, refused = numth._miller_rabin, [], []

        def lenient(n, rounds, start=0):
            prime = backend(n, rounds, start)
            if rounds == numth.PRETEST_ROUNDS and not prime and not admitted:
                assert start == 0
                admitted.append(n)
                return True
            if rounds == numth.MR_ROUNDS and not prime:
                assert start == numth.PRETEST_ROUNDS
                refused.append(n)
            return prime

        monkeypatch.setattr(numth, "_miller_rabin", lenient)
        pk, sk = kgen(512, SeededSource(1))
        monkeypatch.undo()
        assert len(admitted) == 1 and refused == admitted
        assert pk.n.bit_length() == 512 and sk.p * sk.q == pk.n
        assert numth.is_probable_prime(sk.p) and numth.is_probable_prime(sk.q)


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

    def test_ciphertext_over_modulus_rejected(self, paillier512, rng):
        # c + k * n^2 is invertible mod n, and decrypts as c would
        pk, sk = paillier512
        c = enc(pk, 42, rng)
        assert dec(sk, c) == 42
        for bad in (c + pk.n_squared, c + (pk.n_squared << 4096)):
            with pytest.raises(MalformedCiphertext):
                dec(sk, bad)


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

    @pytest.mark.parametrize("entry", [
        lambda sk: 0, lambda sk: sk.pk.n_squared, lambda sk: 1 << 4096,
        lambda sk: sk.pk.n, lambda sk: sk.p * 7,
    ], ids=["zero", "n-squared", "over-modulus", "n", "multiple-of-p"])
    def test_select_refuses_a_bad_entry_before_scaling(
        self, paillier512, rng, monkeypatch, entry
    ):
        pk, sk = paillier512
        selector = (*one_hot(pk, 2, 1, rng), entry(sk))
        monkeypatch.setattr(paillier, "hscale", lambda *args: pytest.fail("scaled"))
        with pytest.raises(MalformedCiphertext):
            select(pk, selector, [[5, 6]] * 3)


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


@lru_cache
def _key(bits):
    return kgen(bits, SeededSource(bits))


@pytest.fixture(scope="module", params=[16, 64, 512, 640, 1024, 1152])
def select_key(request):
    return _key(request.param)


def _reference(pk, selector, rows):
    """select by pow() and products alone."""
    n_sq = pk.n_squared
    return tuple(
        math.prod(pow(c, k, n_sq) for c, k in zip(selector, column)) % n_sq
        for column in zip(*rows)
    )


class _Blind:
    """A random source whose every draw below a bound is rho - 1, so enc
    blinds with rho."""

    def __init__(self, rho):
        self.rho = rho

    def randbelow(self, bound):
        return self.rho - 1


class TestCrtEncryption:
    """The key holder's enc raises rho to n mod p^2 and mod q^2 and joins
    the two: the ciphertext the public key gives, from the same draws."""

    def test_matches_the_public_key(self, select_key):
        pk, sk = select_key
        for m in (0, 1, pk.n - 1):
            rng, pk_rng = SeededSource(m % 997), SeededSource(m % 997)
            assert enc(sk, m, rng) == enc(pk, m, pk_rng)
            assert rng.randbytes(16) == pk_rng.randbytes(16)
        assert one_hot(sk, 3, 1, SeededSource(4)) == one_hot(pk, 3, 1, SeededSource(4))
        n, n_sq = pk.n, pk.n_squared
        for rho in (1, 2, n - 1):
            for m in (0, 1, n - 1):
                expected = (1 + n * m) * pow(rho, n, n_sq) % n_sq
                assert enc(sk, m, _Blind(rho)) == enc(pk, m, _Blind(rho)) == expected

    def test_powers_are_half_size(self, select_key, monkeypatch):
        # each half raises rho to q mod p - 1 mod p, then that to p mod p^2
        pk, sk = select_key
        p, q = sk.p, sk.q
        calls = []
        monkeypatch.setattr(paillier, "powmod",
                            lambda *args: calls.append(args[1:]) or pow(*args))
        enc(sk, 5, SeededSource(6))
        assert calls == [(q % (p - 1), p), (p, p * p), (p % (q - 1), q), (q, q * q)]
        assert max(e.bit_length() for e, _ in calls) <= (pk.n.bit_length() + 1) // 2


class TestSelectComb:
    """select scales each selector entry by one powmod per exponent mod
    n^2; its ciphertexts must equal pow() and products exactly."""

    def test_edges_and_mixed_rows(self, select_key, rng):
        pk, _ = select_key
        n = pk.n
        r = random.Random(n.bit_length())
        short = n.bit_length() // 4 + 1
        selector = tuple(enc(pk, r.randrange(n), rng) for _ in range(4))
        rows = [
            [0, 1, n - 1, n - 1],
            [n - 1, r.getrandbits(short), r.randrange(n), r.getrandbits(short)],
            [r.randrange(n), 0, r.randrange(n), 1],
            [r.getrandbits(short), r.getrandbits(short), n - 1, 0],
        ]
        assert select(pk, selector, rows) == _reference(pk, selector, rows)

    def test_comb_seams(self, select_key, rng):
        # each row holds n - 1 twice, 1, and one exponent at a byte seam of
        # the kernel's conversion, a power of two and one either side
        pk, _ = select_key
        n, n_sq = pk.n, pk.n_squared
        bits = (n - 1).bit_length()
        c = enc(pk, n // 3, rng)
        top = pow(c, n - 1, n_sq)
        seams = [(1 << k) + d for k in range(8, bits, 8) for d in (-1, 0, 1)]
        for e in seams[:6] + seams[len(seams) // 2:][:3] + seams[-3:]:
            assert select(pk, (c,), [[e, n - 1, n - 1, 1]]) == (pow(c, e, n_sq), top, top, c)


class TestSelectPowers:
    """Every scaling of a select is one hscale call, and every hscale call
    one powmod call mod n^2: a duq-mr-shaped selection at 1152 bits (two
    ~1024-bit heads and two 256-bit bodies per row) and a comp-np-shaped
    one (1032- and 133-bit exponents) alike."""

    def test_powmod_calls(self, monkeypatch):
        pk, _ = _key(1152)
        rng, r = SeededSource(3), random.Random(3)
        duq_sel, comp_sel = one_hot(pk, 4, 1, rng), one_hot(pk, 2, 0, rng)
        head, body = lambda: r.getrandbits(1024), lambda: r.getrandbits(256)
        duq_rows = [[head(), body(), head(), body()] for _ in duq_sel]
        comp_rows = [[r.getrandbits(1032), r.getrandbits(133)] for _ in comp_sel]
        scaled, calls = [], []
        hscale = paillier.hscale
        monkeypatch.setattr(paillier, "hscale",
                            lambda *args: scaled.append(args[1:]) or hscale(*args))
        monkeypatch.setattr(paillier, "powmod", lambda *args: calls.append(args) or pow(*args))
        for selector, rows in ((duq_sel, duq_rows), (comp_sel, comp_rows)):
            scaled.clear()
            calls.clear()
            assert select(pk, selector, rows) == _reference(pk, selector, rows)
            expected = [(c, k) for c, row in zip(selector, rows) for k in row]
            assert scaled == expected
            assert calls == [(c, k, pk.n_squared) for c, k in expected]
