"""Primality: trial division by two gcds and certification that resumes
after the pretest, each against the loop or the test it stands in for."""

import random

import pytest

from otkit import numth
from otkit.numth import MR_ROUNDS, PRETEST_ROUNDS, SMALL_PRIMES, certify, is_probable_prime
from otkit.paillier import kgen
from otkit.rng import SeededSource

MILLER_RABIN = object()  # what a stub _miller_rabin returns: n got past trial division


def _loop_verdict(n):
    """Trial division as a loop over the 1229 primes below 10 000."""
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return MILLER_RABIN


def _prime_by_division(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


@pytest.fixture
def trial_division(monkeypatch):
    """is_probable_prime with Miller-Rabin stubbed out, so its verdict is
    trial division's alone."""
    monkeypatch.setattr(numth, "_miller_rabin", lambda n, rounds, start=0: MILLER_RABIN)
    return is_probable_prime


class TestTrialDivision:
    def test_every_n_below_2_to_the_17(self, trial_division):
        for n in range(1 << 17):
            assert trial_division(n) is _loop_verdict(n), n

    def test_negative_n(self, trial_division):
        for n in (-1, -2, -3, -9973, -(1 << 600)):
            assert trial_division(n) is False

    def test_random_odd_576_bit(self, trial_division):
        r = random.Random(576)
        for _ in range(20_000):
            n = r.getrandbits(576) | 1 << 575 | 1
            assert trial_division(n) is _loop_verdict(n), n

    def test_carmichael_numbers(self, trial_division):
        for n in (561, 41041, 825265, 321197185):
            assert trial_division(n) is _loop_verdict(n) is False

    def test_carmichael_numbers_are_composite(self):
        for n in (561, 41041, 825265, 321197185):
            assert not is_probable_prime(n)

    def test_products_of_two_primes_above_the_table(self, trial_division):
        r = random.Random(20)
        primes = [p for p in (r.randrange(10_001, 1 << 20) | 1 for _ in range(400))
                  if _prime_by_division(p)][:40]
        assert len(primes) == 40
        for i, p in enumerate(primes):
            for q in primes[i:]:
                assert trial_division(p * q) is _loop_verdict(p * q) is MILLER_RABIN


class TestResumedCertification:
    """certify runs rounds PRETEST_ROUNDS.. of the 64-round test, with no
    second trial division: on an n that passed the pretest it gives
    is_probable_prime's verdict."""

    @pytest.mark.parametrize("bits", [16, 64, 512, 640, 1024, 1152])
    def test_kept_primes(self, bits):
        _, sk = kgen(bits, SeededSource(bits))
        for p in (sk.p, sk.q):
            assert is_probable_prime(p, PRETEST_ROUNDS)
            assert certify(p) is is_probable_prime(p) is True

    def test_the_composite_the_lenient_pretest_admits(self, monkeypatch):
        # the first composite kgen(512, seed 1) pretests, as admitted by
        # TestDeferredCertification's lenient pretest in test_paillier
        backend, admitted = numth._miller_rabin, []

        def lenient(n, rounds, start=0):
            prime = backend(n, rounds, start)
            if rounds == PRETEST_ROUNDS and not prime and not admitted:
                admitted.append(n)
                return True
            return prime

        monkeypatch.setattr(numth, "_miller_rabin", lenient)
        kgen(512, SeededSource(1))
        monkeypatch.undo()
        (n,) = admitted
        assert certify(n) is is_probable_prime(n) is False

    def test_rounds_split_at_any_start(self):
        # round i draws the same base whatever the start, so the test of
        # 64 rounds is the pretest's rounds and then the rest
        r = random.Random(64)
        odd = [r.getrandbits(256) | 1 << 255 | 1 for _ in range(200)]
        for n in odd + [561 * 1_000_003, 41041, 2 ** 127 - 1, (2 ** 89 - 1) * (2 ** 61 - 1)]:
            whole = numth._miller_rabin(n, MR_ROUNDS)
            for start in (1, PRETEST_ROUNDS, MR_ROUNDS - 1):
                split = numth._miller_rabin(n, start) and numth._miller_rabin(n, MR_ROUNDS, start)
                assert split is whole, (n, start)
