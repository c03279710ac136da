"""The exponentiation kernel against pow(), and primality: trial division by
two gcds and certification that resumes after the pretest, each against the
loop or the test it stands in for."""

import hashlib
import importlib.util
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit import numth
from otkit.groupmath import PINNED_SAFE_PRIMES
from otkit.harness import export_transcript, run_session
from otkit.numth import MR_ROUNDS, PRETEST_ROUNDS, SMALL_PRIMES, certify, is_probable_prime, powmod
from otkit.paillier import kgen
from otkit.rng import SeededSource

_spec = importlib.util.spec_from_file_location(
    "golden", Path(__file__).with_name("test_transcript_golden.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

SRC = Path(numth.__file__).resolve().parent.parent
KEY_BITS = (16, 64, 512, 640, 1024, 1152, 4096)


@lru_cache
def _keypair(bits):
    return kgen(bits, SeededSource(bits))


def _key(bits):
    return _keypair(bits)[0]


def _moduli():
    """(id, m): every pinned P, n and n^2 of the fixture keys, even moduli,
    m = 2, and a modulus whose top byte is 0x01."""
    r = random.Random(2)
    out = [(f"P{bits}", P) for bits, P in PINNED_SAFE_PRIMES.items()]
    out += [(f"{name}{bits}", lambda bits=bits, square=square: _key(bits).n ** (1 + square))
            for bits in KEY_BITS for name, square in (("n", 0), ("n2_", 1))]
    out += [("m2", 2), ("even64", r.getrandbits(64) << 1 | 1 << 64),
            ("even1024", r.getrandbits(1023) << 1 | 1 << 1023),
            ("top01", 1 << 1032 | r.getrandbits(1024))]
    return out


def _odd_moduli():
    """(id, m): the odd moduli of _moduli(), and the 576-bit primes of the
    1152-bit fixture key, the size of kgen(1152)'s Miller-Rabin rounds."""
    out = [(name, m) for name, m in _moduli() if callable(m) or m & 1]
    return out + [(f"{half}576", lambda half=half: getattr(_keypair(1152)[1], half))
                  for half in ("p", "q")]


def _round_exponents(m):
    """0, 1 and the odd part of m - 1, Miller-Rabin's exponent, cut to its
    top 512 bits above 2304 bits, where pow() takes seconds a power."""
    d = m - 1
    while d % 2 == 0:
        d //= 2
    return 0, 1, d >> max(0, d.bit_length() - 512) if m.bit_length() > 2304 else d


@pytest.fixture(scope="module")
def libcrypto():
    """BN_mod_exp behind pow()'s signature; the tests that need it skip on a
    host where libcrypto does not open."""
    kernel = numth._libcrypto_powmod()
    if kernel is None:
        pytest.skip("libcrypto does not open on this host")
    return kernel


class TestKernel:
    """powmod is pow(): every power equals pow()'s, whichever kernel takes it."""

    @pytest.mark.parametrize("name, modulus", _moduli(), ids=[n for n, _ in _moduli()])
    def test_edges(self, libcrypto, name, modulus):
        m = modulus() if callable(modulus) else modulus
        k = m.bit_length()
        for base in (0, 1, m - 1, m, m + 1, 2 * m + 3, -5):
            for exp in (0, 1, 2, m - 1, (1 << k) - 1, 1 << k):
                assert libcrypto(base, exp, m) == pow(base, exp, m), (base, exp)

    @given(base=st.integers(-(1 << 600), 1 << 600), exp=st.integers(0, 1 << 600),
           mod=st.integers(1, 1 << 600))
    @settings(max_examples=300, deadline=None)
    def test_random_triples(self, libcrypto, base, exp, mod):
        assert libcrypto(base, exp, mod) == pow(base, exp, mod)
        assert powmod(base, exp, mod) == pow(base, exp, mod)

    def test_negative_exponent_and_modulus_are_pow(self, libcrypto):
        assert libcrypto(3, -1, 23) == pow(3, -1, 23) == 8
        assert libcrypto(3, 5, -23) == pow(3, 5, -23)
        with pytest.raises(ValueError):
            libcrypto(3, 5, 0)

    @pytest.mark.parametrize("key", [k for k in golden.GOLDEN_DIGESTS
                                     if k[0] in ("np-ot", "dq-mr", "duq-mr", "comp-np")], ids=str)
    def test_golden_digests_by_pow(self, key, monkeypatch):
        monkeypatch.setattr(numth, "_kernel", pow)
        protocol, group, s = key
        cfg = golden._config(protocol, group, s, 4000 + s)
        digest = hashlib.sha256(export_transcript(run_session(cfg)).encode()).hexdigest()
        assert digest == golden.GOLDEN_DIGESTS[key]

    def test_two_threads(self, libcrypto):
        r = random.Random(512)
        m = r.getrandbits(512) | 1 << 511 | 1
        work = [[(r.getrandbits(512), r.getrandbits(512)) for _ in range(2000)] for _ in range(2)]
        results = [None, None]

        def run(i):
            results[i] = [libcrypto(b, e, m) for b, e in work[i]]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        for i in range(2):
            assert results[i] == [pow(b, e, m) for b, e in work[i]]

    def test_calls_do_not_grow_memory(self, libcrypto):
        # 20 000 calls at 512 bits grow a fresh process by at most 1 MB; one
        # BIGNUM left unfreed per call would take 2 MB. The process reads its
        # resident size, since its ru_maxrss starts at the pytest process's peak
        if not Path("/proc/self/statm").exists():
            pytest.skip("no /proc/self/statm on this host")
        code = (
            "import os, random\n"
            "from otkit import numth\n"
            "def rss():\n"
            "    pages = int(open('/proc/self/statm').read().split()[1])\n"
            "    return pages * os.sysconf('SC_PAGESIZE')\n"
            "kernel = numth._libcrypto_powmod()\n"
            "r = random.Random(1)\n"
            "m = r.getrandbits(512) | 1 << 511 | 1\n"
            "b, e = r.getrandbits(512), r.getrandbits(512)\n"
            "for _ in range(1000): kernel(b, e, m)\n"
            "before = rss()\n"
            "for _ in range(20000): kernel(b, e, m)\n"
            "print(rss() - before)\n"
        )
        assert int(_python(code)) <= 1 << 20

    def test_lazy_load(self):
        # a session that takes no power never imports ctypes; one that does
        # loads the kernel
        code = (
            "import sys\n"
            "import otkit\n"
            "from otkit import numth\n"
            "cfg = dict(sigma_bits=64, lambda_bits=64, seed=1, s=1, m0=b'a' * 8, m1=b'b' * 8)\n"
            "otkit.run_session(otkit.SessionConfig(protocol='supersonic', **cfg))\n"
            "print('ctypes' in sys.modules, numth._kernel is numth._load)\n"
            "otkit.run_session(otkit.SessionConfig(protocol='np-ot', group_bits=512, **cfg))\n"
            "print('ctypes' in sys.modules, numth._kernel is numth._load, numth.kernel())\n"
        )
        first, second = _python(code).splitlines()
        assert first == "False True"
        assert second in ("True False libcrypto", "True False pow")

    def test_fallback_when_the_library_does_not_open(self, monkeypatch):
        # no such library, or one without the BN symbols: powmod is pow()
        for sonames in (("libotkit-absent.so",), ("libc.so.6",)):
            monkeypatch.setattr(numth, "LIBCRYPTO_SONAMES", sonames)
            monkeypatch.setattr(numth, "_kernel", numth._load)
            assert numth._libcrypto_powmod() is None
            assert powmod(3, 5, 23) == pow(3, 5, 23)
            assert numth._kernel is pow and numth.kernel() == "pow"

    @pytest.mark.parametrize("name, modulus", _odd_moduli(), ids=[n for n, _ in _odd_moduli()])
    def test_round_powers(self, libcrypto, name, modulus):
        m = modulus() if callable(modulus) else modulus
        bases = (2, 3, 1 << 32, 1 << 63, (1 << 64) - 1, 1 << 64, (1 << 64) + 1,
                 m - 2, m - 1, m, m + 1)
        for exp in _round_exponents(m):
            assert list(libcrypto.powers(iter(bases), exp, m)) == [pow(a, exp, m) for a in bases]

    def test_round_powers_are_lazy(self, libcrypto):
        # a composite that fails its first round costs one power
        p = _keypair(1152)[1].p
        drawn = []

        def bases():
            for a in (2, 3, 5):
                drawn.append(a)
                yield a

        powers = libcrypto.powers(bases(), p >> 1, p)
        assert drawn == []
        assert next(powers) == pow(2, p >> 1, p) and drawn == [2]
        powers.close()
        assert drawn == [2]
        with pytest.raises(StopIteration):
            next(powers)

    def test_round_powers_refuse_what_montgomery_cannot_take(self, libcrypto):
        for exp, mod in ((5, 24), (5, 1), (5, -7), (-1, 23)):
            with pytest.raises(ValueError):
                next(libcrypto.powers(iter([3]), exp, mod))

    def test_round_powers_in_two_threads(self, libcrypto):
        r = random.Random(576)
        moduli = [r.getrandbits(576) | 1 << 575 | 1 for _ in range(2)]
        work = [[r.getrandbits(64) for _ in range(500)] for _ in range(2)]
        results = [None, None]

        def run(i):
            results[i] = list(libcrypto.powers(iter(work[i]), moduli[i] >> 1, moduli[i]))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        for i in range(2):
            assert results[i] == [pow(a, moduli[i] >> 1, moduli[i]) for a in work[i]]

    def test_round_powers_do_not_grow_memory(self, libcrypto):
        # 20 000 rounds, one per sequence, grow a fresh process by at most
        # 1 MB: a third run to their end, a third are closed after their
        # first value and a third end in an error from their bases. A
        # BN_CTX, a BN_MONT_CTX or the 1024-bit exponent left unfreed per
        # sequence would take 2 MB or more
        if not Path("/proc/self/statm").exists():
            pytest.skip("no /proc/self/statm on this host")
        code = (
            "import os, random\n"
            "from otkit import numth\n"
            "def rss():\n"
            "    pages = int(open('/proc/self/statm').read().split()[1])\n"
            "    return pages * os.sysconf('SC_PAGESIZE')\n"
            "powers = numth._libcrypto_powmod().powers\n"
            "r = random.Random(1)\n"
            "m = r.getrandbits(256) | 1 << 255 | 1\n"
            "e = r.getrandbits(1024)\n"
            "def failing():\n"
            "    yield 2\n"
            "    raise KeyError\n"
            "def sequences(count):\n"
            "    for _ in range(count):\n"
            "        list(powers(iter([2]), e, m))\n"
            "        xs = powers(iter([2, 3]), e, m)\n"
            "        next(xs)\n"
            "        xs.close()\n"
            "        try:\n"
            "            list(powers(failing(), e, m))\n"
            "        except KeyError:\n"
            "            pass\n"
            "sequences(250)\n"
            "before = rss()\n"
            "sequences(6667)\n"
            "print(rss() - before)\n"
        )
        assert int(_python(code)) <= 1 << 20

    def test_round_powers_free_what_they_allocate(self, monkeypatch):
        # every BIGNUM and context a sequence allocates is freed once, on
        # every way a sequence can end, and the exponent by BN_clear_free
        import ctypes

        live, cleared = Counter(), []

        class Logged:
            def __init__(self, name, fn):
                self.__dict__.update(name=name, fn=fn)

            def __setattr__(self, attr, value):  # argtypes and restype
                setattr(self.fn, attr, value)

            def __call__(self, *args):
                out = self.fn(*args)
                if self.name.endswith("_new") or self.name == "BN_bin2bn" and args[2] is None:
                    live[out] += 1
                elif self.name.endswith("_free") and args[0]:
                    live[args[0]] -= 1
                    if self.name == "BN_clear_free":
                        cleared.append(args[0])
                return out

        class Library:
            def __init__(self, soname):
                self.lib = real(soname)

            def __getattr__(self, name):
                return Logged(name, getattr(self.lib, name))

        real = ctypes.CDLL
        monkeypatch.setattr(ctypes, "CDLL", Library)
        powers = numth._libcrypto_powmod().powers
        monkeypatch.undo()

        def failing():
            yield 2
            raise KeyError

        p = _keypair(1152)[1].p
        assert list(powers(iter([2, 3]), p >> 1, p)) == [pow(a, p >> 1, p) for a in (2, 3)]
        xs = powers(iter([2, 3]), p >> 1, p)
        next(xs)
        xs.close()
        with pytest.raises(KeyError):
            list(powers(failing(), p >> 1, p))
        powers(iter([2]), p >> 1, p).close()  # never started: allocates nothing
        assert not +live and not -live
        assert len(live) >= 6 and len(cleared) == 3

    def test_rounds_bypass_powmod(self, count_calls):
        # Miller-Rabin takes its powers by the kernel, not through powmod, so
        # a tracer that wraps powmod does not count a key search's rounds
        counts = count_calls(numth.powmod, numth._miller_rabin)
        kgen(512, SeededSource(5))
        assert counts["_miller_rabin"] > 0
        assert counts["powmod"] == 0


def _python(code):
    """stdout of a fresh interpreter that imports this checkout's otkit and
    writes bytecode only if this one does, so a test run leaves no cache
    that a later benchmark of the checkout would load."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    flags = ["-B"] if sys.dont_write_bytecode else []
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return proc.stdout.strip()


def test_children_keep_the_bytecode_setting():
    assert _python("import sys; print(sys.dont_write_bytecode)") == str(sys.dont_write_bytecode)


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
