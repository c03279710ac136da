"""Number-theory helpers: modular exponentiation and probabilistic primes.

Everything runs on the interpreter's own integers: powmod is pow() under a
name that a tracer can wrap. Primality is trial division by the 1229 primes
below 10 000, then Miller-Rabin with 64 rounds, which is the certification
level the toolkit promises (no deterministic proofs). Trial division is two
gcds, not a loop: one with the remainder of n by W = 2 * 3 * ... * 23, a
one-digit int, and one with R, the product of the other 1220 primes; a
number at or below 9973 is looked up instead. The rounds' bases come from
SHAKE-256 of the candidate, so a test of fewer rounds is a prefix of the
64-round test: paillier.kgen pretests each candidate with PRETEST_ROUNDS
rounds and certifies only the primes it keeps, with certify, which runs
the remaining rounds and no second trial division. That finds the same keys
as 64 rounds on every candidate.
"""

import hashlib
import math

from .errors import PrimeSearchExhausted


def powmod(base: int, exp: int, mod: int) -> int:
    return pow(base, exp, mod)


MR_ROUNDS = 64
PRETEST_ROUNDS = 2


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit) if flags[i]]


SMALL_PRIMES = _sieve(10_000)
_SMALL_PRIME_SET = frozenset(SMALL_PRIMES)
# W fits one 30-bit digit, so n % W takes CPython's one-digit remainder path
_WHEEL = math.prod(SMALL_PRIMES[:9])  # 2 * 3 * ... * 23
_REST = math.prod(SMALL_PRIMES[9:])


def _miller_rabin(n: int, rounds: int, start: int = 0) -> bool:
    """Rounds start..rounds-1 of the test of odd n > 3; the bases of round i
    are the same for every start."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # bases drawn from a hash of n: deterministic per candidate, spread out
    stream = hashlib.shake_256(b"mr" + n.to_bytes((n.bit_length() + 7) // 8, "big"))
    raw = stream.digest(8 * rounds)
    for i in range(start, rounds):
        a = 2 + int.from_bytes(raw[8 * i : 8 * i + 8], "big") % (n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_probable_prime(n: int, rounds: int = MR_ROUNDS) -> bool:
    if n <= SMALL_PRIMES[-1]:
        return n in _SMALL_PRIME_SET
    if math.gcd(n % _WHEEL, _WHEEL) != 1 or math.gcd(n, _REST) != 1:
        return False
    return _miller_rabin(n, rounds)


def certify(n: int) -> bool:
    """is_probable_prime(n) for an n that passed is_probable_prime(n,
    PRETEST_ROUNDS): the remaining rounds alone."""
    return n <= SMALL_PRIMES[-1] or _miller_rabin(n, MR_ROUNDS, PRETEST_ROUNDS)


def gen_prime(bits: int, rng, rounds: int = MR_ROUNDS) -> int:
    """Random prime with the top bit set, candidates drawn from rng and
    tested with rounds Miller-Rabin rounds."""
    if bits < 3:
        raise ValueError("bits must be at least 3")
    budget = 400 * bits
    for _ in range(budget):
        cand = rng.randbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand, rounds):
            return cand
    raise PrimeSearchExhausted(f"no {bits}-bit prime in {budget} attempts")
