"""Number-theory helpers: modular exponentiation and probabilistic primes.

Everything runs on the interpreter's own integers: powmod is pow() under a
name that a tracer can wrap. Primality is Miller-Rabin with 64 rounds, which
is the certification level the toolkit promises (no deterministic proofs).
The rounds' bases come from SHAKE-256 of the candidate, so a test of fewer
rounds is a prefix of the 64-round test: paillier.kgen pretests each
candidate with PRETEST_ROUNDS rounds and certifies with all 64 only the
primes it keeps, which finds the same keys.
"""

import hashlib

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


def _miller_rabin(n: int, rounds: int) -> bool:
    # bases drawn from a hash of n: deterministic per candidate, spread out
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    stream = hashlib.shake_256(b"mr" + n.to_bytes((n.bit_length() + 7) // 8, "big"))
    raw = stream.digest(8 * rounds)
    for i in range(rounds):
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
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return _miller_rabin(n, rounds)


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
