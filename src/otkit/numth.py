"""Number-theory helpers: modular exponentiation and probabilistic primes.

gmpy2 is used when available because it is much faster on big operands;
the pure-Python fallbacks implement the same contracts. Primality is
Miller-Rabin with 64 rounds, which is the certification level the toolkit
promises (no deterministic proofs).
"""

import hashlib

from .errors import PrimeSearchExhausted

try:
    import gmpy2

    HAVE_GMPY2 = True

    def powmod(base: int, exp: int, mod: int) -> int:
        return int(gmpy2.powmod(base, exp, mod))

    def invmod(x: int, mod: int) -> int:
        return int(gmpy2.invert(x, mod))

    def _mr_backend(n: int, rounds: int) -> bool:
        return bool(gmpy2.is_prime(n, rounds))

except ImportError:  # pragma: no cover - exercised only without gmpy2
    HAVE_GMPY2 = False

    def powmod(base: int, exp: int, mod: int) -> int:
        return pow(base, exp, mod)

    def invmod(x: int, mod: int) -> int:
        return pow(x, -1, mod)

    def _mr_backend(n: int, rounds: int) -> bool:
        return _miller_rabin(n, rounds)

MR_ROUNDS = 64


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
    return _mr_backend(n, rounds)


def gen_prime(bits: int, rng) -> int:
    """Random prime with the top bit set, candidates drawn from rng."""
    if bits < 3:
        raise ValueError("bits must be at least 3")
    budget = 400 * bits
    for _ in range(budget):
        cand = rng.randbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand):
            return cand
    raise PrimeSearchExhausted(f"no {bits}-bit prime in {budget} attempts")


def gen_safe_prime(qbits: int, rng) -> tuple[int, int]:
    """Safe prime pair (P, q) with P = 2q + 1 and q of exactly qbits bits."""
    budget = 4000 * qbits * qbits
    for _ in range(budget):
        q = rng.randbits(qbits) | (1 << (qbits - 1)) | 1
        # P = 2q+1 is divisible by 3 unless q = 2 mod 3; skip those cheaply
        if qbits > 2 and q % 3 != 2:
            continue
        if not is_probable_prime(q):
            continue
        p = 2 * q + 1
        if is_probable_prime(p):
            return p, q
    raise PrimeSearchExhausted(f"no safe prime with {qbits}-bit q in {budget} attempts")
