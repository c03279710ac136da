"""Number-theory helpers: modular exponentiation and probabilistic primes.

powmod(base, exp, mod) is pow(base, exp, mod), by one kernel for every
power a session takes. On the first power it opens OpenSSL's libcrypto
(libcrypto.so.3, else libcrypto.so.1.1), the library that Python's own
hashlib already uses, and from then on takes each power with a non-negative
exponent by BN_mod_exp through ctypes: Montgomery multiplication
(Math. Comp. 1985), about 10x faster than pow() from 576 to 2304 bits
(2.45 ms against 27.5 ms at 2048 bits; Python 3.11.7, OpenSSL 3.0.19, 2
cores of a shared host, `--micro` in BENCH_pr25*.json). The ints cross as
big-endian bytes, and every BIGNUM and BN_CTX is made and freed within the
call, so calls from several threads share nothing. A host where the library
does not open, or lacks a symbol, takes every power by pow(), with the same
results; ctypes is not imported until the first power, so sessions that take
none never load it. kernel() names the kernel in use.

Primality is trial division by the 1229 primes below 10 000, then
Miller-Rabin with 64 rounds, which is the certification level the toolkit
promises (no deterministic proofs). Trial division is two gcds, not a loop:
one with the remainder of n by W = 2 * 3 * ... * 23, a one-digit int, and
one with R, the product of the other 1220 primes; a number at or below 9973
is looked up instead. The rounds take their powers from the same library,
but not through powmod, so a tracer that wraps powmod counts a session's
powers and not the hundreds of rounds of its prime search. A round's base is
2 plus a 64-bit hash value mod n - 3, one machine word, and BN_mod_exp hands
a one-word base to BN_mod_exp_mont_word, which at 576 bits is slower than
the windowed Montgomery path that a full-width base takes. So the rounds on
one candidate call BN_mod_exp_mont themselves, through the kernel's powers:
one BN_CTX, one BN_MONT_CTX and one BIGNUM each for the exponent and n,
made once per candidate, shared by its rounds and freed when its test ends.
Certifying a 576-bit prime, the 62 rounds after the pretest, so takes
5.75 ms against 8.19 ms by BN_mod_exp, and kgen(1152) 24.0 ms against 28.6
ms (`--micro` in BENCH_pr27*.json, same host as above). Where powmod runs on
pow(), so do the rounds. powmod keeps BN_mod_exp, whose one-word path is as
fast or faster for g = 4 at 2048 bits. The rounds' bases come from SHAKE-256
of the candidate, so a test of fewer rounds is a prefix of the 64-round test: paillier.kgen pretests each candidate with PRETEST_ROUNDS
rounds and certifies only the primes it keeps, with certify, which runs
the remaining rounds and no second trial division. That finds the same keys
as 64 rounds on every candidate.
"""

import hashlib
import math
from contextlib import closing

from .errors import PrimeSearchExhausted


LIBCRYPTO_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")


def powmod(base: int, exp: int, mod: int) -> int:
    return _kernel(base, exp, mod)


def _libcrypto_powmod():
    """pow() for a non-negative exponent and a positive modulus by
    BN_mod_exp, from the first of LIBCRYPTO_SONAMES that opens with every
    symbol; None when none does."""
    import ctypes

    for soname in LIBCRYPTO_SONAMES:
        try:
            lib = ctypes.CDLL(soname)
            ctx_new, ctx_free = lib.BN_CTX_new, lib.BN_CTX_free
            bn_new, bn_free, bn_clear_free = lib.BN_new, lib.BN_free, lib.BN_clear_free
            bin2bn, bn2binpad, mod_exp = lib.BN_bin2bn, lib.BN_bn2binpad, lib.BN_mod_exp
            mont_new, mont_set, mont_free = (lib.BN_MONT_CTX_new, lib.BN_MONT_CTX_set,
                                             lib.BN_MONT_CTX_free)
            mod_exp_mont = lib.BN_mod_exp_mont
        except (OSError, AttributeError):
            continue
        break
    else:
        return None
    ptr, buf, c_int = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
    for fn, argtypes, restype in (
        (ctx_new, [], ptr), (ctx_free, [ptr], None), (bn_new, [], ptr),
        (bn_free, [ptr], None), (bn_clear_free, [ptr], None),
        (bin2bn, [buf, c_int, ptr], ptr), (bn2binpad, [ptr, buf, c_int], c_int),
        (mod_exp, [ptr] * 5, c_int), (mont_new, [], ptr), (mont_set, [ptr] * 3, c_int),
        (mont_free, [ptr], None), (mod_exp_mont, [ptr] * 6, c_int),
    ):
        fn.argtypes, fn.restype = argtypes, restype

    def to_bn(x: int):
        raw = x.to_bytes((x.bit_length() + 7) // 8, "big")
        return bin2bn(raw, len(raw), None)

    def bn_powmod(base: int, exp: int, mod: int) -> int:
        if exp < 0 or mod < 1:
            return pow(base, exp, mod)
        width = (mod.bit_length() + 7) // 8
        out = ctypes.create_string_buffer(width)
        ctx = a = e = m = r = None
        try:
            ctx, a, e, m, r = ctx_new(), to_bn(base % mod), to_bn(exp), to_bn(mod), bn_new()
            if not (ctx and a and e and m and r):
                raise MemoryError("libcrypto could not allocate a BIGNUM")
            if not mod_exp(r, a, e, m, ctx) or bn2binpad(r, out, width) != width:
                raise ArithmeticError("BN_mod_exp failed")
            return int.from_bytes(out.raw, "big")
        finally:
            bn_free(a)
            bn_clear_free(e)
            bn_free(m)
            bn_free(r)
            ctx_free(ctx)

    def bn_powers(bases, exp: int, mod: int):
        """pow(a, exp, mod) for each a in bases, lazily, for exp >= 0 and an
        odd mod > 1, by BN_mod_exp_mont: one BN_CTX, one BN_MONT_CTX and one
        BIGNUM each for exp, mod, the base and the result, made on the first
        value and freed when the generator ends, fails or is closed."""
        if exp < 0 or mod < 3 or not mod & 1:
            raise ValueError("bn_powers needs exp >= 0 and an odd modulus above 1")
        width = (mod.bit_length() + 7) // 8
        out = ctypes.create_string_buffer(width)
        ctx = mont = a = e = m = r = None
        try:
            ctx, mont, a, r = ctx_new(), mont_new(), bn_new(), bn_new()
            e, m = to_bn(exp), to_bn(mod)
            if not (ctx and mont and a and e and m and r):
                raise MemoryError("libcrypto could not allocate a BIGNUM")
            if not mont_set(mont, m, ctx):
                raise ArithmeticError("BN_MONT_CTX_set failed")
            for base in bases:
                raw = (base % mod).to_bytes(width, "big")
                if not bin2bn(raw, width, a):
                    raise ArithmeticError("BN_bin2bn failed")
                if not mod_exp_mont(r, a, e, m, ctx, mont) or bn2binpad(r, out, width) != width:
                    raise ArithmeticError("BN_mod_exp_mont failed")
                yield int.from_bytes(out.raw, "big")
        finally:
            bn_free(a)
            bn_clear_free(e)
            bn_free(m)
            bn_free(r)
            mont_free(mont)
            ctx_free(ctx)

    bn_powmod.powers = bn_powers
    return bn_powmod


def _load(base: int, exp: int, mod: int) -> int:
    """The kernel until the first power: pick libcrypto's or pow(), then
    take the power by it."""
    global _kernel
    _kernel = _libcrypto_powmod() or pow
    return _kernel(base, exp, mod)


_kernel = _load


def kernel() -> str:
    """The kernel behind powmod, "libcrypto" or "pow", picked first if no
    power was taken yet."""
    _kernel(1, 1, 1)
    return "pow" if _kernel is pow else "libcrypto"


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
    bases = (2 + int.from_bytes(raw[8 * i : 8 * i + 8], "big") % (n - 3)
             for i in range(start, rounds))
    if _kernel is _load:
        kernel()
    powers = getattr(_kernel, "powers", None)
    with closing(powers(bases, d, n) if powers else (pow(a, d, n) for a in bases)) as xs:
        for x in xs:
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
