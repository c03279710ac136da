"""Number-theory helpers: modular exponentiation and probabilistic primes.

powmod(base, exp, mod) is pow(base, exp, mod), powmod2(a1, e1, a2, e2,
mod) is a1^e1 * a2^e2 mod mod, and fixed_base(base, mod, bits) returns
power(e) == pow(base, e, mod) from a table of base built once; one kernel
takes every power a session takes. On the first power it opens
OpenSSL's libcrypto (libcrypto.so.3, else libcrypto.so.1.1), the library
that Python's own hashlib already uses, and from then on takes each power
with a non-negative exponent by BN_mod_exp through ctypes: Montgomery
multiplication (Math. Comp. 1985), about 10x faster than pow() from 576 to
2304 bits (2.45 ms against 27.5 ms at 2048 bits; Python 3.11.7, OpenSSL
3.0.19, 2 cores of a shared host, `--micro` in BENCH_pr25*.json). The ints
cross as big-endian bytes, and every BIGNUM and BN_CTX of a power is made
and freed within the call, so calls from several threads share nothing.
powmod2 takes BN_mod_exp2_mont, which shares one chain of squarings between
its two powers (Straus 1964, "Shamir's trick"), when both exponents are
non-negative, the modulus is odd and at least 3, and neither base is 0 mod
it (the call gives 0 for a zero base whatever its exponent); otherwise it
multiplies two pow() results. No caller in the package takes it now that
powers of g come from the comb; it stays for pairing two scalings of one
column (ROADMAP item 11).

fixed_base builds, for an odd mod >= 3, a Lim-Lee comb (CRYPTO '94) of 8
teeth and 2 columns: 512 BIGNUMs in Montgomery form that share one
BN_MONT_CTX, built by the kernel's own Montgomery products and freed when
the returned power is collected (weakref.finalize). A power of an
exponent below 2^(16b), b = ceil(bits / 16), is then b squarings and 2b
products, each one BN_mod_mul_montgomery call on a BN_CTX and a result of
its own, where one BN_mod_exp takes about bits squarings. A power of g = 4
mod the pinned 2048-bit P, 128 squarings and 256 products, takes 1.0 ms
against 3.7 ms by BN_mod_exp and 2.6 ms by a BN_mod_exp2_mont call over g
and g^(2^1024) with two half-length exponents; at 1024 bits, 0.25 ms
against 0.55 and 0.43 ms (best of 7 timings of 40 powers, same host). A
table takes about 12 ms to build at 2048 bits and 2 ms at 1024.
Threads share the table and the Montgomery context, which a power only
reads. A zero digit multiplies by Montgomery one, so the count of products
does not depend on the exponent; the table entry each product reads does,
as BN_mod_exp's windows do, so a power is not constant-time. A negative
exponent, one of 16b bits or more, an even modulus or one below 3 take
pow(). A host where the library does not open, or lacks a symbol, takes
every power by pow(), with the same results; ctypes is not imported until
the first power, so sessions that take none never load it. kernel() names
the kernel in use.

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
of the candidate, so a test of fewer rounds is a prefix of the 64-round
test: paillier.kgen pretests each candidate with PRETEST_ROUNDS rounds and
certifies only the primes it keeps, with certify, which runs the remaining
rounds and no second trial division. That finds the same keys as 64 rounds
on every candidate.
"""

import hashlib
import math
from contextlib import closing
from functools import partial

from .errors import PrimeSearchExhausted


LIBCRYPTO_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")
# the comb's shape: TEETH bits to a digit, so that one byte holds each, and
# COLUMNS digits per squaring
TEETH, COLUMNS = 8, 2
_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


def powmod(base: int, exp: int, mod: int) -> int:
    return _kernel(base, exp, mod)


def fixed_base(base: int, mod: int, bits: int):
    """power(e) == pow(base, e, mod) for every int e: on the libcrypto
    kernel and an odd mod >= 3, by a comb table of base mod mod for
    exponents below 2^(16 * ceil(bits / 16)), built once here and freed
    when power is collected; by pow() otherwise."""
    comb = _kernel_part("fixed_base")
    return comb(base, mod, bits) if comb else partial(pow, base, mod=mod)


def powmod2(a1: int, e1: int, a2: int, e2: int, mod: int) -> int:
    """a1^e1 * a2^e2 mod mod, by one BN_mod_exp2_mont call where the
    libcrypto kernel runs; by two pow() calls and a product on pow()."""
    two = _kernel_part("powmod2")
    return two(a1, e1, a2, e2, mod) if two else pow(a1, e1, mod) * pow(a2, e2, mod) % mod


def _libcrypto_powmod():
    """pow() for a non-negative exponent and a positive modulus by
    BN_mod_exp, with the Miller-Rabin rounds' `powers`, `powmod2` and the
    comb's `fixed_base` as attributes, from the first of LIBCRYPTO_SONAMES that
    opens with every symbol; None when none does."""
    import ctypes
    import weakref

    for soname in LIBCRYPTO_SONAMES:
        try:
            lib = ctypes.CDLL(soname)
            ctx_new, ctx_free = lib.BN_CTX_new, lib.BN_CTX_free
            bn_new, bn_free, bn_clear_free = lib.BN_new, lib.BN_free, lib.BN_clear_free
            bin2bn, bn2binpad, mod_exp = lib.BN_bin2bn, lib.BN_bn2binpad, lib.BN_mod_exp
            mont_new, mont_set, mont_free = (lib.BN_MONT_CTX_new, lib.BN_MONT_CTX_set,
                                             lib.BN_MONT_CTX_free)
            mod_exp_mont, mod_exp2 = lib.BN_mod_exp_mont, lib.BN_mod_exp2_mont
            mont_mul = lib.BN_mod_mul_montgomery
            to_mont, from_mont, bn_copy = (lib.BN_to_montgomery, lib.BN_from_montgomery,
                                           lib.BN_copy)
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
        (mod_exp2, [ptr] * 8, c_int), (mont_mul, [ptr] * 5, c_int), (to_mont, [ptr] * 4, c_int),
        (from_mont, [ptr] * 4, c_int), (bn_copy, [ptr] * 2, ptr),
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

    def bn_powmod2(a1: int, e1: int, a2: int, e2: int, mod: int) -> int:
        """a1^e1 * a2^e2 mod mod by BN_mod_exp2_mont, which shares one chain
        of squarings between the two powers, for non-negative exponents, an
        odd mod >= 3 and bases that are not 0 mod mod (the call returns 0
        for a zero base whatever its exponent); pow() otherwise."""
        if e1 < 0 or e2 < 0 or mod < 3 or not mod & 1 or not a1 % mod or not a2 % mod:
            return pow(a1, e1, mod) * pow(a2, e2, mod) % mod
        width = (mod.bit_length() + 7) // 8
        out = ctypes.create_string_buffer(width)
        ctx = b1 = p1 = b2 = p2 = m = r = None
        try:
            ctx, b1, p1, b2, p2 = ctx_new(), to_bn(a1 % mod), to_bn(e1), to_bn(a2 % mod), to_bn(e2)
            m, r = to_bn(mod), bn_new()
            if not (ctx and b1 and p1 and b2 and p2 and m and r):
                raise MemoryError("libcrypto could not allocate a BIGNUM")
            if (not mod_exp2(r, b1, p1, b2, p2, m, ctx, None)
                    or bn2binpad(r, out, width) != width):
                raise ArithmeticError("BN_mod_exp2_mont failed")
            return int.from_bytes(out.raw, "big")
        finally:
            bn_free(b1)
            bn_clear_free(p1)
            bn_free(b2)
            bn_clear_free(p2)
            bn_free(m)
            bn_free(r)
            ctx_free(ctx)

    def free_table(table, mont):
        for x in table:
            bn_free(x)
        mont_free(mont)

    def bn_fixed_base(base: int, mod: int, bits: int):
        """fixed_base on this kernel. The comb's tooth t < 16 is
        base^(2^(t*b)), b = ceil(bits / 16), and its entry (j, d), for a
        column j < 2 and a digit d < 256, is the product of the teeth 2i + j
        over the bits i of d, Montgomery one for d = 0. A power of e below
        2^(16b) runs over the bits k of e's b-bit chunks from the top: it
        squares, then takes one product per column, by the entry whose
        digit's bit i is bit k of chunk 2i + j."""
        if mod < 3 or not mod & 1:
            return partial(pow, base, mod=mod)
        b = -(-bits // (TEETH * COLUMNS))
        width, size = TEETH * COLUMNS * b, (mod.bit_length() + 7) // 8
        table, mont, ctx, m = [], mont_new(), None, None
        try:
            table = [bn_new() for _ in range(COLUMNS << TEETH)]
            ctx, m = ctx_new(), to_bn(mod)
            if not (mont and ctx and m and all(table)):
                raise MemoryError("libcrypto could not allocate a BIGNUM")
            if not mont_set(mont, m, ctx):
                raise ArithmeticError("BN_MONT_CTX_set failed")
            rows = [table[j << TEETH:(j + 1) << TEETH] for j in range(COLUMNS)]
            teeth = [rows[t % COLUMNS][1 << t // COLUMNS] for t in range(TEETH * COLUMNS)]
            ok = True
            for x, slot in ((1, rows[0][0]), (base % mod, teeth[0])):
                ok = (ok and bin2bn(x.to_bytes(size, "big"), size, slot)
                      and to_mont(slot, slot, mont, ctx))
            ok = ok and bn_copy(rows[1][0], rows[0][0])
            for last, tooth in zip(teeth, teeth[1:]):
                ok = ok and bn_copy(tooth, last)
                for _ in range(b):
                    ok = ok and mont_mul(tooth, tooth, tooth, mont, ctx)
            for row in rows:
                for d in range(3, 1 << TEETH):
                    if d & d - 1:  # d & -d is d's lowest bit, a tooth
                        ok = ok and mont_mul(row[d], row[d & d - 1], row[d & -d], mont, ctx)
            if not ok:
                raise ArithmeticError("building the comb table failed")
        except BaseException:
            free_table(table, mont)
            raise
        finally:
            bn_free(m)
            ctx_free(ctx)
        low, high = rows
        one = low[0]

        def power(e: int) -> int:
            # _kernel set to pow() turns the comb off, as it does BN_mod_exp
            if e < 0 or e >> width or _kernel is pow:
                return pow(base, e, mod)
            # chunk t of e is the t-th b-bit slice from the bottom; byte k of
            # digits[j], counted from the top, is the digit of column j at
            # bit b - 1 - k, its bit i being that bit of chunk 2i + j
            bits01 = format(e, f"0{width}b").encode().translate(_ZERO_ONE)
            chunks = [int.from_bytes(bits01[width - (t + 1) * b:width - t * b], "big")
                      for t in range(TEETH * COLUMNS)]
            digits = [sum(chunks[COLUMNS * i + j] << i for i in range(TEETH)).to_bytes(b, "big")
                      for j in range(COLUMNS)]
            out = ctypes.create_string_buffer(size)
            ctx = r = None
            try:
                ctx, r = ctx_new(), bn_new()
                if not (ctx and r):
                    raise MemoryError("libcrypto could not allocate a BIGNUM")
                ok = bn_copy(r, one)
                for d0, d1 in zip(*digits):
                    # a zero digit multiplies by row[0], Montgomery one
                    ok = (ok and mont_mul(r, r, r, mont, ctx) and mont_mul(r, r, low[d0], mont, ctx)
                          and mont_mul(r, r, high[d1], mont, ctx))
                if not (ok and from_mont(r, r, mont, ctx)) or bn2binpad(r, out, size) != size:
                    raise ArithmeticError("a comb power failed")
                return int.from_bytes(out.raw, "big")
            finally:
                bn_free(r)
                ctx_free(ctx)

        weakref.finalize(power, free_table, table, mont)
        return power

    bn_powmod.powers, bn_powmod.powmod2 = bn_powers, bn_powmod2
    bn_powmod.fixed_base = bn_fixed_base
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


def _kernel_part(name: str):
    """The kernel's `powers`, `powmod2` or `fixed_base`, picked first if no power was
    taken yet; None on pow()."""
    if _kernel is _load:
        kernel()
    return getattr(_kernel, name, None)


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
    powers = _kernel_part("powers")
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
