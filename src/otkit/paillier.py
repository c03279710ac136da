"""Additive homomorphic encryption (Paillier, generator fixed at n + 1).

Used for oblivious filtering and response compression: ciphertexts support
addition of plaintexts and multiplication by a known scalar. Decryption uses
the standard L(u) = (u - 1) / n route; no CRT acceleration.
"""

import math
from dataclasses import dataclass

from .errors import MalformedCiphertext, PlaintextOutOfRange
from .numth import gen_prime, invmod, powmod
from .rng import RandomSource


@dataclass(frozen=True)
class PaillierPublicKey:
    n: int
    n_squared: int
    generator: int

    def bits(self) -> int:
        return self.n.bit_length()


@dataclass(frozen=True)
class PaillierSecretKey:
    lambda_tot: int
    mu: int
    pk: PaillierPublicKey


@dataclass(frozen=True)
class HomCiphertext:
    """Ciphertext value in [1, n^2); honest values are invertible mod n."""

    value: int


def kgen(
    bits: int, rng: RandomSource, max_attempts: int | None = None
) -> tuple[PaillierPublicKey, PaillierSecretKey]:
    """Keypair with an n of exactly the requested bit length."""
    if bits < 16:
        raise ValueError("modulus below 16 bits cannot embed anything useful")
    half = bits // 2
    while True:
        p = gen_prime(half, rng, max_attempts)
        r = gen_prime(bits - half, rng, max_attempts)
        if p != r and (p * r).bit_length() == bits:
            break
    n = p * r
    n_sq = n * n
    pk = PaillierPublicKey(n=n, n_squared=n_sq, generator=n + 1)
    lam = math.lcm(p - 1, r - 1)
    # mu = L(g^lambda mod n^2)^-1 mod n, with L(u) = (u - 1) // n
    mu = invmod((powmod(pk.generator, lam, n_sq) - 1) // n, n)
    return pk, PaillierSecretKey(lambda_tot=lam, mu=mu, pk=pk)


def enc(pk: PaillierPublicKey, m: int, rng: RandomSource) -> HomCiphertext:
    """Randomized encryption of m in [0, n)."""
    if not 0 <= m < pk.n:
        raise PlaintextOutOfRange(f"plaintext must be in [0, {pk.n})")
    while True:
        rho = 1 + rng.randbelow(pk.n - 1)
        if math.gcd(rho, pk.n) == 1:
            break
    # (n+1)^m = 1 + n*m mod n^2, so the generator power needs no exponentiation
    c = (1 + pk.n * m) % pk.n_squared * powmod(rho, pk.n, pk.n_squared) % pk.n_squared
    return HomCiphertext(value=c)


def dec(sk: PaillierSecretKey, c: HomCiphertext) -> int:
    pk = sk.pk
    if math.gcd(c.value, pk.n) != 1:
        raise MalformedCiphertext("ciphertext shares a factor with n")
    u = powmod(c.value, sk.lambda_tot, pk.n_squared)
    return (u - 1) // pk.n * sk.mu % pk.n


def hadd(pk: PaillierPublicKey, c1: HomCiphertext, c2: HomCiphertext) -> HomCiphertext:
    """Ciphertext of m1 + m2 mod n."""
    return HomCiphertext(value=c1.value * c2.value % pk.n_squared)


def hscale(pk: PaillierPublicKey, c: HomCiphertext, k: int) -> HomCiphertext:
    """Ciphertext of m * k mod n."""
    return HomCiphertext(value=powmod(c.value, k, pk.n_squared))
