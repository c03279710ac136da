"""Additive homomorphic encryption (Paillier, generator fixed at n + 1).

Used for oblivious filtering and response compression: ciphertexts support
addition of plaintexts and multiplication by a known scalar; a ciphertext is
a plain int. Both constructions that use it (duq_family's filter and
ot_compiler) pick one of z values the same way, so that step lives here
once: one_hot encrypts a selector that is 1 at one index and 0 elsewhere,
and select, the protocols' one caller of hscale and hadd, takes its inner
product with z rows of plaintexts, one ciphertext per column. The secret key
keeps the primes p and q, and decryption works mod p^2 and q^2 apart and
joins the halves by CRT (Paillier, EUROCRYPT '99, section 7): two
exponentiations with half-size moduli and exponents, about 3x faster than
the single L(c^lambda mod n^2) * mu route they agree with, so the key keeps
neither lambda nor mu. With g = n + 1 no key constant needs an
exponentiation: (n+1)^k = 1 + kn (mod n^2), so
h_p = L_p((n+1)^(p-1) mod p^2)^-1 = (-q)^-1 mod p, h_q likewise.
"""

import math
from dataclasses import dataclass
from functools import reduce

from .errors import (
    IndexOutOfRange, MalformedCiphertext, PlaintextOutOfRange, ShapeMismatch
)
from .numth import gen_prime, invmod, powmod
from .rng import RandomSource


@dataclass(frozen=True)
class PaillierPublicKey:
    n: int
    n_squared: int

    def bits(self) -> int:
        return self.n.bit_length()


@dataclass(frozen=True)
class PaillierSecretKey:
    """The primes and the CRT constants h_p = (-q)^-1 mod p and
    h_q = (-p)^-1 mod q that dec uses."""

    pk: PaillierPublicKey
    p: int
    q: int
    h_p: int
    h_q: int


# a ciphertext in [1, n^2); honest values are invertible mod n
Ciphertext = int


def kgen(bits: int, rng: RandomSource) -> tuple[PaillierPublicKey, PaillierSecretKey]:
    """Keypair with an n of exactly the requested bit length."""
    if bits < 16:
        raise ValueError("modulus below 16 bits cannot embed anything useful")
    half = bits // 2
    while True:
        p = gen_prime(half, rng)
        r = gen_prime(bits - half, rng)
        if p != r and (p * r).bit_length() == bits:
            break
    n = p * r
    pk = PaillierPublicKey(n=n, n_squared=n * n)
    return pk, PaillierSecretKey(
        pk=pk,
        p=p,
        q=r,
        h_p=invmod(-r % p, p),
        h_q=invmod(-p % r, r),
    )


def enc(pk: PaillierPublicKey, m: int, rng: RandomSource) -> Ciphertext:
    """Randomized encryption of m in [0, n)."""
    if not 0 <= m < pk.n:
        raise PlaintextOutOfRange(f"plaintext must be in [0, {pk.n})")
    while True:
        rho = 1 + rng.randbelow(pk.n - 1)
        if math.gcd(rho, pk.n) == 1:
            break
    # (n+1)^m = 1 + n*m mod n^2, so the generator power needs no exponentiation
    return (1 + pk.n * m) % pk.n_squared * powmod(rho, pk.n, pk.n_squared) % pk.n_squared


def dec(sk: PaillierSecretKey, c: Ciphertext) -> int:
    """m mod p = L_p(c^(p-1) mod p^2) * h_p, m mod q likewise, joined by CRT."""
    if math.gcd(c, sk.pk.n) != 1:
        raise MalformedCiphertext("ciphertext shares a factor with n")
    p, q = sk.p, sk.q
    m_p = (powmod(c, p - 1, p * p) - 1) // p * sk.h_p % p
    m_q = (powmod(c, q - 1, q * q) - 1) // q * sk.h_q % q
    # q^-1 = -h_p (mod p), so m = m_q + q * ((m_p - m_q) * q^-1 mod p)
    return m_q + q * ((m_q - m_p) * sk.h_p % p)


def hadd(pk: PaillierPublicKey, c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    """Ciphertext of m1 + m2 mod n."""
    return c1 * c2 % pk.n_squared


def hscale(pk: PaillierPublicKey, c: Ciphertext, k: int) -> Ciphertext:
    """Ciphertext of m * k mod n."""
    return powmod(c, k, pk.n_squared)


def one_hot(
    pk: PaillierPublicKey, size: int, hot: int, rng: RandomSource
) -> tuple[Ciphertext, ...]:
    """Fresh encryptions of 1 at index hot and 0 elsewhere, drawn in index order."""
    if not 0 <= hot < size:
        raise IndexOutOfRange(f"index {hot} outside [0, {size})")
    return tuple(enc(pk, 1 if i == hot else 0, rng) for i in range(size))


def select(
    pk: PaillierPublicKey, selector: tuple[Ciphertext, ...], rows: list[list[int]]
) -> tuple[Ciphertext, ...]:
    """One ciphertext per column j of sum_i m_i * rows[i][j], for the
    selector's plaintexts m_i: row hot under a one-hot selector. A peer
    supplies one side, so a row count off the selector's is a ShapeMismatch.

    hscale and hadd are looked up as module globals, so a tracer that rebinds
    them counts every call."""
    if not rows or len(rows) != len(selector):
        raise ShapeMismatch(f"{len(rows)} rows against {len(selector)} selector entries")
    return tuple(
        reduce(lambda acc, term: hadd(pk, acc, term),
               (hscale(pk, c, k) for c, k in zip(selector, column)))
        for column in zip(*rows)
    )
