"""Additive homomorphic encryption (Paillier, generator fixed at n + 1).

Used for oblivious filtering and response compression: ciphertexts support
addition of plaintexts and multiplication by a known scalar; a ciphertext is
a plain int. Both constructions that use it (duq_family's filter and
ot_compiler) pick one of z values the same way, so that step lives here
once: one_hot encrypts a selector that is 1 at one index and 0 elsewhere,
and select, the protocols' one caller of hscale and hadd, takes its inner
product with z rows of plaintexts, one ciphertext per column. select refuses
a selector entry, and dec a ciphertext, outside [1, n^2) or sharing a factor
with n. Every power is one numth.powmod call, libcrypto's BN_mod_exp where
it loads: select scales entry i by each exponent of row i with hscale, so a
duq-mr row at a 1152-bit key (two ~1024-bit and two 256-bit exponents mod
n^2) is four kernel calls, about 5.3 ms.

The secret key keeps the primes p and q, and decryption works mod p^2 and
q^2 apart and joins the halves by CRT (Paillier, EUROCRYPT '99, section 7):
two exponentiations with half-size moduli and exponents, about 3x faster
than the single L(c^lambda mod n^2) * mu route they agree with, so the key
keeps neither lambda nor mu. With g = n + 1 no key constant needs an
exponentiation: (n+1)^k = 1 + kn (mod n^2), so
h_p = L_p((n+1)^(p-1) mod p^2)^-1 = (-q)^-1 mod p, h_q likewise. The key
holder encrypts by CRT too, with one more step: since (x + kp)^p = x^p
(mod p^2), rho^n = (rho^q)^p = (rho^(q mod (p-1)) mod p)^p (mod p^2), so
enc and one_hot given the secret key raise rho to a half-size exponent mod
p, that to p mod p^2, likewise mod q^2, and join the two into the same
rho^n mod n^2 that the public key computes.
"""

import math
from dataclasses import dataclass

from .errors import (
    IndexOutOfRange, MalformedCiphertext, PlaintextOutOfRange, ShapeMismatch
)
from .numth import PRETEST_ROUNDS, certify, gen_prime, powmod
from .rng import RandomSource


@dataclass(frozen=True)
class PaillierPublicKey:
    n: int
    n_squared: int


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
Key = PaillierPublicKey | PaillierSecretKey


def public(key: Key) -> PaillierPublicKey:
    return key.pk if isinstance(key, PaillierSecretKey) else key


def kgen(bits: int, rng: RandomSource) -> tuple[PaillierPublicKey, PaillierSecretKey]:
    """Keypair with an n of exactly the requested bit length.

    Both primes have exactly half the bits, so their product falls one bit
    short with probability 2 ln 2 - 1, about 0.39, and then both are drawn
    again. Drawing with the top two bits set would avoid that, but it would
    change every key, and with it every comp-np and duq-mr transcript, so
    the draw stays. Candidates are pretested with PRETEST_ROUNDS rounds, and
    a pair is certified (numth.certify) only once it makes an n of full
    length; a pair that fails is dropped like a short n."""
    if bits < 16:
        raise ValueError("modulus below 16 bits cannot embed anything useful")
    half = bits // 2
    while True:
        p = gen_prime(half, rng, PRETEST_ROUNDS)
        r = gen_prime(bits - half, rng, PRETEST_ROUNDS)
        if (p != r and (p * r).bit_length() == bits
                and certify(p) and certify(r)):
            break
    n = p * r
    pk = PaillierPublicKey(n=n, n_squared=n * n)
    return pk, PaillierSecretKey(
        pk=pk,
        p=p,
        q=r,
        h_p=pow(-r % p, -1, p),
        h_q=pow(-p % r, -1, r),
    )


def enc(key: Key, m: int, rng: RandomSource) -> Ciphertext:
    """Randomized encryption of m in [0, n); by CRT under a secret key."""
    pk = public(key)
    if not 0 <= m < pk.n:
        raise PlaintextOutOfRange(f"plaintext must be in [0, {pk.n})")
    while True:
        rho = 1 + rng.randbelow(pk.n - 1)
        if math.gcd(rho, pk.n) == 1:
            break
    if key is pk:
        blind = powmod(rho, pk.n, pk.n_squared)
    else:  # (x + kp)^p = x^p mod p^2, so rho^n = (rho^q mod p)^p mod p^2
        p, q = key.p, key.q
        p2, q2 = p * p, q * q
        b_p = powmod(powmod(rho, q % (p - 1), p), p, p2)
        b_q = powmod(powmod(rho, p % (q - 1), q), q, q2)
        blind = b_q + q2 * ((b_p - b_q) * pow(q2, -1, p2) % p2)
    # (n+1)^m = 1 + n*m mod n^2, so the generator power needs no exponentiation
    return (1 + pk.n * m) % pk.n_squared * blind % pk.n_squared


def _is_ciphertext(pk: PaillierPublicKey, c: int) -> bool:
    """c lies in [1, n^2) and is invertible mod n."""
    return 0 < c < pk.n_squared and math.gcd(c, pk.n) == 1


def dec(sk: PaillierSecretKey, c: Ciphertext) -> int:
    """m mod p = L_p(c^(p-1) mod p^2) * h_p, m mod q likewise, joined by CRT.
    A c outside [1, n^2) or sharing a factor with n is a MalformedCiphertext."""
    if not _is_ciphertext(sk.pk, c):
        raise MalformedCiphertext("ciphertext outside [1, n^2) or not invertible mod n")
    p, q = sk.p, sk.q
    m_p = (powmod(c, p - 1, p * p) - 1) // p * sk.h_p % p
    m_q = (powmod(c, q - 1, q * q) - 1) // q * sk.h_q % q
    # q^-1 = -h_p (mod p), so m = m_q + q * ((m_p - m_q) * q^-1 mod p)
    return m_q + q * ((m_q - m_p) * sk.h_p % p)


def hadd(pk: PaillierPublicKey, c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    """Ciphertext of m1 + m2 mod n."""
    return c1 * c2 % pk.n_squared


def hscale(pk: PaillierPublicKey, c: Ciphertext, k: int) -> Ciphertext:
    """Ciphertext of m * k mod n: c^k mod n^2."""
    return powmod(c, k, pk.n_squared)


def one_hot(
    key: Key, size: int, hot: int, rng: RandomSource
) -> tuple[Ciphertext, ...]:
    """Fresh encryptions of 1 at index hot and 0 elsewhere, drawn in index order."""
    if not 0 <= hot < size:
        raise IndexOutOfRange(f"index {hot} outside [0, {size})")
    return tuple(enc(key, 1 if i == hot else 0, rng) for i in range(size))


def select(
    pk: PaillierPublicKey, selector: tuple[Ciphertext, ...], rows: list[list[int]]
) -> tuple[Ciphertext, ...]:
    """One ciphertext per column j of sum_i m_i * rows[i][j], for the
    selector's plaintexts m_i: row hot under a one-hot selector. A peer
    supplies one side, so a row count off the selector's is a ShapeMismatch,
    and an entry outside [1, n^2) or sharing a factor with n is a
    MalformedCiphertext, refused before any scaling.

    Row i is scaled by entry i, one hscale per exponent, and folded into
    the column products in row order. hscale and hadd are looked up as
    module globals, so a tracer that rebinds them counts every call."""
    if not rows or len(rows) != len(selector):
        raise ShapeMismatch(f"{len(rows)} rows against {len(selector)} selector entries")
    if not all(_is_ciphertext(pk, c) for c in selector):
        raise MalformedCiphertext("selector entry outside [1, n^2) or not invertible mod n")
    columns = None
    for c, row in zip(selector, rows):
        terms = [hscale(pk, c, k) for k in row]
        columns = terms if columns is None else [
            hadd(pk, acc, term) for acc, term in zip(columns, terms)
        ]
    return tuple(columns)
