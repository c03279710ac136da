"""Shared protocol primitives.

XOR secret sharing of a bit, controlled swaps, the random pair permutation,
the two random-oracle hashes, the parse split, and byte XOR. Messages are
whole-byte strings of a fixed session length sigma; bit lengths are always
8 times the byte length.
"""

import hashlib

from .errors import InputTooShort, LengthMismatch, UsageError
from .rng import RandomSource

ByteString = bytes


def ss_share(s: int, rng: RandomSource) -> tuple[int, int]:
    """Split a bit into XOR shares (s1, s2), s1 uniform and s1 ^ s2 = s."""
    if s not in (0, 1):
        raise UsageError("shared bit must be 0 or 1")
    s1 = rng.randbit()
    return s1, s ^ s1


def controlled_swap(b: int, pair):
    """Return the pair as-is for b=0, elements exchanged for b=1."""
    if b not in (0, 1):
        raise UsageError("swap bit must be 0 or 1")
    c0, c1 = pair
    return (c1, c0) if b else (c0, c1)


def random_permute_pair(pair, rng: RandomSource):
    """Controlled swap driven by a fresh uniform coin."""
    return controlled_swap(rng.randbit(), pair)


def hash_H(data: ByteString, sigma_bits: int) -> ByteString:
    """Random oracle onto sigma_bits, domain tag "H"."""
    if sigma_bits % 8:
        raise UsageError("sigma_bits must be a multiple of 8")
    return hashlib.shake_256(b"H" + data).digest(sigma_bits // 8)


def hash_G(data: ByteString, sigma_bits: int, lambda_bits: int) -> ByteString:
    """Random oracle onto sigma_bits + lambda_bits, domain tag "G"."""
    if sigma_bits % 8 or lambda_bits % 8:
        raise UsageError("digest lengths must be multiples of 8")
    return hashlib.shake_256(b"G" + data).digest((sigma_bits + lambda_bits) // 8)


def parse(lambda_bits: int, y: ByteString) -> tuple[ByteString, ByteString]:
    """Split y into (leading |y|-lambda bits, trailing lambda bits)."""
    if lambda_bits % 8:
        raise UsageError("lambda_bits must be a multiple of 8")
    cut = lambda_bits // 8
    if len(y) < cut:
        raise InputTooShort(f"need {cut} trailing bytes, have {len(y)}")
    return y[: len(y) - cut], y[len(y) - cut :]


def xor_bytes(a: ByteString, b: ByteString) -> ByteString:
    if len(a) != len(b):
        raise LengthMismatch(f"{len(a)} vs {len(b)} bytes")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")
