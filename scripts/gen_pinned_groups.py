"""Regenerate the pinned safe-prime table in groupmath.py.

This script owns the toolkit's one safe-prime search, gen_safe_prime:
sessions only take groups from the table, so no session searches. The 4-bit
row is the toy group, written from TOY_P and TOY_Q; this script regenerates
the others.

Each modulus comes from a fixed SHAKE-256 candidate stream seeded with its
own bit length, so reruns reproduce the table bit for bit. 512 takes well
under a second, 1024 around ten seconds, 2048 minutes; pass --bits to
regenerate a subset.

    python scripts/gen_pinned_groups.py --bits 512
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from otkit.errors import PrimeSearchExhausted
from otkit.groupmath import PINNED_SAFE_PRIMES
from otkit.numth import is_probable_prime
from otkit.rng import SeededSource


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bits", type=int, nargs="*", default=[512, 1024, 2048],
                    help="subgroup order sizes to regenerate")
    args = ap.parse_args()

    print("PINNED_SAFE_PRIMES: dict[int, int] = {")
    for bits in args.bits:
        t0 = time.time()
        P, q = gen_safe_prime(bits, SeededSource(bits))
        assert q.bit_length() == bits and P.bit_length() == bits + 1
        assert pow(4, q, P) == 1
        note = ""
        if bits in PINNED_SAFE_PRIMES:
            match = "matches" if PINNED_SAFE_PRIMES[bits] == P else "DIFFERS FROM"
            note = f"  # {match} the committed table"
        print(f"    {bits}: 0x{P:X},{note}")
        print(f"# {bits}: {time.time() - t0:.1f}s", file=sys.stderr)
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
