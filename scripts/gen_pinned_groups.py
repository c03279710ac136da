"""Regenerate the pinned safe-prime table in groupmath.py.

Each modulus comes from a fixed SHAKE-256 candidate stream seeded with its
own bit length, so reruns reproduce the table bit for bit. 512 takes well
under a second, 1024 around ten seconds, 2048 minutes; pass --bits to
regenerate a subset.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from otkit.groupmath import PINNED_SAFE_PRIMES
from otkit.numth import gen_safe_prime
from otkit.rng import SeededSource


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
