"""Print the four share cells of the delegated query in the toy group.

Every value is small enough to check by hand: P=23, q=11, g=4, and C=g^a for
a chosen a. For each (s1, s2) cell the script shows the partial pair, the
final pair, the retrieval exponent x, and that the slot for s = s1 xor s2
holds g^x. Useful when staring at a failing identity.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from otkit.dq_family import (
    DelegationRequest,
    dq_p1_gen_query,
    dq_p2_gen_query,
    retrieval_exponent,
)
from otkit.groupmath import elem_mul, modexp, toy_group


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=int, default=8, help="dlog of C, in [1, 11)")
    ap.add_argument("--r1", type=int, default=2, help="P1 blind")
    ap.add_argument("--r2", type=int, default=3, help="P2 blind")
    args = ap.parse_args()

    pk = toy_group(a=args.a, retain_dlog=True)
    print(f"P={pk.P} q={pk.q} g={pk.g} C=g^{pk.a}={pk.C} "
          f"r1={args.r1} r2={args.r2}\n")
    print(f"{'s1':>2} {'s2':>2} {'(d0,d1)':>10} {'(b0,b1)':>10} "
          f"{'b0*b1':>5} {'x':>3}  g^x=b_s")
    for s1 in (0, 1):
        for s2 in (0, 1):
            partial = dq_p2_gen_query(
                DelegationRequest(share=s2, blind=args.r2), pk
            )
            final = dq_p1_gen_query(
                DelegationRequest(share=s1, blind=args.r1), partial, pk
            )
            x = retrieval_exponent(args.r1, args.r2, s2, pk)
            s = s1 ^ s2
            b = (final.b0, final.b1)
            ok = "yes" if modexp(pk.g, x, pk) == b[s] else "NO"
            print(f"{s1:>2} {s2:>2} "
                  f"{f'({partial.d0},{partial.d1})':>10} "
                  f"{f'({final.b0},{final.b1})':>10} "
                  f"{elem_mul(final.b0, final.b1, pk):>5} {x:>3}  {ok}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
