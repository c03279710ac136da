"""Prime-order multiplicative group arithmetic.

The group is the order-q subgroup of quadratic residues mod a safe prime
P = 2q + 1. Elements are plain ints in [1, P-1] with x^q = 1 mod P; scalars
(exponents) are plain ints reduced mod q. The public element C is sampled as
g^a with a discarded: the delegated-query transfers stay private only while
no party knows log_g C.

P and g are fixed: every group comes from one pinned table keyed by the
bits of q, with g = 4. The sizes are 4, the toy group P = 23, q = 11 that
can be checked by hand, and 512, 1024 and 2048, found once by the safe-prime
search in scripts/gen_pinned_groups.py and verified by the test suite. No
session searches for a prime; C is still freshly sampled per session.

Every power, of g or of any other base, is one numth.powmod call. Where
libcrypto loads, a power at 2048 bits takes about 2.5 ms, less than a
fixed-base comb of g evaluated in Python (3.5 ms) or shared squarings of
one base, so no base keeps a table. Without libcrypto each power is one
pow() call (about 27 ms at 2048 bits).
"""

from dataclasses import dataclass

from .errors import ElementOutOfRange, UsageError
from .numth import powmod
from .rng import RandomSource

GroupElement = int
Scalar = int


@dataclass(frozen=True)
class GroupParams:
    """Subgroup description (P, q, g) plus the public random element C."""

    P: int
    q: int
    g: int
    C: int

    def elem_bytes(self) -> int:
        return (self.P.bit_length() + 7) // 8


TOY_P, TOY_Q = 23, 11

# Safe primes with q of exactly the keyed bit length; g = 4 = 2^2 is a square,
# so it generates the order-q subgroup in each.
PINNED_SAFE_PRIMES: dict[int, int] = {
    TOY_Q.bit_length(): TOY_P,
    512: 0x13B0B3860808D61F6766990969FF60D1D1E270C51C364203AD2A3477CFC013A7D071D1A97AEB443F9216C3393A6EF5AFCF60053FDDEFEA5A1C25617754ABB620B,
    1024: 0x1EEC692260FA93843898334F5DE9C73519AAE262EB73DCCAE235E40EF5E61A12A6C037F54188F1B8EEC1C411B17AE85AC289864B50ED500AE7CD5208D5BC06516FB904F172352121F349B4198F3F31FE51643D5110423A0091FE6179D9FEAA2EC47EC566DA7B31817ACA390A4F94B0788F456CDEB4D6C2325EC0CEC67237DB153,
    2048: 0x127FF81DBCCB82A8A543F9E3184B4EE14C543D55FF87AC685FD779DB368C6475F4F31373C73176F947D2FAA83A82931A7FC58369929B2A9FC3BA4B48F153411677EF9BC0688E1E53562839AE5880B08C781992103C730EB352B5C15949FCAE2C64C2A0F5BD0A3F0DB592C3CD53A5E0AE14C047175558968F17A93C3F6E3C913A3773CFE565EEFFE2782EE80ADD1F0670C5B6695B95DA36002BA97E33D8F45F07254BEBB906230683FC436D333B10F67EE1CA0031CD9C0A26D2BB13215AF5E23197A5BF170EE4D55623DF24493D1B959296AFBC435AB1B8C65980B082A79CED7466959EF33D505D71B59B64F7414AE66B4B8C2F4286F67A2D0DBB75415594C6B8F,
}
PINNED_G = 4


def gen_group(bits: int, rng: RandomSource) -> GroupParams:
    """The pinned group whose q has the given bit length, with a fresh C = g^a;
    a size that is not in PINNED_SAFE_PRIMES raises UsageError."""
    if bits not in PINNED_SAFE_PRIMES:
        raise UsageError(f"bits must be a pinned size, one of {sorted(PINNED_SAFE_PRIMES)}")
    P = PINNED_SAFE_PRIMES[bits]
    q = (P - 1) // 2
    C = powmod(PINNED_G, 1 + rng.randbelow(q - 1), P)
    return GroupParams(P=P, q=q, g=PINNED_G, C=C)


def modexp(base: GroupElement, e: Scalar, params: GroupParams) -> GroupElement:
    """base^e mod P with the exponent reduced mod q."""
    return powmod(base, e % params.q, params.P)


def elem_mul(x: GroupElement, y: GroupElement, params: GroupParams) -> GroupElement:
    return x * y % params.P


def elem_div(x: GroupElement, y: GroupElement, params: GroupParams) -> GroupElement:
    """x * y^(-1) mod P."""
    return x * pow(y, -1, params.P) % params.P


def rand_scalar(params: GroupParams, rng: RandomSource, nonzero: bool = False) -> Scalar:
    """Uniform scalar in [0, q), or [1, q) in nonzero mode."""
    while True:
        v = rng.randbelow(params.q)
        if v or not nonzero:
            return v


def check_elements(params: GroupParams, *xs: GroupElement) -> None:
    """Refuse, with ElementOutOfRange, any x from a peer outside [1, P): 0
    has no inverse, and x + P would pass for x once reduced."""
    for x in xs:
        if not 0 < x < params.P:
            raise ElementOutOfRange("group element outside [1, P)")


def in_subgroup(x: int, params: GroupParams) -> bool:
    return 1 <= x < params.P and powmod(x, params.q, params.P) == 1


def elem_to_bytes(x: GroupElement, params: GroupParams) -> bytes:
    """Canonical fixed-width big-endian form, used as hash input."""
    return x.to_bytes(params.elem_bytes(), "big")
