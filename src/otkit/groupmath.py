"""Prime-order multiplicative group arithmetic.

The group is the order-q subgroup of quadratic residues mod a safe prime
P = 2q + 1. Elements are plain ints in [1, P-1] with x^q = 1 mod P; scalars
(exponents) are plain ints reduced mod q. The public element C is sampled as
g^a with a discarded, except in debug groups that retain a so the query-pair
exponent identities can be checked directly.

Fresh safe-prime searches are only practical at small sizes, so the common
production sizes come from pinned moduli (generated once by
scripts/gen_pinned_groups.py and verified by the test suite); C is still
freshly sampled per session.

Powers of the generator g (g^r, g^y, C = g^a) are most of a session's
exponentiations, so without gmpy2 they go through a fixed-base comb table
(Lim-Lee, CRYPTO '94). For an n-bit P and COMB_ROWS = 10 rows, the exponent
is cut into 10 rows of c = ceil(n / 10) bits and the table holds the 1024
products of the row heads g^(2^(i*c)); g^e then costs c squarings and c
multiplications instead of about n squarings. At 2048 bits that is 205 + 205
products, the table takes about 0.3 MB and 50 ms to build, and g^e runs
about 4x faster than pow(). Tables are built on first use and kept for the
last COMB_GROUPS distinct (g, P); with gmpy2, powers of g use its powmod.

A sender that raises one other base to many exponents in a session (the
multi-receiver senders raise b0 and b1 to z exponents each) asks
base_powers(base, params, uses) for a power function. It builds a comb table
of that base for exponents below q, used for that session only, when the
table pays. comb_rows picks its row count r <= SHARED_ROWS_MAX from the bit
length k of q and the number of uses u. With c = ceil(k / r) columns, the
table costs (r - 1) * c squarings and 2^r products to build and 2c products
per exponent, against about 1.2 * k products per pow(). The cheapest r wins
if it beats u pow() calls. One use never builds a table, and neither does a
q under SHARED_MIN_BITS, where interpreter overhead outweighs the products
saved (so the toy group never does). Without a table, and always with
gmpy2, the power function is modexp.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import UsageError
from .numth import HAVE_GMPY2, gen_safe_prime, invmod, powmod
from .rng import RandomSource

GroupElement = int
Scalar = int
Power = Callable[[Scalar], GroupElement]


@dataclass(frozen=True)
class GroupParams:
    """Subgroup description (P, q, g) plus the public random element C.

    a is normally None; a debug group retains the discrete log of C.
    """

    P: int
    q: int
    g: int
    C: int
    lambda_bits: int
    a: int | None = None

    def elem_bytes(self) -> int:
        return (self.P.bit_length() + 7) // 8


TOY_P, TOY_Q, TOY_G = 23, 11, 4

# Safe primes with q of exactly the keyed bit length; g = 4 = 2^2 is a square,
# so it generates the order-q subgroup in each.
PINNED_SAFE_PRIMES: dict[int, int] = {
    512: 0x13B0B3860808D61F6766990969FF60D1D1E270C51C364203AD2A3477CFC013A7D071D1A97AEB443F9216C3393A6EF5AFCF60053FDDEFEA5A1C25617754ABB620B,
    1024: 0x1EEC692260FA93843898334F5DE9C73519AAE262EB73DCCAE235E40EF5E61A12A6C037F54188F1B8EEC1C411B17AE85AC289864B50ED500AE7CD5208D5BC06516FB904F172352121F349B4198F3F31FE51643D5110423A0091FE6179D9FEAA2EC47EC566DA7B31817ACA390A4F94B0788F456CDEB4D6C2325EC0CEC67237DB153,
    2048: 0x127FF81DBCCB82A8A543F9E3184B4EE14C543D55FF87AC685FD779DB368C6475F4F31373C73176F947D2FAA83A82931A7FC58369929B2A9FC3BA4B48F153411677EF9BC0688E1E53562839AE5880B08C781992103C730EB352B5C15949FCAE2C64C2A0F5BD0A3F0DB592C3CD53A5E0AE14C047175558968F17A93C3F6E3C913A3773CFE565EEFFE2782EE80ADD1F0670C5B6695B95DA36002BA97E33D8F45F07254BEBB906230683FC436D333B10F67EE1CA0031CD9C0A26D2BB13215AF5E23197A5BF170EE4D55623DF24493D1B959296AFBC435AB1B8C65980B082A79CED7466959EF33D505D71B59B64F7414AE66B4B8C2F4286F67A2D0DBB75415594C6B8F,
}
PINNED_G = 4


def toy_group(a: int = 8, retain_dlog: bool = False) -> GroupParams:
    """The canonical brute-forceable group P=23, q=11, g=4 (C = 4^a, default 9)."""
    if not 1 <= a < TOY_Q:
        raise UsageError("toy dlog must be in [1, q)")
    return GroupParams(
        P=TOY_P,
        q=TOY_Q,
        g=TOY_G,
        C=pow(TOY_G, a, TOY_P),
        lambda_bits=TOY_Q.bit_length(),
        a=a if retain_dlog else None,
    )


def gen_group(
    lambda_bits: int, rng: RandomSource, retain_dlog: bool = False
) -> GroupParams:
    """Group parameters with a q of lambda_bits bits and a fresh C = g^a.

    Pinned moduli are used when available, else a safe prime is searched
    for. Raises PrimeSearchExhausted when the search budget runs out.
    """
    if lambda_bits < 4:
        raise UsageError("lambda_bits must be at least 4")
    if lambda_bits in PINNED_SAFE_PRIMES:
        P = PINNED_SAFE_PRIMES[lambda_bits]
        q = (P - 1) // 2
        g = PINNED_G
    else:
        P, q = gen_safe_prime(lambda_bits, rng)
        while True:
            h = 2 + rng.randbelow(P - 3)
            g = powmod(h, 2, P)
            if g != 1:
                break
    a = 1 + rng.randbelow(q - 1)
    C = _pow_g(g, a, P)
    return GroupParams(
        P=P, q=q, g=g, C=C, lambda_bits=lambda_bits, a=a if retain_dlog else None
    )


COMB_ROWS = 10
COMB_GROUPS = 8
SHARED_ROWS_MAX = 8
SHARED_MIN_BITS = 512
POW_PRODUCTS_PER_BIT = 1.2


def _comb_build(base: int, P: int, rows: int, bits: int) -> tuple[int, int, tuple[int, ...]]:
    """(rows, cols, table) for exponents below 2^bits, with cols = ceil(bits / rows)
    and table[j] = prod of base^(2^(i*cols)) over the bits i of j."""
    cols = -(-bits // rows)
    table = [1]
    head = base % P
    for i in range(rows):
        table += [t * head % P for t in table]
        if i < rows - 1:
            for _ in range(cols):
                head = head * head % P
    return rows, cols, tuple(table)


def _comb_eval(comb: tuple[int, int, tuple[int, ...]], e: int, P: int) -> int:
    """base^e mod P for 0 <= e < 2^(rows*cols), from the base's _comb_build table."""
    rows, cols, table = comb
    # Row i of e is the string digits[(rows-1-i)*cols : (rows-i)*cols], so
    # zipping the rows gives e's columns, high column first, with row i's bit
    # at place i of the column's index.
    digits = format(e, f"0{rows * cols}b")
    acc = 1
    for column in zip(*[digits[k : k + cols] for k in range(0, rows * cols, cols)]):
        acc = acc * acc % P * table[int("".join(column), 2)] % P
    return acc


@lru_cache(maxsize=COMB_GROUPS)
def _comb_table(g: int, P: int) -> tuple[int, int, tuple[int, ...]]:
    """The comb table of g for exponents below P, kept per (g, P)."""
    return _comb_build(g, P, min(COMB_ROWS, P.bit_length()), P.bit_length())


def _pow_g(g: int, e: int, P: int) -> int:
    """g^e mod P; for 0 <= e < P without gmpy2, by the comb table of (g, P)."""
    if HAVE_GMPY2 or not 0 <= e < P:
        return powmod(g, e, P)
    return _comb_eval(_comb_table(g, P), e, P)


def modexp(base: GroupElement, e: Scalar, params: GroupParams) -> GroupElement:
    """base^e mod P with the exponent reduced mod q; powers of g use the comb table."""
    e %= params.q
    if base == params.g:
        return _pow_g(base, e, params.P)
    return powmod(base, e, params.P)


def comb_rows(bits: int, uses: int) -> int:
    """Rows of the cheapest table for `uses` exponents below 2^bits, or 0 when
    `uses` pow() calls cost less (see the module docstring)."""
    if uses < 2 or bits < SHARED_MIN_BITS:
        return 0

    def products(rows: int) -> int:
        cols = -(-bits // rows)
        return (rows - 1) * cols + (1 << rows) + uses * 2 * cols

    rows = min(range(1, SHARED_ROWS_MAX + 1), key=products)
    return rows if products(rows) < uses * POW_PRODUCTS_PER_BIT * bits else 0


def base_powers(base: GroupElement, params: GroupParams, uses: int) -> Power:
    """e -> base^(e mod q) mod P, for about `uses` exponents: through one comb
    table of base when comb_rows says it pays, else through modexp."""
    bits = params.q.bit_length()
    rows = 0 if HAVE_GMPY2 else comb_rows(bits, uses)
    if not rows:
        return lambda e: modexp(base, e, params)
    P, q = params.P, params.q
    comb = _comb_build(base, P, rows, bits)
    return lambda e: _comb_eval(comb, e % q, P)


def elem_mul(x: GroupElement, y: GroupElement, params: GroupParams) -> GroupElement:
    return x * y % params.P


def elem_div(x: GroupElement, y: GroupElement, params: GroupParams) -> GroupElement:
    """x * y^(-1) mod P."""
    return x * invmod(y, params.P) % params.P


def rand_scalar(params: GroupParams, rng: RandomSource, nonzero: bool = False) -> Scalar:
    """Uniform scalar in [0, q), or [1, q) in nonzero mode."""
    while True:
        v = rng.randbelow(params.q)
        if v or not nonzero:
            return v


def in_subgroup(x: int, params: GroupParams) -> bool:
    return 1 <= x < params.P and powmod(x, params.q, params.P) == 1


def elem_to_bytes(x: GroupElement, params: GroupParams) -> bytes:
    """Canonical fixed-width big-endian form, used as hash input."""
    return x.to_bytes(params.elem_bytes(), "big")
