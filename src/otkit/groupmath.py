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
exponentiations, so without gmpy2 they go through a fixed-base comb, the
two-dimensional table of Lim-Lee (CRYPTO '94). An exponent of n bits is read
as h rows of c = ceil(n / h) bits, and each row as v blocks of
b = ceil(c / v) bits. Block j has a sub-table of the 2^h products of its
heads g^(2^((i*v + j)*b)), one head per row i, so the comb holds v * 2^h
entries, and g^e costs b squarings and v * b >= c products instead of about
n squarings. The one-block case v = 1 is the one-dimensional comb. The g
table takes the shape with the fewest products per exponent within
COMB_ENTRIES = 2048 entries: h = 9, v = 4 at every pinned size, 57 + 228
products at 2048 bits. That table takes 0.63 MB and 48 ms to build, and g^e
takes 3.5 ms against 21 ms for pow() and 4.7 ms for the 10-row
one-dimensional comb (1.36x; 1.33x at 1024 bits; Python 3.11, no gmpy2).
Tables are built on first use and kept for the last COMB_GROUPS distinct
(g, P); with gmpy2, powers of g use its powmod.

A sender that raises one other base to many exponents in a session (the
multi-receiver senders raise b0 and b1 to z exponents each) asks
base_powers(base, params, uses) for a power function. It builds a comb of
that base for exponents below q, used for that session only, when the comb
pays. comb_shape picks its (rows, blocks) from the bit length k of q and
the number of uses u: building costs about k squarings and v * 2^h products,
and each exponent b + v * b products, against about 1.2 * k products per
pow(). Of the shapes with h <= SHARED_ROWS_MAX and at most COMB_ENTRIES
entries, the cheapest wins if it beats u pow() calls. v = 1 is among them,
so by this count no choice costs more than the one-dimensional comb. One
use never builds a table, and neither does a q under SHARED_MIN_BITS, where
interpreter overhead outweighs the products saved (so the toy group never
does). Without a table, and always with gmpy2, the power function is modexp.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

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
        a=a if retain_dlog else None,
    )


def gen_group(bits: int, rng: RandomSource, retain_dlog: bool = False) -> GroupParams:
    """Group parameters with a q of the given bit length and a fresh C = g^a.

    Pinned moduli are used when available, else a safe prime is searched
    for. Raises PrimeSearchExhausted when the search budget runs out.
    """
    if bits < 4:
        raise UsageError("bits must be at least 4")
    if bits in PINNED_SAFE_PRIMES:
        P = PINNED_SAFE_PRIMES[bits]
        q = (P - 1) // 2
        g = PINNED_G
    else:
        P, q = gen_safe_prime(bits, rng)
        while True:
            h = 2 + rng.randbelow(P - 3)
            g = powmod(h, 2, P)
            if g != 1:
                break
    a = 1 + rng.randbelow(q - 1)
    C = _pow_g(g, a, P)
    return GroupParams(P=P, q=q, g=g, C=C, a=a if retain_dlog else None)


COMB_ENTRIES = 2048
COMB_GROUPS = 8
SHARED_ROWS_MAX = 8
SHARED_MIN_BITS = 512
POW_PRODUCTS_PER_BIT = 1.2

Comb = tuple[int, int, tuple[tuple[int, ...], ...]]


def _comb_width(bits: int, rows: int, blocks: int) -> int:
    """Columns per block, b = ceil(ceil(bits / rows) / blocks)."""
    return -(-(-(-bits // rows)) // blocks)


def _comb_cost(bits: int, rows: int, blocks: int) -> tuple[int, int]:
    """(products to build, products per exponent) of the (rows, blocks) comb
    for exponents below 2^bits."""
    width = _comb_width(bits, rows, blocks)
    return (rows * blocks - 1) * width + (blocks << rows), (blocks + 1) * width


def _comb_shapes(bits: int, rows_max: int) -> Iterator[tuple[int, int]]:
    """Every (rows, blocks) with rows <= rows_max, at least one column per
    block and at most COMB_ENTRIES table entries, one at a time: there are
    about two thousand, and a list of them would raise peak memory."""
    return (
        (rows, blocks)
        for rows in range(1, rows_max + 1)
        for blocks in range(1, min(-(-bits // rows), COMB_ENTRIES >> rows) + 1)
    )


def _comb_build(base: int, P: int, bits: int, rows: int, blocks: int) -> Comb:
    """(rows, width, tables): the (rows, blocks) comb of base for exponents
    below 2^bits.

    The exponent is read as `rows` rows of blocks * width bits, each cut into
    `blocks` blocks of width bits. tables[k] serves block j = blocks - 1 - k:
    tables[k][x] is the product of base^(2^((i * blocks + j) * width)) over
    the bits i of x.
    """
    width = _comb_width(bits, rows, blocks)
    heads = [base % P]
    for _ in range(rows * blocks - 1):
        head = heads[-1]
        for _ in range(width):
            head = head * head % P
        heads.append(head)
    tables = []
    for j in reversed(range(blocks)):
        table = [1]
        for head in heads[j::blocks]:
            table += [t * head % P for t in table]
        tables.append(tuple(table))
    return rows, width, tuple(tables)


def _comb_eval(comb: Comb, e: int, P: int) -> int:
    """base^e mod P for 0 <= e < 2^(rows * blocks * width), from base's comb."""
    rows, width, tables = comb
    span = len(tables) * width
    # Row i of e is the string digits[(rows-1-i)*span : (rows-i)*span], and the
    # block of tables[k] is the substring at k*width of each row. Zipping one
    # block's substrings over the rows gives that block's columns, high column
    # first, with row i's bit at place i of the column's index.
    digits = format(e, f"0{rows * span}b")
    blocks = []
    for table, start in zip(tables, range(0, span, width)):
        block = [digits[k : k + width] for k in range(start, rows * span, span)]
        blocks.append([table[int("".join(column), 2)] for column in zip(*block)])
    acc = 1
    for entries in zip(*blocks):
        acc = acc * acc % P
        for entry in entries:
            acc = acc * entry % P
    return acc


@lru_cache(maxsize=COMB_GROUPS)
def _comb_table(g: int, P: int) -> Comb:
    """The comb of g for exponents below P, kept per (g, P): of the shapes
    within COMB_ENTRIES, the one with the fewest products per exponent."""
    bits = P.bit_length()
    rows, blocks = min(_comb_shapes(bits, bits), key=lambda s: _comb_cost(bits, *s)[::-1])
    return _comb_build(g, P, bits, rows, blocks)


def _pow_g(g: int, e: int, P: int) -> int:
    """g^e mod P; for 0 <= e < P without gmpy2, by the comb of (g, P)."""
    if HAVE_GMPY2 or not 0 <= e < P:
        return powmod(g, e, P)
    return _comb_eval(_comb_table(g, P), e, P)


def modexp(base: GroupElement, e: Scalar, params: GroupParams) -> GroupElement:
    """base^e mod P with the exponent reduced mod q; powers of g use the comb."""
    e %= params.q
    if base == params.g:
        return _pow_g(base, e, params.P)
    return powmod(base, e, params.P)


@lru_cache
def comb_shape(bits: int, uses: int) -> tuple[int, int] | None:
    """(rows, blocks) of the cheapest comb for `uses` exponents below 2^bits,
    or None when `uses` pow() calls cost less (see the module docstring).
    Kept per (bits, uses): the search weighs about two thousand shapes."""
    if uses < 2 or bits < SHARED_MIN_BITS:
        return None

    def products(shape: tuple[int, int]) -> int:
        build, each = _comb_cost(bits, *shape)
        return build + uses * each

    shape = min(_comb_shapes(bits, SHARED_ROWS_MAX), key=products)
    return shape if products(shape) < uses * POW_PRODUCTS_PER_BIT * bits else None


def base_powers(base: GroupElement, params: GroupParams, uses: int) -> Power:
    """e -> base^(e mod q) mod P, for about `uses` exponents: through one comb
    of base when comb_shape says it pays, else through modexp."""
    bits = params.q.bit_length()
    shape = None if HAVE_GMPY2 else comb_shape(bits, uses)
    if shape is None:
        return lambda e: modexp(base, e, params)
    P, q = params.P, params.q
    comb = _comb_build(base, P, bits, *shape)
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
