"""Group arithmetic over the order-q subgroup mod a safe prime."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit import groupmath
from otkit.errors import UsageError
from otkit.groupmath import (
    COMB_ENTRIES,
    COMB_GROUPS,
    PINNED_G,
    PINNED_SAFE_PRIMES,
    SHARED_ROWS_MAX,
    GroupParams,
    TOY_G,
    TOY_P,
    TOY_Q,
    base_powers,
    comb_shape,
    elem_div,
    elem_mul,
    elem_to_bytes,
    gen_group,
    in_subgroup,
    modexp,
    rand_scalar,
    toy_group,
    _comb_table,
    _pow_g,
)
from otkit.harness import PROTOCOLS, SessionConfig, export_transcript, run_session
from otkit.numth import is_probable_prime
from otkit.rng import SeededSource

scalars = st.integers(min_value=0, max_value=10 * TOY_Q)


class TestToyGroup:
    def test_constants(self):
        params = toy_group()
        assert (params.P, params.q, params.g) == (23, 11, 4)
        assert params.C == 9  # 4^8 mod 23
        assert params.a is None

    def test_retained_dlog(self):
        assert toy_group(retain_dlog=True).a == 8
        assert toy_group(a=3, retain_dlog=True).C == pow(4, 3, 23)

    def test_dlog_range(self):
        with pytest.raises(UsageError):
            toy_group(a=0)
        with pytest.raises(UsageError):
            toy_group(a=11)

    def test_frozen_modexp(self, toy):
        assert modexp(4, 3, toy) == 18

    def test_frozen_division(self, toy):
        # 4 * 6 = 24 = 1 mod 23
        assert elem_div(1, 4, toy) == 6

    def test_exponent_reduced_mod_q(self, toy):
        assert modexp(toy.g, toy.q + 3, toy) == modexp(toy.g, 3, toy)
        assert modexp(toy.g, -1, toy) == modexp(toy.g, toy.q - 1, toy)

    def test_subgroup_membership(self, toy):
        members = {modexp(toy.g, e, toy) for e in range(toy.q)}
        assert len(members) == toy.q
        for x in range(1, toy.P):
            assert in_subgroup(x, toy) == (x in members)


class TestGroupLaws:
    @given(a=scalars, b=scalars)
    @settings(max_examples=200)
    def test_exponent_addition(self, a, b):
        params = toy_group()
        lhs = modexp(params.g, a + b, params)
        rhs = elem_mul(modexp(params.g, a, params), modexp(params.g, b, params), params)
        assert lhs == rhs

    @given(a=scalars, b=scalars)
    @settings(max_examples=200)
    def test_mul_div_cancel(self, a, b):
        params = toy_group()
        x = modexp(params.g, a, params)
        y = modexp(params.g, b, params)
        assert elem_div(elem_mul(x, y, params), y, params) == x

    @given(a=scalars)
    @settings(max_examples=100)
    def test_order_q(self, a):
        params = toy_group()
        assert modexp(modexp(params.g, a, params), params.q, params) == 1


class TestGenGroup:
    def test_pinned_sizes(self):
        for bits, P in PINNED_SAFE_PRIMES.items():
            q = (P - 1) // 2
            assert P.bit_length() == bits + 1
            assert q.bit_length() == bits
            assert P == 2 * q + 1

    def test_pinned_are_safe_primes(self):
        # full check at 512; the larger ones are spot checks on q only
        P = PINNED_SAFE_PRIMES[512]
        assert is_probable_prime(P) and is_probable_prime((P - 1) // 2)
        for bits in (1024, 2048):
            assert is_probable_prime(PINNED_SAFE_PRIMES[bits])

    def test_bit_lengths_at_2048(self):
        params = gen_group(2048, SeededSource(1))
        assert params.P.bit_length() == 2049
        assert params.q.bit_length() == 2048

    def test_retained_dlog_consistent(self, group512):
        assert group512.a is not None
        assert modexp(group512.g, group512.a, group512) == group512.C
        assert in_subgroup(group512.C, group512)

    def test_c_varies_with_rng(self):
        a = gen_group(512, SeededSource(1))
        b = gen_group(512, SeededSource(2))
        assert a.P == b.P and a.g == b.g
        assert a.C != b.C
        assert a.a is None

    def test_fresh_modulus_search(self):
        params = gen_group(32, SeededSource(3))
        assert params.q.bit_length() == 32
        assert is_probable_prime(params.P)
        assert is_probable_prime(params.q)
        assert in_subgroup(params.g, params)
        assert modexp(params.g, params.q, params) == 1

    def test_tiny_lambda_rejected(self):
        with pytest.raises(UsageError):
            gen_group(3, SeededSource(1))

    def test_rand_scalar_bounds(self, toy, rng):
        seen = {rand_scalar(toy, rng) for _ in range(200)}
        assert seen <= set(range(toy.q))
        assert 0 in seen
        nonzero = {rand_scalar(toy, rng, nonzero=True) for _ in range(200)}
        assert 0 not in nonzero


@pytest.fixture(scope="module", params=["toy", 512, 1024, 2048, "fresh"])
def any_group(request):
    if request.param == "toy":
        return toy_group(retain_dlog=True)
    if request.param == "fresh":
        return gen_group(32, SeededSource(3), retain_dlog=True)
    return gen_group(request.param, SeededSource(request.param), retain_dlog=True)


def _seams(rows, blocks, width):
    """Exponents at every row and block boundary of a comb, and one either side."""
    return [(1 << (t * width)) + d for t in range(1, rows * blocks) for d in (-1, 0, 1)]


# bits of P -> (rows, blocks) of the g table (toy, fresh 32-bit q, pinned sizes)
G_SHAPES = {5: (5, 1), 33: (9, 4), 513: (9, 4), 1025: (9, 4), 2049: (9, 4)}


class TestFixedBase:
    """Powers of g take the comb table; they must equal pow() exactly."""

    def test_edge_exponents(self, any_group):
        P, q, g = any_group.P, any_group.q, any_group.g
        rows, width, tables = _comb_table(g, P)
        exponents = [0, 1, 2, q - 1, q, q + 1, -1, 2 * q + 5, P - 1, P, P + 5, 3 * P] + _seams(
            rows, len(tables), width
        )
        for e in exponents:
            assert modexp(g, e, any_group) == pow(g, e % q, P), e
            assert _pow_g(g, e, P) == pow(g, e, P), e

    def test_seeded_exponents(self, any_group):
        P, q, g = any_group.P, any_group.q, any_group.g
        rnd = random.Random(q.bit_length())
        for _ in range(40):
            e = rnd.randrange(-q, 3 * q)
            assert modexp(g, e, any_group) == pow(g, e % q, P), e

    def test_public_element_is_g_to_a(self, any_group):
        assert any_group.C == pow(any_group.g, any_group.a, any_group.P)

    def test_table_shape(self, any_group):
        P, g = any_group.P, any_group.g
        rows, width, tables = _comb_table(g, P)
        blocks = len(tables)
        assert (rows, blocks) == G_SHAPES[P.bit_length()]
        assert blocks << rows <= COMB_ENTRIES
        assert width == -(-(-(-P.bit_length() // rows)) // blocks)
        assert all(len(table) == 1 << rows for table in tables)
        # tables[-1] is block 0: its heads are g^(2^(i * blocks * width))
        assert tables[-1][1] == g and tables[-1][2] == pow(g, 1 << (blocks * width), P)
        # tables[0] is the top block, whose lowest head is g^(2^((blocks - 1) * width))
        assert tables[0][1] == pow(g, 1 << ((blocks - 1) * width), P)

    def test_exponents_outside_table_width(self, group512):
        P, g = group512.P, group512.g
        for e in (P - 1, P, P + 5, 1 << P.bit_length(), -3):
            assert _pow_g(g, e, P) == pow(g, e, P), e

    def test_cache_bounded(self, group512):
        P, q = group512.P, group512.q
        groups = [
            GroupParams(P=P, q=q, g=k * k, C=k * k)
            for k in range(2, COMB_GROUPS + 6)
        ]
        for params in groups + groups[:2]:
            assert modexp(params.g, 12345, params) == pow(params.g, 12345, P)
        assert _comb_table.cache_info().currsize == COMB_GROUPS

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_session_matches_one_dimensional_comb(self, protocol, monkeypatch):
        # the old one-dimensional comb is the one-block case of the same table
        cfg = SessionConfig(protocol=protocol, sigma_bits=64, lambda_bits=64,
                            group_bits=512, seed=4200, s=1)
        if protocol.endswith("-mr"):
            cfg.db, cfg.v = tuple((bytes([i]) * 8, bytes([0x80 | i]) * 8) for i in range(4)), 2
        else:
            cfg.m0, cfg.m1 = b"\x0a" * 8, b"\xf5" * 8
        two_dimensional = export_transcript(run_session(cfg))
        build = groupmath._comb_build
        monkeypatch.setattr(groupmath, "_comb_build",
                            lambda base, P, bits, rows, blocks: build(base, P, bits, rows, 1))
        _comb_table.cache_clear()
        try:
            assert export_transcript(run_session(cfg)) == two_dimensional
            if protocol != "supersonic":
                assert len(_comb_table(PINNED_G, PINNED_SAFE_PRIMES[512])[2]) == 1
        finally:
            _comb_table.cache_clear()


USES = (1, 2, 4, 32)

# (bits of q, uses) -> (rows, blocks) of the shared-base table; None means modexp
SHARED_SHAPES = {
    (4, 1): None, (4, 2): None, (4, 4): None, (4, 32): None,
    (512, 1): None, (512, 2): (6, 1), (512, 4): (6, 2), (512, 32): (7, 5),
    (1024, 1): None, (1024, 2): (6, 2), (1024, 4): (6, 3), (1024, 32): (8, 4),
    (2048, 1): None, (2048, 2): (6, 2), (2048, 4): (7, 3), (2048, 32): (8, 6),
}


@pytest.fixture(scope="module", params=["toy", 512, 1024, 2048])
def shared_group(request):
    if request.param == "toy":
        return toy_group()
    return gen_group(request.param, SeededSource(request.param))


class TestSharedBase:
    """Powers of one other base through base_powers must equal pow() exactly."""

    def test_powers_match_pow(self, shared_group):
        P, q = shared_group.P, shared_group.q
        base = shared_group.C
        bits = q.bit_length()
        rnd = random.Random(bits + 1)
        common = [0, 1, 2, q - 1, q, q + 1, -1, P - 1, P, P + 5, 3 * P] + [
            rnd.randrange(-q, 3 * q) for _ in range(40)
        ]
        expected = {}  # the pow() oracle, once per exponent
        for uses in USES:
            shape = comb_shape(bits, uses)
            seams = _seams(*shape, groupmath._comb_width(bits, *shape)) if shape else []
            power = base_powers(base, shared_group, uses)
            for e in common + seams:
                if e not in expected:
                    expected[e] = pow(base, e % q, P)
                assert power(e) == expected[e], (uses, e)

    def test_pinned_paths(self, shared_group, monkeypatch):
        built = []
        build = groupmath._comb_build
        monkeypatch.setattr(
            groupmath, "_comb_build", lambda *args: built.append(args[3:]) or build(*args)
        )
        bits = shared_group.q.bit_length()
        for uses in USES:
            built.clear()
            base_powers(shared_group.C, shared_group, uses)
            shape = SHARED_SHAPES[(bits, uses)]
            assert comb_shape(bits, uses) == shape
            assert built == ([shape] if shape else [])

    def test_row_cap_and_single_use(self):
        for bits in (4, 64, 511, 512, 1024, 2048, 4096, 8192):
            assert comb_shape(bits, 1) is None
            for uses in (2, 3, 8, 100, 10_000):
                shape = comb_shape(bits, uses)
                if shape is None:
                    continue
                rows, blocks = shape
                assert 1 <= rows <= SHARED_ROWS_MAX == 8 and blocks << rows <= COMB_ENTRIES

                def products(rows, blocks):
                    build, each = groupmath._comb_cost(bits, rows, blocks)
                    return build + uses * each

                # one block stays in the search, so no table costs more than a 1-D one
                assert products(*shape) <= min(products(r, 1) for r in range(1, 9))

    @pytest.mark.parametrize("protocol", ["dq-mr", "duq-mr"])
    @pytest.mark.parametrize("z", [1, 4])
    def test_session_matches_single_use_path(self, protocol, z, monkeypatch):
        db = tuple((bytes([i]) * 8, bytes([0x80 | i]) * 8) for i in range(z))
        cfg = SessionConfig(protocol=protocol, sigma_bits=64, lambda_bits=64,
                            group_bits=512, seed=4100 + z, s=1, db=db, v=z - 1)

        def digest():
            t = run_session(cfg)
            assert t.outputs["RECEIVER"] == db[z - 1][1]
            return hashlib.sha256(export_transcript(t).encode()).hexdigest()

        shared = digest()
        monkeypatch.setattr(groupmath, "comb_shape", lambda bits, uses: None)
        assert digest() == shared


class TestSerialization:
    def test_elem_bytes_width(self, toy, group512):
        assert len(elem_to_bytes(1, toy)) == toy.elem_bytes() == 1
        assert len(elem_to_bytes(1, group512)) == group512.elem_bytes() == 65
