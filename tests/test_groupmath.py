"""Group arithmetic over the order-q subgroup mod a safe prime."""

import ast
import dataclasses
import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit import groupmath, numth
from otkit.errors import UsageError
from otkit.groupmath import (
    PINNED_G,
    PINNED_SAFE_PRIMES,
    GroupParams,
    TOY_P,
    TOY_Q,
    elem_div,
    elem_mul,
    elem_to_bytes,
    gen_group,
    in_subgroup,
    modexp,
    rand_scalar,
)
from otkit.harness import PROTOCOLS, SessionConfig, export_transcript, run_session
from otkit.numth import is_probable_prime, powmod
from otkit.rng import SeededSource

scalars = st.integers(min_value=0, max_value=10 * TOY_Q)


class TestToyGroup:
    def test_constants(self, toy):
        assert (toy.P, toy.q, toy.g) == (23, 11, 4)
        assert toy.C == 9  # 4^8 mod 23

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
    def test_exponent_addition(self, toy, a, b):
        lhs = modexp(toy.g, a + b, toy)
        rhs = elem_mul(modexp(toy.g, a, toy), modexp(toy.g, b, toy), toy)
        assert lhs == rhs

    @given(a=scalars, b=scalars)
    @settings(max_examples=200)
    def test_mul_div_cancel(self, toy, a, b):
        x = modexp(toy.g, a, toy)
        y = modexp(toy.g, b, toy)
        assert elem_div(elem_mul(x, y, toy), y, toy) == x

    @given(a=scalars)
    @settings(max_examples=100)
    def test_order_q(self, toy, a):
        assert modexp(modexp(toy.g, a, toy), toy.q, toy) == 1


class TestGenGroup:
    def test_pinned_sizes(self):
        for bits, P in PINNED_SAFE_PRIMES.items():
            q = (P - 1) // 2
            assert P.bit_length() == bits + 1
            assert q.bit_length() == bits
            assert P == 2 * q + 1

    def test_toy_row(self):
        # the 4-bit row is the toy group, with a drawn by one randbelow
        for seed in range(20):
            rng, expected_rng = SeededSource(seed), SeededSource(seed)
            C = pow(PINNED_G, 1 + expected_rng.randbelow(TOY_Q - 1), TOY_P)
            assert gen_group(4, rng) == GroupParams(P=TOY_P, q=TOY_Q, g=PINNED_G, C=C)
            assert rng.randbytes(16) == expected_rng.randbytes(16)

    def test_toy_row_retains_dlog(self):
        # the group holds no log_g C, but the seeded source it came from does
        params = gen_group(4, SeededSource(7))
        a = 1 + SeededSource(7).randbelow(TOY_Q - 1)
        assert params.C == pow(PINNED_G, a, TOY_P)

    def test_fields_hold_no_dlog(self):
        # no party may know log_g C, so a group holds only its public values
        assert [f.name for f in dataclasses.fields(GroupParams)] == ["P", "q", "g", "C"]

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
        # log_g C is recomputed from the fixture's seed, not read off the group
        a = 1 + SeededSource(512).randbelow(group512.q - 1)
        assert modexp(group512.g, a, group512) == group512.C
        assert in_subgroup(group512.C, group512)

    def test_c_varies_with_rng(self):
        a = gen_group(512, SeededSource(1))
        b = gen_group(512, SeededSource(2))
        assert a.P == b.P and a.g == b.g
        assert a.C != b.C

    def test_tiny_lambda_rejected(self):
        with pytest.raises(UsageError):
            gen_group(3, SeededSource(1))

    def test_unpinned_size_rejected(self):
        # no session searches for a safe prime: a size off the table is refused
        with pytest.raises(UsageError, match=r"\[4, 512, 1024, 2048\]"):
            gen_group(32, SeededSource(3))

    def test_rand_scalar_bounds(self, toy, rng):
        seen = {rand_scalar(toy, rng) for _ in range(200)}
        assert seen <= set(range(toy.q))
        assert 0 in seen
        nonzero = {rand_scalar(toy, rng, nonzero=True) for _ in range(200)}
        assert 0 not in nonzero


@pytest.fixture(scope="module", params=["toy", 512, 1024, 2048])
def any_group(request):
    bits = 4 if request.param == "toy" else request.param
    return gen_group(bits, SeededSource(bits))


def _byte_seams(bits):
    """Numbers below 2^bits at the first two, a middle and the last byte
    boundary, and one either side: where the kernel's big-endian conversion
    gains a byte."""
    edges = {8, 16, 8 * (bits // 16), 8 * ((bits - 1) // 8)}
    return [e for k in sorted(edges) if 0 < k < bits
            for e in ((1 << k) - 1, 1 << k, (1 << k) + 1)]


def _digest(cfg):
    return hashlib.sha256(export_transcript(run_session(cfg)).encode()).hexdigest()


class TestFixedBase:
    """Powers of g are one powmod call each; they must equal pow() exactly."""

    def test_edge_exponents(self, any_group):
        P, q, g = any_group.P, any_group.q, any_group.g
        exponents = [0, 1, 2, q - 1, q, q + 1, -1, 2 * q + 5, P - 1, P, P + 5, 3 * P]
        for e in exponents + _byte_seams(q.bit_length()):
            assert modexp(g, e, any_group) == pow(g, e % q, P), e
            assert powmod(g, e, P) == pow(g, e, P), e

    def test_seeded_exponents(self, any_group):
        P, q, g = any_group.P, any_group.q, any_group.g
        rnd = random.Random(q.bit_length())
        for _ in range(40):
            e = rnd.randrange(-q, 3 * q)
            assert modexp(g, e, any_group) == pow(g, e % q, P), e

    def test_public_element_is_g_to_a(self, any_group):
        # a is gen_group's one draw from its source, and C lies in the subgroup
        P, q, g = any_group.P, any_group.q, any_group.g
        a = 1 + SeededSource(q.bit_length()).randbelow(q - 1)
        assert any_group.C == pow(g, a, P)
        assert in_subgroup(any_group.C, any_group)

    def test_exponents_outside_table_width(self, group512):
        # exponents at and past P's bit length, and a negative one
        P, q, g = group512.P, group512.q, group512.g
        for e in (P - 1, P, P + 5, 1 << P.bit_length(), -3):
            assert modexp(g, e, group512) == pow(g, e % q, P), e
            assert powmod(g, e, P) == pow(g, e, P), e

    def test_cache_bounded(self, group512):
        # g keeps no table: many generators leave no state in groupmath
        P, q = group512.P, group512.q
        before = dict(vars(groupmath))
        for k in range(2, 14):
            params = GroupParams(P=P, q=q, g=k * k, C=k * k)
            assert modexp(params.g, 12345, params) == pow(params.g, 12345, P)
        assert vars(groupmath) == before
        assert not any(hasattr(v, "cache_info") for v in before.values())

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_session_matches_one_dimensional_comb(self, protocol, monkeypatch):
        # a session takes the same powers, so the same transcript, whichever
        # kernel takes them: here libcrypto's (where it loads) against pow()
        cfg = SessionConfig(protocol=protocol, sigma_bits=64, lambda_bits=64,
                            group_bits=512, seed=4200, s=1)
        if protocol.endswith("-mr"):
            cfg.db, cfg.v = tuple((bytes([i]) * 8, bytes([0x80 | i]) * 8) for i in range(4)), 2
        else:
            cfg.m0, cfg.m1 = b"\x0a" * 8, b"\xf5" * 8
        kernel = _digest(cfg)
        monkeypatch.setattr(numth, "_kernel", pow)
        assert _digest(cfg) == kernel


@pytest.fixture(scope="module", params=["toy", 512, 1024, 2048])
def shared_group(request):
    if request.param == "toy":
        return request.getfixturevalue("toy")
    return gen_group(request.param, SeededSource(request.param))


class TestSharedBase:
    """Powers of one other base, many exponents each, must equal pow()
    exactly, one powmod call per power."""

    def test_powers_match_pow(self, shared_group):
        P, q = shared_group.P, shared_group.q
        base = shared_group.C
        bits = q.bit_length()
        rnd = random.Random(bits + 1)
        exponents = [0, 1, 2, q - 1, q, q + 1, -1, P - 1, P, P + 5, 3 * P] + [
            rnd.randrange(-q, 3 * q) for _ in range(40)
        ]
        for e in exponents + _byte_seams(bits):
            assert modexp(base, e, shared_group) == pow(base, e % q, P), e

    def test_pinned_paths(self, shared_group, monkeypatch):
        # every power of a base is one powmod call with the exponent mod q,
        # however many exponents the base is raised to
        calls = []
        monkeypatch.setattr(groupmath, "powmod", lambda *args: calls.append(args) or pow(*args))
        P, q, base = shared_group.P, shared_group.q, shared_group.C
        exponents = [q - 1, q + 2, -1, 5] * 8
        assert [modexp(base, e, shared_group) for e in exponents] == [
            pow(base, e % q, P) for e in exponents
        ]
        assert calls == [(base, e % q, P) for e in exponents]

    @pytest.mark.parametrize("bits", [512, 640, 1024, 1152, 2048])
    def test_heads_match_pow_at_every_seam(self, bits):
        # odd and even moduli of `bits` bits; exponents and bases at byte
        # seams of the conversion, where a power of two gains a byte
        r = random.Random(bits)
        top = 1 << (bits - 1)
        for n in (r.getrandbits(bits) | top | 1, (r.getrandbits(bits) | top) & ~1):
            base = r.randrange(2, n)
            for e in [0, 1, n - 1, (1 << bits) - 1] + _byte_seams(bits):
                assert powmod(base, e, n) == pow(base, e, n), (n, e)
            for b in [0, 1, n - 1, n, n + 1] + _byte_seams(bits):
                assert powmod(b, n - 1, n) == pow(b, n - 1, n), (n, b)

    @pytest.mark.parametrize("protocol", ["dq-mr", "duq-mr"])
    @pytest.mark.parametrize("z", [1, 4])
    def test_session_matches_single_use_path(self, protocol, z, monkeypatch):
        # the senders' z powers of b0 and b1 are the same by pow()
        db = tuple((bytes([i]) * 8, bytes([0x80 | i]) * 8) for i in range(z))
        cfg = SessionConfig(protocol=protocol, sigma_bits=64, lambda_bits=64,
                            group_bits=512, seed=4100 + z, s=1, db=db, v=z - 1)
        assert run_session(cfg).outputs["RECEIVER"] == db[z - 1][1]
        kernel = _digest(cfg)
        monkeypatch.setattr(numth, "_kernel", pow)
        assert _digest(cfg) == kernel

    def test_one_kernel_policy(self):
        # every power outside numth goes through numth.powmod: a three-argument
        # pow() elsewhere is an inverse, exponent -1
        source = Path(groupmath.__file__).parent
        for path in source.glob("*.py"):
            if path.stem == "numth":
                continue
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "pow" and len(node.args) == 3):
                    exponent = node.args[1]
                    assert (isinstance(exponent, ast.UnaryOp)
                            and isinstance(exponent.op, ast.USub)
                            and isinstance(exponent.operand, ast.Constant)
                            and exponent.operand.value == 1), (path.name, node.lineno)


class TestSerialization:
    def test_elem_bytes_width(self, toy, group512):
        assert len(elem_to_bytes(1, toy)) == toy.elem_bytes() == 1
        assert len(elem_to_bytes(1, group512)) == group512.elem_bytes() == 65
