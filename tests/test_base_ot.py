"""Base 1-out-of-n transfer: query shape, round trips, public elements,
suite contract."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit import groupmath
from otkit.base_ot import (
    np_gen_query,
    np_gen_res,
    np_retrieve,
    np_suite,
    public_element,
    unmask_element,
)
from otkit.errors import IndexOutOfRange, LengthMismatch
from otkit.groupmath import PINNED_SAFE_PRIMES, elem_div, gen_group, modexp
from otkit.harness import _CODECS, MsgType, SessionConfig, run_session
from otkit.primitives import hash_H
from otkit.rng import SeededSource


class _Script:
    """Plays back fixed randbelow results; enough to freeze a query."""

    def __init__(self, values):
        self._values = list(values)

    def randbelow(self, bound):
        v = self._values.pop(0)
        assert 0 <= v < bound
        return v

    def randbytes(self, n):
        return bytes(n)

    def randbits(self, k):
        return 0

    def randbit(self):
        return 0


class TestQuery:
    def test_frozen_blind_choice_zero(self, toy):
        # r=3 in the toy group: g^3 = 18, C / 18 = 12
        b0, secret = np_gen_query(toy, 0, _Script([3]))
        assert b0 == 18
        assert secret.r == 3 and secret.s == 0

    def test_frozen_blind_choice_one(self, toy):
        b0, secret = np_gen_query(toy, 1, _Script([3]))
        assert b0 == 12
        assert secret.r == 3 and secret.s == 1

    def test_pair_multiplies_to_public_element(self, toy):
        b0, _ = np_gen_query(toy, 0, _Script([3]))
        assert b0 * elem_div(toy.C, b0, toy) % toy.P == toy.C

    @given(s=st.integers(0, 1), seed=st.integers(0, 2**32))
    @settings(max_examples=100)
    def test_chosen_slot_is_known_exponent(self, toy, s, seed):
        b0, secret = np_gen_query(toy, s, SeededSource(seed))
        pair = (b0, elem_div(toy.C, b0, toy))
        assert pair[s] == modexp(toy.g, secret.r, toy)
        assert secret.r != 0


class TestEndToEnd:
    @pytest.mark.parametrize("s", [0, 1])
    @pytest.mark.parametrize("width", [1, 16, 32])
    def test_round_trip_toy(self, toy, rng, s, width):
        m0, m1 = rng.randbytes(width), rng.randbytes(width)
        query, secret = np_gen_query(toy, s, rng)
        res = np_gen_res((m0, m1), toy, query, rng)
        assert np_retrieve(res, secret, toy, 8 * width) == (m0, m1)[s]

    @pytest.mark.parametrize("s", [0, 1])
    def test_round_trip_512(self, group512, rng, s):
        m0, m1 = rng.randbytes(16), rng.randbytes(16)
        query, secret = np_gen_query(group512, s, rng)
        res = np_gen_res((m0, m1), group512, query, rng)
        assert np_retrieve(res, secret, group512, 128) == (m0, m1)[s]

    def test_other_slot_stays_masked(self, group512, rng):
        m0, m1 = b"\x00" * 16, b"\xff" * 16
        query, secret = np_gen_query(group512, 0, rng)
        res = np_gen_res((m0, m1), group512, query, rng)
        # the receiver's blind unmasks element 0 only; element 1 under r is noise
        assert unmask_element(res[1], secret.r, group512, hash_H) != m1

    def test_no_response_head_is_one(self):
        # y = 0 would send the head g^0 = 1, whose pad anyone can strip; with y
        # drawn from [0, q), 46 of these 400 heads were 1
        _, decode = _CODECS[MsgType.RESPONSE]
        heads = []
        for seed in range(200):
            cfg = SessionConfig(protocol="np-ot", group_bits=4, sigma_bits=64, seed=seed,
                                s=0, m0=bytes(8), m1=bytes(8))
            for e in run_session(cfg).events:
                if e.msg_type is MsgType.RESPONSE:
                    heads += [head for head, _ in decode(e.payload)]
        assert len(heads) == 400 and 1 not in heads

    def test_length_mismatch(self, toy, rng):
        query, _ = np_gen_query(toy, 0, rng)
        with pytest.raises(LengthMismatch):
            np_gen_res((b"\x01", b"\x02\x03"), toy, query, rng)

    @given(s=st.integers(0, 1), seed=st.integers(0, 2**32))
    @settings(max_examples=150)
    def test_round_trip_property(self, toy, s, seed):
        rng = SeededSource(seed)
        m0, m1 = rng.randbytes(8), rng.randbytes(8)
        query, secret = np_gen_query(toy, s, rng)
        res = np_gen_res((m0, m1), toy, query, rng)
        assert np_retrieve(res, secret, toy, 64) == (m0, m1)[s]


class TestSuiteContract:
    def test_component_kinds(self):
        assert np_suite().component_kinds == ("elem", "mask")

    def test_two_message_path_matches_plain_ot(self, toy):
        # the suite is np-ot's own functions, so n = 2 is np-ot exactly
        suite = np_suite()
        assert (suite.gen_query, suite.gen_res) == (np_gen_query, np_gen_res)
        msgs = [b"\x10" * 4, b"\x20" * 4]
        for s in (0, 1):
            query, secret = suite.gen_query(toy, s, SeededSource(7), 2)
            res = suite.gen_res(msgs, toy, query, SeededSource(8))
            assert suite.retrieve(res[s], secret, toy, 32) == msgs[s]
            assert np_retrieve(res, secret, toy, 32) == msgs[s]

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_many_message_round_trip(self, toy, rng, n):
        suite = np_suite()
        msgs = [bytes([i]) * 4 for i in range(n)]
        for s in range(n):
            query, secret = suite.gen_query(toy, s, rng, n)
            res = suite.gen_res(msgs, toy, query, rng)
            assert len(res) == n
            assert suite.retrieve(res[s], secret, toy, 32) == msgs[s]

    def test_many_message_path_masks_each_message_once(self, group512, rng, count_calls):
        # one fresh y per message, g^y and base^y, and one division per C_i;
        # at 512 bits no base C_i / b0 is g by chance, as it can be in the toy group
        kind = lambda base, e, pk: "g" if base == pk.g else "other"
        counts = count_calls((groupmath.modexp, kind), groupmath.elem_div)
        for n in (2, 4, 8):
            query, _ = np_suite().gen_query(group512, n - 1, rng, n)
            counts.clear()
            np_suite().gen_res([bytes([i]) * 4 for i in range(n)], group512, query, rng)
            assert counts == {"g": n, "other": n, "elem_div": n - 1}

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_query_work_depends_on_neither_s_nor_n(self, toy, rng, count_calls, n):
        # one g^r and one division at every s
        counts = count_calls(groupmath.modexp, groupmath.elem_div)
        for s in range(n):
            np_suite().gen_query(toy, s, rng, n)
        assert counts == {"modexp": n, "elem_div": n}

    def test_single_element_retrieval(self, toy, rng):
        # retrieve opens the one element it is given, as a compiled session
        # hands back only the surviving element
        suite = np_suite()
        msgs = [bytes([i]) * 4 for i in range(4)]
        query, secret = suite.gen_query(toy, 3, rng, 4)
        res = suite.gen_res(msgs, toy, query, rng)
        assert suite.retrieve(res[3], secret, toy, 32) == msgs[3]

    def test_choice_out_of_range(self, toy, rng):
        suite = np_suite()
        with pytest.raises(IndexOutOfRange):
            suite.gen_query(toy, 4, rng, 4)
        with pytest.raises(IndexOutOfRange):
            suite.gen_query(toy, -1, rng, 2)


class TestPublicElements:
    @pytest.mark.parametrize("bits", sorted(PINNED_SAFE_PRIMES))
    def test_derived_elements_lie_in_the_group(self, bits):
        # C_i for i >= 2 depends on P and i alone, not on the session's C
        pk, other = gen_group(bits, SeededSource(bits)), gen_group(bits, SeededSource(bits + 1))
        assert pk.C != other.C or bits == 4
        elements = [public_element(pk, i) for i in range(2, 10)]
        assert elements == [public_element(other, i) for i in range(2, 10)]
        assert all(1 < x < pk.P and pow(x, pk.q, pk.P) == 1 for x in elements)
        if bits >= 512:
            assert len(set(elements)) == len(elements)
            assert pk.C not in elements

    def test_first_element_is_the_session_c(self, group512):
        assert public_element(group512, 1) == group512.C
