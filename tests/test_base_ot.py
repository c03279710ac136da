"""Base 1-out-of-2 transfer: query shape, round trips, suite contract."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit import groupmath
from otkit.base_ot import (
    np_gen_query,
    np_gen_res,
    np_retrieve,
    np_suite,
    unmask_element,
)
from otkit.errors import IndexOutOfRange, LengthMismatch
from otkit.groupmath import elem_div, modexp
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
    def test_chosen_slot_is_known_exponent(self, s, seed):
        from otkit.groupmath import toy_group

        pk = toy_group()
        b0, secret = np_gen_query(pk, s, SeededSource(seed))
        pair = (b0, elem_div(pk.C, b0, pk))
        assert pair[s] == modexp(pk.g, secret.r, pk)
        assert secret.r != 0


class TestEndToEnd:
    @pytest.mark.parametrize("s", [0, 1])
    @pytest.mark.parametrize("width", [1, 16, 32])
    def test_round_trip_toy(self, toy, rng, s, width):
        m0, m1 = rng.randbytes(width), rng.randbytes(width)
        query, secret = np_gen_query(toy, s, rng)
        res = np_gen_res(m0, m1, toy, query, rng)
        assert np_retrieve(res, secret, toy, 8 * width) == (m0, m1)[s]

    @pytest.mark.parametrize("s", [0, 1])
    def test_round_trip_512(self, group512, rng, s):
        m0, m1 = rng.randbytes(16), rng.randbytes(16)
        query, secret = np_gen_query(group512, s, rng)
        res = np_gen_res(m0, m1, group512, query, rng)
        assert np_retrieve(res, secret, group512, 128) == (m0, m1)[s]

    def test_other_slot_stays_masked(self, group512, rng):
        m0, m1 = b"\x00" * 16, b"\xff" * 16
        query, secret = np_gen_query(group512, 0, rng)
        res = np_gen_res(m0, m1, group512, query, rng)
        # the receiver's blind unmasks e0 only; e1 under r is just noise
        assert unmask_element(res.e1, secret.r, group512, hash_H) != m1

    def test_length_mismatch(self, toy, rng):
        query, _ = np_gen_query(toy, 0, rng)
        with pytest.raises(LengthMismatch):
            np_gen_res(b"\x01", b"\x02\x03", toy, query, rng)

    @given(s=st.integers(0, 1), seed=st.integers(0, 2**32))
    @settings(max_examples=150)
    def test_round_trip_property(self, s, seed):
        from otkit.groupmath import toy_group

        pk = toy_group()
        rng = SeededSource(seed)
        m0, m1 = rng.randbytes(8), rng.randbytes(8)
        query, secret = np_gen_query(pk, s, rng)
        res = np_gen_res(m0, m1, pk, query, rng)
        assert np_retrieve(res, secret, pk, 64) == (m0, m1)[s]


class TestSuiteContract:
    def test_component_kinds(self):
        assert np_suite().component_kinds == ("elem", "mask")

    def test_two_message_path_matches_plain_ot(self, toy):
        suite = np_suite()
        msgs = [b"\x10" * 4, b"\x20" * 4]
        for s in (0, 1):
            q_s, sec_s = suite.gen_query(toy, 2, s, SeededSource(7))
            q_p, sec_p = np_gen_query(toy, s, SeededSource(7))
            assert q_s == q_p and sec_s == sec_p
            res = suite.gen_res(msgs, toy, q_s, SeededSource(8))
            plain = np_gen_res(msgs[0], msgs[1], toy, q_p, SeededSource(8))
            assert res == [plain.e0, plain.e1]
            assert suite.retrieve(res[s], sec_s, toy) == msgs[s]

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_degenerate_many_message_path(self, toy, rng, n):
        suite = np_suite()
        msgs = [bytes([i]) * 4 for i in range(n)]
        for s in (0, n // 2, n - 1):
            query, secret = suite.gen_query(toy, n, s, rng)
            res = suite.gen_res(msgs, toy, query, rng)
            assert len(res) == n
            assert suite.retrieve(res[s], secret, toy) == msgs[s]

    def test_many_message_path_masks_each_message_once(self, toy, rng, count_calls):
        # one fresh y per message: g^y and query^y, and no companion element
        query, _ = np_suite().gen_query(toy, 4, 1, rng)
        kind = lambda base, e, pk: "g" if base == pk.g else "other"
        counts = count_calls((groupmath.modexp, kind), groupmath.elem_div)
        np_suite().gen_res([bytes([i]) * 4 for i in range(4)], toy, query, rng)
        assert counts == {"g": 4, "other": 4}

    def test_single_element_retrieval(self, toy, rng):
        # retrieve opens the one element it is given, as a compiled session
        # hands back only the surviving element
        suite = np_suite()
        msgs = [bytes([i]) * 4 for i in range(4)]
        query, secret = suite.gen_query(toy, 4, 3, rng)
        res = suite.gen_res(msgs, toy, query, rng)
        assert suite.retrieve(res[3], secret, toy) == msgs[3]

    def test_choice_out_of_range(self, toy, rng):
        suite = np_suite()
        with pytest.raises(IndexOutOfRange):
            suite.gen_query(toy, 4, 4, rng)
        with pytest.raises(IndexOutOfRange):
            suite.gen_query(toy, 2, -1, rng)
