"""Delegated-query OT: share splitting, query assembly, filtering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit.dq_family import (
    DelegationRequest,
    FinalQueryPair,
    MessageDatabase,
    check_consistency,
    dq_p1_gen_query,
    dq_p2_gen_query,
    dq_r_request,
    dq_r_retrieve,
    dq_s_gen_res,
    dqmr_p1_filter,
    dqmr_s_gen_res_multi,
    retrieval_exponent,
)
from otkit.errors import ConsistencyAbort, IndexOutOfRange, ShapeMismatch, UsageError
from otkit.groupmath import elem_mul, modexp, toy_group
from otkit.rng import SeededSource


def _cell_queries(pk, s1, s2, r1, r2):
    req1 = DelegationRequest(share=s1, blind=r1)
    req2 = DelegationRequest(share=s2, blind=r2)
    partial = dq_p2_gen_query(req2, pk)
    final = dq_p1_gen_query(req1, partial, pk)
    return req1, req2, partial, final


class TestRequest:
    @given(s=st.integers(0, 1), seed=st.integers(0, 2**32))
    @settings(max_examples=100)
    def test_shares_recombine(self, s, seed):
        pk = toy_group()
        req1, req2 = dq_r_request(s, pk, SeededSource(seed))
        assert req1.share ^ req2.share == s
        assert 0 <= req1.blind < pk.q and 0 <= req2.blind < pk.q

    def test_choice_bit_checked(self, toy, rng):
        with pytest.raises(UsageError):
            dq_r_request(2, toy, rng)


class TestPartialQuery:
    def test_frozen_share_zero(self, toy):
        # r2=3: g^3 = 18 goes to slot 0, C / 18 = 12 to slot 1
        partial = dq_p2_gen_query(DelegationRequest(share=0, blind=3), toy)
        assert (partial.d0, partial.d1) == (18, 12)

    def test_frozen_share_one(self, toy):
        partial = dq_p2_gen_query(DelegationRequest(share=1, blind=3), toy)
        assert (partial.d0, partial.d1) == (12, 18)

    @given(s2=st.integers(0, 1), r2=st.integers(0, 10))
    @settings(max_examples=50)
    def test_pair_structure(self, s2, r2):
        pk = toy_group()
        partial = dq_p2_gen_query(DelegationRequest(share=s2, blind=r2), pk)
        pair = (partial.d0, partial.d1)
        assert pair[s2] == modexp(pk.g, r2, pk)
        assert elem_mul(partial.d0, partial.d1, pk) == pk.C


class TestFinalQuery:
    def test_frozen_assembly(self, toy):
        # partial (18, 12) with share1=0, r1=2: b0 = 18 * 16 = 12, b1 = 12 / 16 = 18
        _, _, _, final = _cell_queries(toy, 0, 0, 2, 3)
        assert (final.b0, final.b1) == (12, 18)

    @given(
        s1=st.integers(0, 1),
        s2=st.integers(0, 1),
        r1=st.integers(0, 10),
        r2=st.integers(0, 10),
    )
    @settings(max_examples=200)
    def test_closed_forms(self, s1, s2, r1, r2):
        pk = toy_group()
        _, _, partial, final = _cell_queries(pk, s1, s2, r1, r2)
        b = (final.b0, final.b1)
        d = (partial.d0, partial.d1)
        assert b[s1] == elem_mul(d[0], modexp(pk.g, r1, pk), pk)
        assert elem_mul(final.b0, final.b1, pk) == pk.C
        # the slot for the recombined bit holds g^x with x the retrieval exponent
        x = retrieval_exponent(r1, r2, s2, pk)
        assert b[s1 ^ s2] == modexp(pk.g, x, pk)

    def test_exponent_reduction(self, toy):
        # share2=1 flips the sign: x = r2 - r1 mod q
        assert retrieval_exponent(5, 2, 1, toy) == (2 - 5) % toy.q
        assert retrieval_exponent(5, 2, 0, toy) == 7


class TestConsistency:
    def test_honest_pair_accepted(self, toy):
        _, _, _, final = _cell_queries(toy, 1, 0, 4, 9)
        check_consistency(final, toy)

    @pytest.mark.parametrize("slot", [0, 1])
    def test_tampered_pair_aborts(self, toy, slot):
        _, _, _, final = _cell_queries(toy, 1, 0, 4, 9)
        b = [final.b0, final.b1]
        b[slot] = elem_mul(b[slot], toy.g, toy)
        with pytest.raises(ConsistencyAbort):
            check_consistency(FinalQueryPair(b0=b[0], b1=b[1]), toy)

    def test_sender_refuses_tampered_query(self, toy, rng):
        _, _, _, final = _cell_queries(toy, 0, 1, 4, 9)
        bad = FinalQueryPair(b0=elem_mul(final.b0, toy.g, toy), b1=final.b1)
        with pytest.raises(ConsistencyAbort):
            dq_s_gen_res(b"\x01", b"\x02", toy, bad, rng)


class TestEndToEnd:
    @pytest.mark.parametrize("s1", [0, 1])
    @pytest.mark.parametrize("s2", [0, 1])
    def test_all_share_cells(self, toy, rng, s1, s2):
        m0, m1 = b"\x11" * 8, b"\x99" * 8
        req1, req2, _, final = _cell_queries(toy, s1, s2, 4, 9)
        res = dq_s_gen_res(m0, m1, toy, final, rng)
        s = s1 ^ s2
        assert dq_r_retrieve(res, req1, req2, s, toy, 64) == (m0, m1)[s]

    @given(s=st.integers(0, 1), seed=st.integers(0, 2**32))
    @settings(max_examples=150)
    def test_delegated_round_trip(self, s, seed):
        pk = toy_group()
        rng = SeededSource(seed)
        m0, m1 = rng.randbytes(8), rng.randbytes(8)
        req1, req2 = dq_r_request(s, pk, rng)
        final = dq_p1_gen_query(req1, dq_p2_gen_query(req2, pk), pk)
        res = dq_s_gen_res(m0, m1, pk, final, rng)
        assert dq_r_retrieve(res, req1, req2, s, pk, 64) == (m0, m1)[s]

    @pytest.mark.parametrize("s", [0, 1])
    def test_round_trip_512(self, group512, rng, s):
        m0, m1 = rng.randbytes(16), rng.randbytes(16)
        req1, req2 = dq_r_request(s, group512, rng)
        final = dq_p1_gen_query(req1, dq_p2_gen_query(req2, group512), group512)
        res = dq_s_gen_res(m0, m1, group512, final, rng)
        assert dq_r_retrieve(res, req1, req2, s, group512, 128) == (m0, m1)[s]


class TestMessageDatabase:
    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            MessageDatabase(pairs=())

    def test_ragged_entries_rejected(self):
        with pytest.raises(UsageError):
            MessageDatabase(pairs=((b"\x01", b"\x02"), (b"\x03", b"\x04\x05")))

    @given(z=st.integers(1, 12), width=st.integers(1, 8))
    @settings(max_examples=50)
    def test_shape_accessors(self, z, width):
        pairs = tuple((bytes([i]) * width, bytes([255 - i]) * width) for i in range(z))
        db = MessageDatabase(pairs=pairs)
        assert db.z == z


class TestMultiReceiver:
    def _db(self, z, width=8):
        return MessageDatabase(
            pairs=tuple((bytes([i]) * width, bytes([128 + i]) * width) for i in range(z))
        )

    def test_one_response_per_entry(self, toy, rng):
        db = self._db(5)
        _, _, _, final = _cell_queries(toy, 0, 0, 4, 9)
        assert len(dqmr_s_gen_res_multi(db, toy, final, rng)) == 5

    @pytest.mark.parametrize("s1", [0, 1])
    @pytest.mark.parametrize("s2", [0, 1])
    def test_filtered_entry_retrievable(self, toy, rng, s1, s2):
        db = self._db(4)
        req1, req2, _, final = _cell_queries(toy, s1, s2, 4, 9)
        responses = dqmr_s_gen_res_multi(db, toy, final, rng)
        s = s1 ^ s2
        for v in range(db.z):
            picked = dqmr_p1_filter(responses, v)
            assert dq_r_retrieve(picked, req1, req2, s, toy, 64) == db.pairs[v][s]

    def test_filter_forwards_exact_pair(self, toy, rng):
        db = self._db(3)
        _, _, _, final = _cell_queries(toy, 1, 1, 4, 9)
        responses = dqmr_s_gen_res_multi(db, toy, final, rng)
        assert dqmr_p1_filter(responses, 1) is responses[1]

    # a negative v is the caller's own mistake; v past the responses means
    # the sender sent too few
    @pytest.mark.parametrize("v", [-1, 3, 100])
    def test_filter_index_checked(self, toy, rng, v):
        db = self._db(3)
        _, _, _, final = _cell_queries(toy, 0, 0, 4, 9)
        responses = dqmr_s_gen_res_multi(db, toy, final, rng)
        with pytest.raises(IndexOutOfRange if v < 0 else ShapeMismatch):
            dqmr_p1_filter(responses, v)

    def test_tampered_query_aborts(self, toy, rng):
        db = self._db(2)
        _, _, _, final = _cell_queries(toy, 0, 0, 4, 9)
        bad = FinalQueryPair(b0=final.b0, b1=elem_mul(final.b1, toy.g, toy))
        with pytest.raises(ConsistencyAbort):
            dqmr_s_gen_res_multi(db, toy, bad, rng)
