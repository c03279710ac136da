"""Pad-and-swap OT: frozen trace, swap law, single-use pads."""

import ast
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otkit.supersonic
from otkit.errors import LengthMismatch, ShapeMismatch, UsageError
from otkit.rng import SeededSource
from otkit.supersonic import (
    EncPair,
    PadKeys,
    sup_gen_query,
    sup_gen_res,
    sup_obl_filter,
    sup_retrieve,
    sup_setup,
)


class TestFrozenTrace:
    def test_hand_checked_bytes(self):
        keys = PadKeys(k0=b"\xaa", k1=b"\x0f")
        e_prime = sup_gen_res(b"\x00", b"\xff", keys, q1=1)
        assert (e_prime.c0, e_prime.c1) == (b"\xf0", b"\xaa")
        head = sup_obl_filter(e_prime, q2=0)
        assert head == b"\xf0"
        assert sup_retrieve(head, keys, s=1) == b"\xff"


class TestSwapLaw:
    @pytest.mark.parametrize("q1", [0, 1])
    @pytest.mark.parametrize("q2", [0, 1])
    def test_share_cells(self, rng, q1, q2):
        m0, m1 = rng.randbytes(16), rng.randbytes(16)
        keys = sup_setup(128, rng)
        head = sup_obl_filter(sup_gen_res(m0, m1, keys, q1), q2)
        s = q1 ^ q2
        assert sup_retrieve(head, keys, s) == (m0, m1)[s]

    @given(s=st.integers(0, 1), seed=st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_round_trip_property(self, s, seed):
        rng = SeededSource(seed)
        m0, m1 = rng.randbytes(8), rng.randbytes(8)
        q1, q2 = sup_gen_query(s, rng)
        assert q1 ^ q2 == s
        keys = sup_setup(64, rng)
        head = sup_obl_filter(sup_gen_res(m0, m1, keys, q1), q2)
        assert sup_retrieve(head, keys, s) == (m0, m1)[s]

    def test_forward_drops_second_element(self):
        e_prime = EncPair(c0=b"\x01", c1=b"\x02")
        assert sup_obl_filter(e_prime, 0) == b"\x01"
        assert sup_obl_filter(e_prime, 1) == b"\x02"


class TestGuards:
    def test_choice_bit_checked(self, rng):
        with pytest.raises(UsageError):
            sup_gen_query(2, rng)
        keys = sup_setup(8, rng)
        with pytest.raises(UsageError):
            sup_retrieve(b"\x00", keys, 2)

    def test_pad_width_checked(self, rng):
        with pytest.raises(UsageError):
            sup_setup(12, rng)

    def test_session_length_checked(self, rng):
        keys = sup_setup(16, rng)
        with pytest.raises(LengthMismatch):
            sup_gen_res(b"\x01", b"\x02\x03", keys, 0)
        # pads that do not fit the messages, or a result that does not fit
        # its pad, came from a peer
        with pytest.raises(ShapeMismatch):
            sup_gen_res(b"\x01", b"\x02", keys, 0)
        with pytest.raises(ShapeMismatch):
            sup_retrieve(b"\x00", keys, 0)

    def test_pads_are_single_use(self, rng):
        m0, m1 = rng.randbytes(4), rng.randbytes(4)
        keys = sup_setup(32, rng)
        head = sup_obl_filter(sup_gen_res(m0, m1, keys, 1), 1)
        assert sup_retrieve(head, keys, 0) == m0
        with pytest.raises(UsageError):
            sup_retrieve(head, keys, 0)

    def test_pads_fresh_per_setup(self):
        a = sup_setup(64, SeededSource(1))
        b = sup_setup(64, SeededSource(2))
        assert (a.k0, a.k1) != (b.k0, b.k1)
        assert a.k0 != a.k1


class TestNoPublicKeyMachinery:
    def test_module_imports(self):
        # the whole point of this path: nothing grouplike, nothing homomorphic
        source = pathlib.Path(otkit.supersonic.__file__).read_text()
        banned = {"groupmath", "paillier", "base_ot", "ot_compiler"}
        for node in ast.walk(ast.parse(source)):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            for name in names:
                assert not banned & set(name.split(".")), name
