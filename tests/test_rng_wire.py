"""Deterministic randomness and the low-level payload codecs."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit.errors import DecodeError, TruncatedFrame
from otkit.rng import SeededSource, SystemSource
from otkit.wire import Reader, encode_bytes, encode_uint


class BlockAppendSource:
    """Reference stream: SHAKE-256 counter blocks appended one at a time."""

    def __init__(self, seed: int, label: bytes = b""):
        self._key = seed.to_bytes(8, "big") + label
        self._counter = 0
        self._buf = b""

    def randbytes(self, n: int) -> bytes:
        while len(self._buf) < n:
            block = hashlib.shake_256(
                self._key + self._counter.to_bytes(8, "big")
            ).digest(64)
            self._counter += 1
            self._buf += block
        out, self._buf = self._buf[:n], self._buf[n:]
        return out


class TestSeededSource:
    def test_same_seed_same_stream(self):
        a = SeededSource(42)
        b = SeededSource(42)
        assert a.randbytes(100) == b.randbytes(100)
        assert [a.randbelow(1000) for _ in range(50)] == [
            b.randbelow(1000) for _ in range(50)
        ]

    def test_different_seeds_diverge(self):
        assert SeededSource(1).randbytes(32) != SeededSource(2).randbytes(32)

    def test_label_separates_streams(self):
        assert SeededSource(7, b"a").randbytes(32) != SeededSource(7, b"b").randbytes(32)

    def test_seed_range_enforced(self):
        with pytest.raises(ValueError):
            SeededSource(-1)
        with pytest.raises(ValueError):
            SeededSource(1 << 64)

    @given(st.integers(min_value=1, max_value=1 << 40))
    @settings(max_examples=200)
    def test_randbelow_in_range(self, bound):
        assert 0 <= SeededSource(9).randbelow(bound) < bound

    @given(st.integers(min_value=1, max_value=256))
    @settings(max_examples=50)
    def test_randbits_width(self, k):
        assert SeededSource(9).randbits(k) < (1 << k)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 65536])
    def test_single_request_matches_reference(self, n):
        assert SeededSource(5, b"x").randbytes(n) == BlockAppendSource(5, b"x").randbytes(n)

    @pytest.mark.parametrize("seed", [0, 1, 77])
    def test_mixed_requests_match_reference(self, seed):
        rnd = random.Random(seed)
        sizes = [0, 1, 15, 16, 63, 64, 65, 127, 128, 129, 1000, 4096, 65536]
        ours, ref = SeededSource(seed), BlockAppendSource(seed)
        for _ in range(300):
            n = rnd.choice(sizes)
            assert ours.randbytes(n) == ref.randbytes(n), n

    def test_system_source_shape(self):
        src = SystemSource()
        assert len(src.randbytes(16)) == 16
        assert 0 <= src.randbelow(10) < 10
        assert src.randbit() in (0, 1)


class TestWire:
    @given(st.integers(min_value=0, max_value=1 << 4096))
    @settings(max_examples=300)
    def test_uint_round_trip(self, x):
        r = Reader(encode_uint(x))
        assert r.read_uint() == x
        r.expect_end()

    @given(st.binary(max_size=512))
    @settings(max_examples=300)
    def test_bytes_round_trip(self, b):
        r = Reader(encode_bytes(b))
        assert r.read_bytes() == b
        r.expect_end()

    def test_zero_is_empty_magnitude(self):
        assert encode_uint(0) == b"\x00\x00\x00\x00"

    @pytest.mark.parametrize("magnitude", [b"\x00", b"\x00\x07", b"\x00\x00\x01\x00"],
                             ids=["zero", "seven", "two-zero-bytes"])
    def test_leading_zero_byte_rejected(self, magnitude):
        # each integer has one encoding: the minimal magnitude
        with pytest.raises(DecodeError, match="leading zero byte"):
            Reader(encode_bytes(magnitude)).read_uint()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_uint(-1)

    def test_truncation_raises(self):
        buf = encode_uint(123456789)
        with pytest.raises(TruncatedFrame):
            Reader(buf[:-1]).read_uint()

    # each case runs its reads in order; the last one hits the cut
    @pytest.mark.parametrize("reads, buf, message", [
        pytest.param("read_byte", b"", "needed 1 bytes at offset 0, have 0",
                     id="byte"),
        pytest.param("read_u32", b"\x00\x00\x01", "needed 4 bytes at offset 0, have 3",
                     id="u32"),
        pytest.param("read_bytes", b"", "needed 4 bytes at offset 0, have 0",
                     id="bytes-no-prefix"),
        pytest.param("read_bytes", b"\x00\x00\x00", "needed 4 bytes at offset 0, have 3",
                     id="bytes-short-prefix"),
        pytest.param("read_bytes", b"\x00\x00\x00\x03ab",
                     "needed 3 bytes at offset 4, have 2", id="bytes-short-field"),
        pytest.param("read_uint", b"\x00\x00", "needed 4 bytes at offset 0, have 2",
                     id="uint-short-prefix"),
        pytest.param("read_uint", b"\x00\x00\x00\x02\x01",
                     "needed 2 bytes at offset 4, have 1", id="uint-short-field"),
        pytest.param("read_byte read_bytes", b"\x07\x00\x00",
                     "needed 4 bytes at offset 1, have 2", id="bytes-after-a-byte"),
        pytest.param("read_byte read_uint", b"\x07\x00\x00\x00\xff",
                     "needed 255 bytes at offset 5, have 0", id="uint-after-a-byte"),
    ])
    def test_truncation_message(self, reads, buf, message):
        r = Reader(buf)
        *complete, cut = reads.split()
        for read in complete:
            getattr(r, read)()
        with pytest.raises(TruncatedFrame) as err:
            getattr(r, cut)()
        assert str(err.value) == message

    def test_trailing_bytes_raise(self):
        with pytest.raises(DecodeError):
            Reader(encode_uint(5) + b"\x00").expect_end()

    def test_composite_field_order(self):
        payload = encode_uint(7) + encode_bytes(b"hi") + bytes((3,))
        r = Reader(payload)
        assert r.read_uint() == 7
        assert r.read_bytes() == b"hi"
        assert r.read_byte() == 3
        r.expect_end()
