"""Low-level payload codecs.

Big integers travel as a 4-byte big-endian length followed by the minimal
big-endian magnitude (zero encodes as length 0, no sign), the one form
read_uint accepts. Byte strings travel as a 4-byte big-endian length
followed by the raw bytes. Composite payloads are plain concatenations in a
fixed field order; Reader walks them back.
The encoders take several fields at once and join them in one pass, so a
large field is copied once.
"""

import struct

from .errors import DecodeError, TruncatedFrame

_U32 = struct.Struct(">I")


def encode_uint(*values: int) -> bytes:
    parts = []
    for x in values:
        if x < 0:
            raise ValueError("negative integers have no wire form")
        mag = x.to_bytes((x.bit_length() + 7) // 8, "big")
        parts += (_U32.pack(len(mag)), mag)
    return b"".join(parts)


def encode_bytes(*fields: bytes) -> bytes:
    parts = []
    for b in fields:
        if len(b) >= 1 << 32:
            raise ValueError("byte string too long for a 4-byte length")
        parts += (_U32.pack(len(b)), b)
    return b"".join(parts)


class Reader:
    """Sequential decoder over one payload buffer."""

    def __init__(self, buf: bytes):
        self._buf = buf
        self._pos = 0

    def _short(self, n: int, at: int) -> TruncatedFrame:
        return TruncatedFrame(
            f"needed {n} bytes at offset {at}, have {len(self._buf) - at}"
        )

    def read_byte(self) -> int:
        pos = self._pos
        try:
            byte = self._buf[pos]
        except IndexError:
            raise self._short(1, pos) from None
        self._pos = pos + 1
        return byte

    def read_u32(self) -> int:
        pos = self._pos
        try:
            (n,) = _U32.unpack_from(self._buf, pos)
        except struct.error:
            raise self._short(4, pos) from None
        self._pos = pos + 4
        return n

    def read_uint(self) -> int:
        mag = self.read_bytes()
        if mag[:1] == b"\x00":  # not minimal: a second encoding of the integer
            raise DecodeError("integer magnitude has a leading zero byte")
        return int.from_bytes(mag, "big")

    def read_bytes(self) -> bytes:
        buf, pos = self._buf, self._pos
        try:
            (n,) = _U32.unpack_from(buf, pos)
        except struct.error:
            raise self._short(4, pos) from None
        start = pos + 4
        end = start + n
        if end > len(buf):
            raise self._short(n, start)
        self._pos = end
        return buf[start:end]

    def expect_end(self) -> None:
        if self._pos != len(self._buf):
            raise DecodeError(
                f"{len(self._buf) - self._pos} unconsumed bytes after payload"
            )
