"""Reference computations: fixed work of the benchmark's own, timed between
sessions to read how fast the host runs at that moment.

The machine the benchmark was tuned on is shared, and its speed moves by up to
a factor of two within seconds and from one run to the next. A session's wall
time is scaled by the speed of the reference measured around it (see
run.Loop), so the metrics read as if the host ran at one fixed speed. Each
workload has the reference that resembles its own work, because the host's
slow states do not slow big-integer arithmetic, byte loops and interpreter
overhead alike. Nothing here imports otkit, and the work never changes with
the program, so a faster program reads faster.
"""

import hashlib
import time


def _int(label: bytes, bits: int) -> int:
    """A fixed odd integer of exactly `bits` bits."""
    raw = int.from_bytes(hashlib.shake_256(label).digest((bits + 7) // 8), "big")
    return (raw >> (-bits % 8)) | (1 << (bits - 1)) | 1


# dh-2048: modexps mod a 2048-bit modulus. A 256-bit exponent keeps one
# iteration near 4 ms; the multiplication and reduction are those of the
# group's own modexps.
_M2048, _B2048, _E256 = _int(b"m2048", 2048), _int(b"b2048", 2040), _int(b"e256", 256)


def modexp_2048() -> int:
    return pow(_B2048, _E256, _M2048)


# mr-paillier: a modexp mod a 2304-bit modulus (n^2 of a 1152-bit key, as in
# enc, hscale and dec) and one mod a 576-bit modulus (a prime candidate's
# Miller-Rabin round in key generation).
_M2304, _B2304 = _int(b"m2304", 2304), _int(b"b2304", 2300)
_M576, _B576, _E576 = _int(b"m576", 576), _int(b"b576", 570), _int(b"e576", 576)


def modexp_paillier() -> int:
    return pow(_B2304, _E256, _M2304) ^ pow(_B576, _E576, _M576)


# pad-bulk: what xor_bytes and SeededSource.randbytes do, at 2 KiB: a byte-wise
# XOR in a generator, SHAKE-256 blocks appended to a bytes buffer, and slices.
_X, _Y = hashlib.shake_256(b"x").digest(2048), hashlib.shake_256(b"y").digest(2048)


def byte_loops() -> int:
    out = bytes(a ^ b for a, b in zip(_X, _Y))
    buf = b""
    for counter in range(32):
        buf += hashlib.shake_256(out[:16] + counter.to_bytes(8, "big")).digest(64)
    return len(buf[:1024] + out[1024:])


# pad-small: interpreter overhead of the kind a session engine has: calls,
# attribute and dict lookups, small-int arithmetic, short bytes built,
# framed and parsed.
class _Frame:
    __slots__ = ("kind", "payload")

    def __init__(self, kind: int, payload: bytes):
        self.kind, self.payload = kind, payload


def _encode(frame: _Frame) -> bytes:
    n = len(frame.payload)
    return n.to_bytes(4, "big") + bytes((frame.kind,)) + frame.payload


def _decode(buf: bytes) -> _Frame:
    n = int.from_bytes(buf[:4], "big")
    if len(buf) != 5 + n:
        raise ValueError("bad frame")
    return _Frame(buf[4], buf[5:])


def interpreter() -> int:
    seen: dict[int, int] = {}
    total = 0
    for i in range(40):
        frame = _decode(_encode(_Frame(i & 7, i.to_bytes(2, "big") * 8)))
        seen[frame.kind] = seen.get(frame.kind, 0) + len(frame.payload)
        total += isinstance(frame.payload, bytes) and frame.payload[1]
    return total + sum(seen.values())


# Each kernel with its nominal rate, in iterations per second: about its
# median rate inside timed runs on the machine the benchmark was tuned on
# (see README.md), so that scaled times read close to measured ones there.
KERNELS = {
    "modexp-2048": (modexp_2048, 195.0),
    "modexp-paillier": (modexp_paillier, 140.0),
    "byte-loops": (byte_loops, 4750.0),
    "interpreter": (interpreter, 11000.0),
}


def rate(kernel, min_s: float) -> float:
    """Iterations of kernel per second, over at least min_s of wall time."""
    count = 0
    t0 = time.perf_counter()
    while True:
        kernel()
        count += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return count / elapsed
