"""Random sources.

Every randomized operation in the toolkit takes an explicit source so that
protocol runs are reproducible under a fixed seed. SeededSource is a
SHAKE-256 counter stream; SystemSource draws from the OS CSPRNG and is the
production default.
"""

import secrets
from hashlib import shake_256


class SeededSource:
    """Deterministic byte stream keyed by a 64-bit seed and an optional label."""

    def __init__(self, seed: int, label: bytes = b""):
        if seed < 0 or seed >= 1 << 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self._key = seed.to_bytes(8, "big") + label
        self._counter = 0
        self._buf = b""

    def randbytes(self, n: int) -> bytes:
        buf = self._buf
        if len(buf) < n:
            # Joined once, so a request costs time linear in its length.
            key, counter = self._key, self._counter
            blocks = [buf]
            have = len(buf)
            while have < n:
                blocks.append(shake_256(key + counter.to_bytes(8, "big")).digest(64))
                counter += 1
                have += 64
            self._counter = counter
            buf = b"".join(blocks)
        out, self._buf = buf[:n], buf[n:]
        return out

    def randbits(self, k: int) -> int:
        if k <= 0:
            return 0
        nbytes = (k + 7) // 8
        v = int.from_bytes(self.randbytes(nbytes), "big")
        return v >> (8 * nbytes - k)

    def randbelow(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        k = bound.bit_length()
        while True:
            v = self.randbits(k)
            if v < bound:
                return v

    def randbit(self) -> int:
        return self.randbits(1)


class SystemSource:
    """OS-CSPRNG-backed source with the same interface as SeededSource."""

    def randbytes(self, n: int) -> bytes:
        return secrets.token_bytes(n)

    def randbits(self, k: int) -> int:
        return secrets.randbits(k) if k > 0 else 0

    def randbelow(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return secrets.randbelow(bound)

    def randbit(self) -> int:
        return secrets.randbits(1)


# Either class above satisfies this; annotations use the alias for clarity.
RandomSource = SeededSource | SystemSource


def derive_source(seed: int, label: bytes) -> SeededSource:
    """Independent substream for a worker or role, keyed off one master seed."""
    return SeededSource(seed, label)
