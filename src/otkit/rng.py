"""Random sources.

Every randomized operation in the toolkit takes an explicit source so that
protocol runs are reproducible under a fixed seed. SeededSource is a
SHAKE-256 counter stream; SystemSource draws from the OS CSPRNG and is the
production default. Both draw integers by the one sampler of RandomSource.
"""

import secrets
from hashlib import shake_256


class RandomSource:
    """Integer draws over a byte stream that each subclass's randbytes gives."""

    def randbytes(self, n: int) -> bytes:
        raise NotImplementedError

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


class SeededSource(RandomSource):
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


class SystemSource(RandomSource):
    """OS-CSPRNG-backed source."""

    def randbytes(self, n: int) -> bytes:
        return secrets.token_bytes(n)
