"""Vectorized Bloom filter on a numpy bit array.

Same mathematics as the reference's prototype (deep_crawling/crazy.py:102-165:
optimal ``m = -n·ln p / ln²2``, ``k = (m/n)·ln 2``, fill-ratio cardinality
estimate) — public textbook formulas — but vectorized: callers pass
pre-computed uint64 key hashes (see functions/hashing.hash64), probes are
derived by double hashing (h2 = splitmix64(h1)), and add/contains operate on
whole arrays at once. No mmh3/bitarray dependency.

Sizing intuition for the north-star scale: 10^10 keys at 1% fpp →
m ≈ 9.6e10 bits ≈ 12 GB total → 64 shards × ~187 MB per actor.
"""

from __future__ import annotations

import math

import numpy as np

_SPLITMIX_C1 = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_C2 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_C3 = np.uint64(0x94D049BB133111EB)

# set bits of every byte value: popcount without np.bitwise_count (numpy ≥ 2.0)
_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public domain algorithm)."""
    with np.errstate(over="ignore"):
        x = (x + _SPLITMIX_C1).astype(np.uint64)
        x ^= x >> np.uint64(30)
        x *= _SPLITMIX_C2
        x ^= x >> np.uint64(27)
        x *= _SPLITMIX_C3
        x ^= x >> np.uint64(31)
    return x


class BloomFilter:
    def __init__(self, capacity: int, error_rate: float = 0.01):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        # optimal bit count / hash count (crazy.py:112-120 formulas)
        m = int(math.ceil(-capacity * math.log(error_rate) / (math.log(2) ** 2)))
        self.num_bits = max(64, (m + 63) // 64 * 64)
        self.num_hashes = max(1, int(round((self.num_bits / capacity) * math.log(2))))
        self.capacity = capacity
        self.error_rate = error_rate
        self.words = np.zeros(self.num_bits // 64, dtype=np.uint64)
        self._approx_added = 0

    # -- probe positions ---------------------------------------------------
    def _positions(self, hashes: np.ndarray) -> np.ndarray:
        """(n,) uint64 → (k, n) bit positions via double hashing."""
        h1 = hashes.astype(np.uint64)
        h2 = splitmix64(h1) | np.uint64(1)  # odd step
        m = np.uint64(self.num_bits)
        ks = np.arange(self.num_hashes, dtype=np.uint64)[:, None]
        with np.errstate(over="ignore"):
            return (h1[None, :] + ks * h2[None, :]) % m

    def add_hashes(self, hashes: np.ndarray) -> None:
        if len(hashes) == 0:
            return
        pos = self._positions(np.asarray(hashes, dtype=np.uint64)).ravel()
        word = (pos >> np.uint64(6)).astype(np.int64)
        bit = np.uint64(1) << (pos & np.uint64(63))
        np.bitwise_or.at(self.words, word, bit)
        self._approx_added += len(hashes)

    def contains_hashes(self, hashes: np.ndarray) -> np.ndarray:
        """(n,) uint64 → (n,) bool: True = possibly present."""
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(np.asarray(hashes, dtype=np.uint64))
        word = (pos >> np.uint64(6)).astype(np.int64)
        bit = np.uint64(1) << (pos & np.uint64(63))
        present = (self.words[word] & bit) != 0
        return present.all(axis=0)

    # -- metrics / persistence --------------------------------------------
    def estimated_cardinality(self) -> float:
        """Fill-ratio estimator n̂ = -(m/k)·ln(1 - X/m) (crazy.py:140-158)."""
        set_bits = int(_BYTE_POPCOUNT[self.words.view(np.uint8)].sum(dtype=np.int64))
        if set_bits == 0:
            return 0.0
        if set_bits >= self.num_bits:
            return float("inf")
        return -(self.num_bits / self.num_hashes) * math.log(1 - set_bits / self.num_bits)

    def to_bytes(self) -> bytes:
        header = (
            self.capacity.to_bytes(8, "little")
            + int(self.error_rate * 1e9).to_bytes(8, "little")
            + self._approx_added.to_bytes(8, "little")
        )
        return header + self.words.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        capacity = int.from_bytes(data[0:8], "little")
        error_rate = int.from_bytes(data[8:16], "little") / 1e9
        bf = cls(capacity, error_rate)
        bf._approx_added = int.from_bytes(data[16:24], "little")
        words = np.frombuffer(data[24:], dtype=np.uint64)
        if len(words) != len(bf.words):
            raise ValueError("bloom payload size mismatch")
        bf.words = words.copy()
        return bf
