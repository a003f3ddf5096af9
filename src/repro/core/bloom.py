"""A deterministic bloom filter (Bloom, 1970).

Backs the light-weight edge index of Section 5.2.3.  The filter is exact
on negatives (no false negatives) and has a tunable false-positive rate,
which is the paper's "the precision of the index is adjustable".

Hashing is splitmix64-based double hashing — index ``i`` probes
``(h1 + i * h2) mod m`` — giving platform-independent, seed-stable
behaviour (Python's builtin ``hash`` is randomised per process, so it is
unsuitable here).

Storage is a **bit-packed** ``uint64`` word array (64 bits per word), and
the probe math is vectorised: :meth:`BloomFilter.add_many` and
:meth:`BloomFilter.might_contain_many` compute every probe position for a
whole batch of keys with a handful of numpy operations instead of one
Python-level loop iteration per (key, hash) pair.  The scalar entry
points (:meth:`BloomFilter.add`, ``in``) evaluate the *same* position
formula, so batched and scalar probes are bit-for-bit interchangeable —
which is exactly what the hot-path parity tests pin down.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import ReproError
from ..unique import sorted_unique

_MASK64 = (1 << 64) - 1
_U64 = np.uint64


def _splitmix64(x: int) -> int:
    """One splitmix64 scrambling round; excellent avalanche for cheap."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 over a ``uint64`` array.

    ``uint64`` arithmetic wraps modulo 2**64 exactly like the masked
    Python-int version above, so both produce identical hashes.
    """
    x = x + _U64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


def optimal_parameters(expected_items: int, fp_rate: float) -> tuple:
    """Classic sizing: bits ``m = -n ln p / (ln 2)^2``, hashes
    ``k = (m/n) ln 2``.  Returns ``(num_bits, num_hashes)``."""
    if expected_items < 1:
        expected_items = 1
    if not 0.0 < fp_rate < 1.0:
        raise ReproError(f"fp_rate must be in (0, 1), got {fp_rate}")
    m = max(8, int(math.ceil(-expected_items * math.log(fp_rate) / (math.log(2) ** 2))))
    k = max(1, int(round(m / expected_items * math.log(2))))
    return m, k


class BloomFilter:
    """Space-efficient approximate membership over integer keys.

    Parameters
    ----------
    expected_items:
        Number of keys that will be inserted (sizing hint).
    fp_rate:
        Target false-positive probability at that fill level.
    seed:
        Hash seed for reproducibility across runs.
    """

    __slots__ = ("num_bits", "num_hashes", "_bits", "_seed", "count")

    def __init__(self, expected_items: int, fp_rate: float = 0.01, seed: int = 0):
        self.num_bits, self.num_hashes = optimal_parameters(expected_items, fp_rate)
        # One uint64 word per 64 bits — the actual footprint is what
        # memory_bytes() reports (num_bits rounded up to a whole word).
        self._bits = np.zeros((self.num_bits + 63) // 64, dtype=np.uint64)
        self._seed = seed
        self.count = 0

    # ------------------------------------------------------------------
    def _probes(self, key: int):
        """Scalar probe positions of ``key`` (double hashing)."""
        h1 = _splitmix64((key ^ self._seed) & _MASK64)
        h2 = _splitmix64(h1) | 1  # odd stride avoids short probe cycles
        m = self.num_bits
        pos = h1 % m
        for _ in range(self.num_hashes):
            yield pos
            pos = (pos + h2) % m

    def _probe_positions(self, keys: np.ndarray) -> np.ndarray:
        """Probe positions of a key batch, shape ``(len(keys), k)``.

        Evaluates ``(h1 + i * h2) mod m`` as
        ``((h1 mod m) + i * (h2 mod m)) mod m`` so the intermediate terms
        fit uint64 without wrapping and match :meth:`_probes` exactly.

        Positions are hashed once per *unique* key and gathered back
        through the :func:`~repro.unique.sorted_unique` inverse: the
        expansion hot path probes pairwise edge keys whose endpoints
        repeat heavily (one GRAY image against a whole candidate row), so
        most batches re-hash the same key many times otherwise.  The gather preserves order and
        duplicates, so the returned matrix — and therefore every add /
        membership answer and probe-count statistic — is identical to
        hashing each key individually.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        unique, _, inverse = sorted_unique(keys)
        if len(unique) == len(keys):
            unique, inverse = keys, None
        h1 = _splitmix64_array(unique ^ _U64(self._seed & _MASK64))
        h2 = _splitmix64_array(h1) | _U64(1)
        m = _U64(self.num_bits)
        strides = np.arange(self.num_hashes, dtype=np.uint64)
        positions = (h1[:, None] % m + strides[None, :] * (h2[:, None] % m)) % m
        return positions if inverse is None else positions[inverse]

    # ------------------------------------------------------------------
    def add(self, key: int) -> None:
        """Insert an integer key."""
        bits = self._bits
        for pos in self._probes(key):
            bits[pos >> 6] |= _U64(1 << (pos & 63))
        self.count += 1

    def add_many(self, keys: np.ndarray) -> None:
        """Insert a whole batch of integer keys at once."""
        keys = np.asarray(keys)
        if len(keys) == 0:
            return
        pos = self._probe_positions(keys)
        np.bitwise_or.at(
            self._bits,
            (pos >> _U64(6)).astype(np.int64),
            _U64(1) << (pos & _U64(63)),
        )
        self.count += len(keys)

    def __contains__(self, key: int) -> bool:
        bits = self._bits
        return all(
            int(bits[pos >> 6]) >> (pos & 63) & 1 for pos in self._probes(key)
        )

    def might_contain_many(self, keys: np.ndarray) -> np.ndarray:
        """Batched membership: one bool per key, identical to ``in``."""
        keys = np.asarray(keys)
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._probe_positions(keys)
        words = self._bits[(pos >> _U64(6)).astype(np.int64)]
        hit = (words >> (pos & _U64(63))) & _U64(1)
        return hit.all(axis=1)

    # ------------------------------------------------------------------
    def estimated_fp_rate(self) -> float:
        """``(fraction of set bits) ** k`` — the realised FP probability."""
        if not self.num_bits:
            return 0.0
        fill = int(np.bitwise_count(self._bits).sum()) / self.num_bits
        return fill ** self.num_hashes

    def memory_bytes(self) -> int:
        """Exact footprint of the packed bit array."""
        return int(self._bits.nbytes)

    def __repr__(self) -> str:
        return (
            f"BloomFilter(bits={self.num_bits}, hashes={self.num_hashes}, "
            f"items={self.count})"
        )
