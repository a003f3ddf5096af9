"""``np.random.default_rng(seed).integers(0, k, size=n)``, in plain numpy.

The random partition (:func:`repro.graph.partition.random_partition`) is
the one random draw on a count's path.  Importing ``numpy.random`` for
it costs nine extension modules and, through ``secrets`` and ``hmac``,
OpenSSL's ``_hashlib``; this module reproduces the same stream, word for
word, from numpy arithmetic alone:

1. **SeedSequence** — the seed's 32-bit words hashed into a 4-word pool,
   then 8 words drawn from it as numpy's ``generate_state(4, uint64)``
   does (Python ints; a few dozen operations);
2. **PCG64** — a 128-bit LCG, ``s' = s * MULT + inc``, whose 64-bit
   output is XSL-RR of the *new* state.  States live on ``uint64``
   hi/lo arrays; a block of them is made by jump-ahead doubling (states
   ``m..2m-1`` are states ``0..m-1`` pushed ``m`` steps), and each later
   block is the previous one pushed one block length;
3. the generator's 32-bit draws — each 64-bit output split, low half
   first;
4. **Lemire's bounded draw** — ``(u * k) >> 32`` for a 32-bit ``u``,
   rejecting ``u`` whose low product word falls below ``2**32 mod k``;
   rejected words are skipped in order.

Only ``1 <= k < 2**32`` is reproduced (``k == 2**32`` and above take
numpy's raw-word and 64-bit paths).
"""

from __future__ import annotations

import operator

import numpy as np

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

#: Most PCG64 states made at once (2 x 8 bytes each, plus temporaries);
#: a power of two.
_BLOCK_STATES = 1 << 14

#: Exclusive upper bound of the ``k`` this module reproduces.
K_LIMIT = 1 << 32


def _pool(seed: int) -> list:
    """SeedSequence's entropy pool for ``seed`` (``mix_entropy`` of its
    little-endian 32-bit words, ``[0]`` for zero)."""
    entropy = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _seeded_state(seed: int):
    """PCG64's ``(state, inc)`` after ``PCG64(seed)``, as 128-bit ints."""
    pool = _pool(seed)
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        words.append(value ^ (value >> 16))
    u64 = [words[2 * i] | words[2 * i + 1] << 32 for i in range(4)]
    init_state = u64[0] << 64 | u64[1]
    inc = ((u64[2] << 64 | u64[3]) << 1 | 1) & _M128
    # One step from zero (which lands on ``inc``), add the seed, one step.
    return ((inc + init_state) * _PCG_MULT + inc) & _M128, inc


def _affine(hi, lo, a: int, c: int, out_hi, out_lo) -> None:
    """``out = (hi, lo) * a + c`` mod ``2**128``, element-wise."""
    a_hi, a_lo = np.uint64(a >> 64), np.uint64(a & _M64)
    c_hi, c_lo = np.uint64(c >> 64), np.uint64(c & _M64)
    m32, s32 = np.uint64(_M32), np.uint64(32)
    b_lo, b_hi = np.uint64(a & _M32), np.uint64((a >> 32) & _M32)
    # lo * a_lo as a full 128-bit product, on 32-bit halves.
    x_lo, x_hi = lo & m32, lo >> s32
    p0, p1, p2 = x_lo * b_lo, x_lo * b_hi, x_hi * b_lo
    mid = (p0 >> s32) + (p1 & m32) + (p2 & m32)
    top = x_hi * b_hi + (p1 >> s32) + (p2 >> s32) + (mid >> s32)
    top += hi * a_lo + lo * a_hi
    np.bitwise_or(mid << s32, p0 & m32, out=out_lo)
    out_lo += c_lo
    np.add(top, c_hi, out=out_hi)
    out_hi += out_lo < c_lo


def _blocks(state: int, inc: int, size: int):
    """PCG64's states after ``state``, ``size`` (a power of two) at a
    time, forever."""
    hi = np.empty(size, dtype=np.uint64)
    lo = np.empty(size, dtype=np.uint64)
    first = (state * _PCG_MULT + inc) & _M128
    hi[0], lo[0] = first >> 64, first & _M64
    # ``(a, c)`` is the map for ``m`` steps; at the end, for ``size``.
    a, c, m = _PCG_MULT, inc, 1
    while m < size:
        _affine(hi[:m], lo[:m], a, c, hi[m:2 * m], lo[m:2 * m])
        a, c, m = (a * a) & _M128, (c * (a + 1)) & _M128, 2 * m
    while True:
        yield hi, lo
        _affine(hi, lo, a, c, hi, lo)


def _words(hi, lo):
    """The 32-bit draws of a block of states: XSL-RR output, low half
    first."""
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return np.column_stack((out & np.uint64(_M32), out >> np.uint64(32))).ravel()


def bounded_integers(seed, k: int, n: int) -> np.ndarray:
    """``np.random.default_rng(seed).integers(0, k, size=n)`` for
    ``1 <= k < 2**32``: the same ``int64`` array, value for value.

    A negative seed is ``ValueError``, with numpy's message; a
    non-integer one is ``TypeError``.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if k == 1 or n <= 0:
        # No draw; a negative n fails as numpy's ``np.empty`` does.
        return np.zeros(n, dtype=np.int64)
    threshold = np.uint64(K_LIMIT % k)
    k64 = np.uint64(k)
    # Two draws per state; a draw is rejected with probability < k / 2**32.
    expected = n / (1.0 - int(threshold) / K_LIMIT)
    size = min(_BLOCK_STATES, 1 << int(expected / 2).bit_length())
    state, inc = _seeded_state(seed)
    parts, have = [], 0
    for hi, lo in _blocks(state, inc, size):
        product = _words(hi, lo) * k64
        kept = (product >> np.uint64(32))[(product & np.uint64(_M32)) >= threshold]
        parts.append(kept[: n - have].astype(np.int64))
        have += len(parts[-1])
        if have == n:
            return np.concatenate(parts)
