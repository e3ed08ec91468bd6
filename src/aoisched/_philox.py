"""Philox4x64-10 keyed by a ``SeedSequence``, computed with numpy integers.

The doubles are bit for bit those that
``np.random.Generator(np.random.Philox(np.random.SeedSequence(seed,
spawn_key=spawn_key))).random(n)`` returns, without importing
``numpy.random``:

* the key is the ``SeedSequence`` pool, mixed from the seed's and the spawn
  key's 32-bit words, read out as two 64-bit words (``generate_state(2,
  np.uint64)``);
* block b of the stream is the Philox4x64 bijection, ten rounds (Salmon et
  al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), of the 256-bit
  counter b + 1, and its four output words follow one another in the stream;
* a word x gives the double ``(x >> 11) * 2**-53``.

numpy has no 64x64 -> 128-bit multiply, so each round forms the high word
from 32-bit halves.
"""

from __future__ import annotations

import numpy as np

__all__ = ["philox_key", "uniforms"]

_MASK32 = 0xFFFFFFFF

# SeedSequence hashing constants (O'Neill's seed_seq_fe)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# Philox4x64 round multipliers (of counter words 0 and 2) and key increments
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_BUMPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10


def _words(n: int) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant first;
    zero is one word."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def philox_key(seed: int, spawn_key: tuple[int, ...]) -> tuple[int, int]:
    """The Philox key of ``SeedSequence(seed, spawn_key=spawn_key)``."""
    entropy = _words(seed)
    spawn = [w for part in spawn_key for w in _words(part)]
    if spawn:
        entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy += spawn

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for value in pool:
        value ^= hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mulhilo(x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the products ``x * m``, 64 bits by 64 bits."""
    mask, shift = np.uint64(_MASK32), np.uint64(32)
    x_lo, x_hi, m_lo, m_hi = x & mask, x >> shift, m & mask, m >> shift
    ll, lh, hl = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    carry = (ll >> shift) + (lh & mask) + (hl & mask)
    hi = x_hi * m_hi + (lh >> shift) + (hl >> shift) + (carry >> shift)
    return hi, x * m


def uniforms(key: tuple[int, int], start: int, n: int) -> np.ndarray:
    """Doubles ``start`` to ``start + n - 1`` (counting from 0) of the stream
    under ``key``. The rounds hold a dozen temporaries of n/2 words each, so
    a long stream is read in blocks."""
    first, skip = divmod(start, 4)
    blocks = -(-(skip + n) // 4)
    # counter words (0, 2), which the round multiplies, and (1, 3), which it
    # XORs; only word 0 of a counter below 2**64 is nonzero
    mul = np.zeros((2, blocks), dtype=np.uint64)
    mul[0] = np.arange(first + 1, first + blocks + 1, dtype=np.uint64)
    xor = np.zeros_like(mul)
    # per row: the multiplier, key word and key increment of that pair
    m, k, bumps = np.array([_MULTIPLIERS, key, _BUMPS], dtype=np.uint64)[:, :, None]
    for r in range(_ROUNDS):
        if r:
            k += bumps
        hi, lo = _mulhilo(mul, m)
        # (x0, x1, x2, x3) <- (hi2 ^ x1 ^ k0, lo2, hi0 ^ x3 ^ k1, lo0)
        mul, xor = hi[::-1] ^ xor ^ k, lo[::-1]
    words = np.stack((mul, xor), axis=1).reshape(4, blocks).T.ravel()[skip:skip + n]
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
