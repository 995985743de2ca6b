"""The seeded sample stream of the checks, in plain Python.

`PCG64(seed)` draws the same doubles as numpy's ``default_rng(seed)``:
the seed is expanded by numpy's SeedSequence (pool of four 32-bit words)
into the 128-bit state and increment of a PCG64 generator, whose XSL-RR
output gives 64-bit words (O'Neill, *PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation*, HMC-CS-2014-0905). `random()` keeps the top 53 bits of a
word, and `uniform(lo, hi)` is lo + (hi - lo) * random(), both as numpy
computes them, so a seed names the same sample points with or without
numpy.
"""

from __future__ import annotations

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence hash constants
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64): four 64-bit words."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(value))

    state = []
    hash_const = _INIT_B
    for i in range(2 * 4):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> _XSHIFT))
    # little-endian pairs of 32-bit words
    return [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]


class PCG64:
    """numpy's ``default_rng(seed)`` double stream; a seed is a non-negative integer."""

    def __init__(self, seed: int):
        w = _seed_words(seed)
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
        state = (self._inc + (w[0] << 64 | w[1])) & _MASK128
        self._state = (state * _PCG_MULTIPLIER + self._inc) & _MASK128

    def random(self) -> float:
        """A double in [0, 1): the top 53 bits of the next XSL-RR output word."""
        state = self._state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((((word >> rot) | (word << (64 - rot))) & _MASK64) >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()
