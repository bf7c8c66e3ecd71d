"""numpy's `SeedSequence` mixing applied to many seeds at once.

`child_seeds` and `pcg64_states` give, value for value, what numpy's own
`SeedSequence`, `spawn`, `generate_state` and `PCG64` construction give, but
hash every seed as one row of uint32 word columns.  The hash constants
advance the same way for every row, so each mixing round is one numpy
operation over all the rows.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_POOL = 4  # SeedSequence's default pool size, in uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # state generation
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _hash(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One round of `SeedSequence`'s hash: the hashed column and the next constant."""
    value = value ^ np.uint32(const)
    const = const * mult & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _pool(columns: list[np.ndarray]) -> list[np.ndarray]:
    """The 4-word entropy pool of every row of `columns` (uint32, at least 4)."""
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value, const = _hash(value, const, _MULT_A)
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        mixed = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return mixed ^ (mixed >> np.uint32(16))

    pool = [hashmix(column) for column in columns[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for column in columns[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(column))
    return pool


def _generate(pool: list[np.ndarray], words: int) -> np.ndarray:
    """`generate_state(words)` of every row of the pool, as a `(rows, words)` uint32 array."""
    const = _INIT_B
    out = []
    for i in range(words):
        word, const = _hash(pool[i % _POOL], const, _MULT_B)
        out.append(word)
    return np.stack(out, axis=1)


def child_seeds(entropy: int, count: int) -> list[int]:
    """`SeedSequence(entropy).spawn(count)[i].generate_state(1)[0]` for every i < count."""
    if entropy < 0:
        raise ValueError(f"entropy must be >= 0, got {entropy}")
    words = max(_POOL, -(-entropy.bit_length() // 32))
    columns = [np.full(count, entropy >> 32 * i & _MASK32, dtype=np.uint32) for i in range(words)]
    columns.append(np.arange(count, dtype=np.uint32))  # the spawn index
    return _generate(_pool(columns), 1)[:, 0].tolist()


def pcg64_states(seeds: Sequence[int]) -> list[tuple[int, int]]:
    """`(state, inc)` of `PCG64(SeedSequence(s))` for every seed 0 <= s < 2^128."""
    if len(seeds) and not (min(seeds) >= 0 and max(seeds) < 1 << 128):
        raise ValueError("a PCG64 block seed must be in [0, 2^128)")
    raw = b"".join(s.to_bytes(16, "little") for s in seeds)
    rows = np.frombuffer(raw, dtype="<u4").reshape(len(seeds), _POOL)
    # a seed below 2^128 is its words zero-padded to 4, which the pool mixes as numpy does
    words = _generate(_pool(list(rows.T.astype(np.uint32))), 8)
    states = []
    for s_hi, s_lo, i_hi, i_lo in words.astype("<u4").view("<u8").tolist():
        # pcg_setseq_128_srandom_r: inc = initseq << 1 | 1, step, add initstate, step
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return states
