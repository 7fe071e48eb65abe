"""Deterministic seed derivation.

Every stochastic component draws from its own stream, derived from a master
seed plus string tags (and optional integer indices). Runs are reproducible
from the master seed alone.

``rng_states`` derives many indexed streams at once: for each index k it
gives the ``bit_generator.state`` that ``rng_for(seed, tag, k)`` starts from,
bit for bit, without building a ``SeedSequence`` or a generator per index.
It repeats numpy's arithmetic in vectorized uint32 form: ``SeedSequence``
pool mixing and ``generate_state`` for ``subseed``, the same again for the
integer seed that ``default_rng`` is given, then PCG64's seeding step on
Python ints modulo 2**128. A loop that needs one stream per step (the
trainer's dropout masks) assigns each state to one reused generator.
"""

from __future__ import annotations

import zlib

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF

# PCG64's default 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _as_entropy(part) -> int:
    if isinstance(part, (bool,)):
        raise TypeError("bool is not a valid seed part")
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"cannot derive entropy from {type(part).__name__}")


def subseed(*parts) -> int:
    """Collapse integer/string parts into a stable 64-bit seed."""
    seq = np.random.SeedSequence([_as_entropy(p) for p in parts])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def rng_for(*parts) -> np.random.Generator:
    """Fresh generator for the stream identified by ``parts``."""
    return np.random.default_rng(subseed(*parts))


def _hash(value: np.ndarray, const: int, mult: int):
    """SeedSequence's hash step on uint32 ``value`` with the running
    constant ``const``, which it advances by ``mult``; returns the hashed
    value and the next constant."""
    advanced = (const * mult) & _MASK32
    value = (value ^ np.uint32(const)) * np.uint32(advanced)
    return value ^ (value >> np.uint32(16)), advanced


def _pool(words: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).pool`` for each column of ``words``, the
    entropy's uint32 words (at most the pool's four) as equal-length
    uint32 arrays."""
    entropy = words + [np.zeros_like(words[0])] * (_POOL_SIZE - len(words))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value, const = _hash(value, const, _MULT_A)
        return value

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> np.uint32(16))

    mixer = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixer[i_dst] = mix(mixer[i_dst], hashmix(mixer[i_src]))
    return mixer


def _generate_state(pool: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """``SeedSequence.generate_state(n_words, np.uint32)`` per column."""
    out, const = [], _INIT_B
    for i in range(n_words):
        value, const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
        out.append(value)
    return out


def rng_states(seed, tag: str, indices):
    """Yield ``rng_for(seed, tag, k).bit_generator.state`` for each k in
    ``indices``.

    Assigned to a PCG64 generator's ``bit_generator.state``, a state
    makes it draw exactly what ``rng_for(seed, tag, k)`` would. The hashing
    runs once, vectorized over all indices, at the first draw; each
    state's 128-bit step and dict are made as it is yielded. The hashing's
    arrays, about 110 bytes per index at the first draw and 92 after it,
    live until the last state, so a caller with many indices passes them
    in blocks.
    """
    ks = np.asarray(indices, dtype=np.int64)
    if not ks.size:
        return
    entropy = [np.full(ks.shape, _as_entropy(part), dtype=np.uint32) for part in (seed, tag)]
    entropy.append((ks & _MASK32).astype(np.uint32))
    # subseed: the low and high words of generate_state(1, np.uint64)
    lo, hi = _generate_state(_pool(entropy), 2)
    # default_rng(int) hashes the int's words; a zero high word hashes
    # as the pool's zero padding, so [lo, 0] gives the pool of [lo]
    words = _generate_state(_pool([lo, hi]), 8)
    halves = [(words[2 * j + 1].astype(np.uint64) << np.uint64(32)) | words[2 * j]
              for j in range(4)]
    for s_hi, s_lo, i_hi, i_lo in zip(*halves):
        # pcg64_set_seed: inc = (initseq << 1) | 1, then state = 0 stepped
        # once, plus initstate, stepped again
        inc = (((int(i_hi) << 64) | int(i_lo)) << 1 | 1) & _MASK128
        state = ((inc + ((int(s_hi) << 64) | int(s_lo))) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}
