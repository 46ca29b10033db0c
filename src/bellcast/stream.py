"""Per-trial seeds and uniform draws for a whole batch at once.

Each trial's draws come from ``np.random.default_rng(seed).random(k)``.
Building one generator per trial costs about 13 us, nearly all of it
SeedSequence hashing and PCG64 seeding, against well under 1 us for the draw.
Both are fixed integer algorithms, so this module runs them over ``uint64``
arrays of seeds and returns rows bit-identical to numpy's.

* SeedSequence (numpy's ``bit_generator.pyx``): the entropy is the seed's two
  little-endian 32-bit words.  A seed below 2**32 has one word, but the pool
  (4 words) is padded by hashing zeros, so ``[w0, 0]`` gives the same pool.
  ``generate_state(4, uint64)`` then yields the four words of PCG64's seed.
  The pool is one ``(4, N)`` array with a lane per word, and each hash call
  of numpy's loops gets its own lane: one hash fills the pool, each source
  word hashes its 3 destinations in one call, and one hash of the ``(8, N)``
  tiled pool generates the state.  The hash constants never depend on the
  entropy, so they are computed once.
* PCG64 (O'Neill 2014, XSL-RR 128/64): ``initstate = s0 << 64 | s1`` and
  ``initseq = s2 << 64 | s3``.  Seeding sets ``state = 0``, ``inc = initseq
  << 1 | 1``, steps, adds ``initstate`` and steps again.  Each draw steps,
  then outputs; the double is ``(x >> 11) * 2**-53``.
* Jump-ahead: a step is ``state * M + inc`` modulo 2**128, so the state at
  draw ``j`` (1..k) is ``M**(j+1) * initstate + C_(j+2) * inc``, where
  ``C_j = M**0 + ... + M**(j-1)``.  The constants are Python integers,
  cached per ``k``, and all ``k`` draws of every seed come from one
  ``(k, N)`` pass: two constant-times-variable products and one add.

128-bit values are ``(hi, lo)`` pairs of ``uint64`` arrays, multiplied in
32-bit limbs.  All integer arithmetic is on arrays, where numpy wraps
silently; scalar ``uint64`` arithmetic would warn on overflow.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# uint64 operands built once, not per call: the low-word mask, counts 0-64.
_LOW32 = np.uint64(_MASK32)
_UINT64 = tuple(np.uint64(value) for value in range(65))

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MULT2 = np.uint64(0x94D049BB133111EB)

# SeedSequence hashing constants.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def derive_seeds(master_seed, index) -> np.ndarray:
    """Splitmix-style 64-bit mix of ``(master_seed, index)``, elementwise.

    Either argument may be an int or an array of ints in ``[0, 2**64)``; the
    result is a 1-d ``uint64`` array of their broadcast shape.
    """
    master = np.atleast_1d(np.asarray(master_seed, np.uint64))
    index = np.atleast_1d(np.asarray(index, np.uint64))
    z = master + (index + _UINT64[1]) * _SPLITMIX_GAMMA
    z ^= z >> _UINT64[30]
    z *= _SPLITMIX_MULT1
    z ^= z >> _UINT64[27]
    z *= _SPLITMIX_MULT2
    z ^= z >> _UINT64[31]
    return z


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The (xor, multiply) constants of ``count`` successive hash calls, as a
    ``(count, 2, 1)`` ``uint32`` array: row ``i`` broadcasts over the lane of
    call ``i``.

    SeedSequence's running hash constant starts at ``init`` and is multiplied
    by ``mult`` inside each call; it never depends on the entropy.
    """
    pairs = []
    for _ in range(count):
        nxt = (init * mult) & _MASK32
        pairs.append((init, nxt))
        init = nxt
    return np.array(pairs, dtype=np.uint32)[:, :, None]


# mix_entropy: 4 hashmix calls fill the pool, then 12 mix it in (source,
# destination) loop order, 3 per source; a seed's 2 words leave no entropy
# over.
_MIX_ENTROPY = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE**2)
_FILL_CONSTANTS = _MIX_ENTROPY[:_POOL_SIZE]
_MIX_CONSTANTS = _MIX_ENTROPY[_POOL_SIZE:].reshape(_POOL_SIZE, _POOL_SIZE - 1, 2, 1)
# Each source's destinations: the other pool words, ascending.
_MIX_DESTINATIONS = [
    [dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)
]
# generate_state(4, uint64): 8 uint32 words, hashed from pool words 0-3, 0-3.
_GENERATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hash32(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of every lane: ``constants[i]`` holds lane
    ``i``'s (xor, multiply) pair."""
    value = (value ^ constants[:, 0]) * constants[:, 1]
    return value ^ (value >> _XSHIFT)


def _seed_words(seeds: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(seed).generate_state(4, uint64) for each seed, as 4 arrays.

    The pool is one ``(4, N)`` array with a lane per pool word.
    """
    entropy = np.zeros((_POOL_SIZE, seeds.shape[0]), dtype=np.uint32)
    entropy[0] = seeds & _LOW32
    entropy[1] = seeds >> _UINT64[32]
    pool = _hash32(entropy, _FILL_CONSTANTS)
    for src, dst in enumerate(_MIX_DESTINATIONS):
        hashed = _hash32(pool[src], _MIX_CONSTANTS[src])
        mixed = pool[dst] * _MIX_MULT_L - hashed * _MIX_MULT_R
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    words = _hash32(np.tile(pool, (2, 1)), _GENERATE_CONSTANTS).astype(np.uint64)
    return list(words[0::2] | (words[1::2] << _UINT64[32]))


def _mul64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit product of two uint64 arrays, as (hi, lo)."""
    m32, s32 = _LOW32, _UINT64[32]
    a0, a1 = a & m32, a >> s32
    b0, b1 = b & m32, b >> s32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> s32) + (p01 & m32) + (p10 & m32)
    lo = (mid << s32) | (p00 & m32)
    hi = a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
    return hi, lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def _mul128(c_hi, c_lo, hi, lo) -> tuple[np.ndarray, np.ndarray]:
    """``c * x`` modulo 2**128, broadcast over the arrays of ``c`` and ``x``."""
    prod_hi, prod_lo = _mul64(lo, c_lo)
    prod_hi += lo * c_hi + hi * c_lo
    return prod_hi, prod_lo


def _split128(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as ``(hi, lo)`` columns of words, one row per value."""
    pairs = [divmod(value, 1 << 64) for value in values]
    words = np.array(pairs, np.uint64).reshape(-1, 2)
    return words[:, :1], words[:, 1:]


@functools.cache
def _jump_constants(k: int) -> tuple[np.ndarray, ...]:
    """``M**(j+1)`` and ``C_(j+2)`` for draws ``j = 1..k``, as ``(hi, lo)``
    pairs of ``(k, 1)`` ``uint64`` arrays (see the module docstring)."""
    powers, sums = [], []
    power, total = _PCG_MULT, 1 + _PCG_MULT  # M**1 and C_2
    for _ in range(k):
        power = power * _PCG_MULT & _MASK128
        total = (total + power) & _MASK128
        powers.append(power)
        sums.append(total)
    constants = (*_split128(powers), *_split128(sums))
    for array in constants:
        array.setflags(write=False)
    return constants


def uniforms(seeds, k: int) -> np.ndarray:
    """Row ``i`` equals ``np.random.default_rng(int(seeds[i])).random(k)``.

    ``seeds`` is a 1-d array of integers in ``[0, 2**64)``; the result is an
    ``(N, k)`` float64 array, the transpose of the ``(k, N)`` pass, so each
    draw's column is contiguous.
    """
    seeds = np.atleast_1d(np.asarray(seeds, np.uint64))
    s0, s1, s2, s3 = _seed_words(seeds)
    inc_hi = (s2 << _UINT64[1]) | (s3 >> _UINT64[63])
    inc_lo = (s3 << _UINT64[1]) | _UINT64[1]
    power_hi, power_lo, sum_hi, sum_lo = _jump_constants(k)
    hi, lo = _add128(
        *_mul128(power_hi, power_lo, s0, s1), *_mul128(sum_hi, sum_lo, inc_hi, inc_lo)
    )
    rot = hi >> _UINT64[58]
    x = hi ^ lo
    x = (x >> rot) | (x << ((_UINT64[64] - rot) & _UINT64[63]))
    return ((x >> _UINT64[11]).astype(np.float64) * 2.0**-53).T
