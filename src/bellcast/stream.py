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
* PCG64 (O'Neill 2014, XSL-RR 128/64): ``initstate = s0 << 64 | s1`` and
  ``initseq = s2 << 64 | s3``.  Seeding sets ``state = 0``, ``inc = initseq
  << 1 | 1``, steps, adds ``initstate`` and steps again.  Each draw steps,
  then outputs; the double is ``(x >> 11) * 2**-53``.

128-bit values are ``(hi, lo)`` pairs of ``uint64`` arrays, multiplied in
32-bit limbs.  All integer arithmetic is on arrays, where numpy wraps
silently; scalar ``uint64`` arithmetic would warn on overflow.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MULT1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MULT2 = 0x94D049BB133111EB

# SeedSequence hashing constants.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

_PCG_MULT_HI = 0x2360ED051FC65DA4
_PCG_MULT_LO = 0x4385DF649FCCF645


def _u64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.uint64)


def derive_seeds(master_seed, index) -> np.ndarray:
    """Splitmix-style 64-bit mix of ``(master_seed, index)``, elementwise.

    Either argument may be an int or an array of ints in ``[0, 2**64)``; the
    result is a 1-d ``uint64`` array of their broadcast shape.
    """
    master = np.atleast_1d(_u64(master_seed))
    z = master + (np.atleast_1d(_u64(index)) + _u64(1)) * _u64(_SPLITMIX_GAMMA)
    z ^= z >> _u64(30)
    z *= _u64(_SPLITMIX_MULT1)
    z ^= z >> _u64(27)
    z *= _u64(_SPLITMIX_MULT2)
    z ^= z >> _u64(31)
    return z


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiply) constants of ``count`` successive hash calls.

    SeedSequence's running hash constant starts at ``init`` and is multiplied
    by ``mult`` inside each call; it never depends on the entropy.
    """
    pairs = []
    for _ in range(count):
        nxt = (init * mult) & _MASK32
        pairs.append((init, nxt))
        init = nxt
    return pairs


# mix_entropy: 4 hashmix calls fill the pool, then 12 mix it in (source,
# destination) loop order; a seed's 2 words leave no entropy over.
_MIX_ENTROPY = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE**2)
_FILL_CONSTANTS, _MIX_CONSTANTS = _MIX_ENTROPY[:_POOL_SIZE], _MIX_ENTROPY[_POOL_SIZE:]
# generate_state(4, uint64): 8 uint32 words.
_GENERATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hash32(value: np.ndarray, xor: int, mult: int) -> np.ndarray:
    value = (value ^ np.uint32(xor)) * np.uint32(mult)
    return value ^ (value >> np.uint32(_XSHIFT))


def _seed_words(seeds: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(seed).generate_state(4, uint64) for each seed, as 4 arrays."""
    entropy = [
        (seeds & _u64(_MASK32)).astype(np.uint32),
        (seeds >> _u64(32)).astype(np.uint32),
    ]
    zero = np.zeros_like(entropy[0])
    pool = [
        _hash32(entropy[i] if i < len(entropy) else zero, xor, mult)
        for i, (xor, mult) in enumerate(_FILL_CONSTANTS)
    ]
    mix_constants = iter(_MIX_CONSTANTS)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed = _hash32(pool[src], *next(mix_constants))
                mixed = (
                    pool[dst] * np.uint32(_MIX_MULT_L)
                    - hashed * np.uint32(_MIX_MULT_R)
                )
                pool[dst] = mixed ^ (mixed >> np.uint32(_XSHIFT))
    words = [
        _hash32(pool[i % _POOL_SIZE], xor, mult).astype(np.uint64)
        for i, (xor, mult) in enumerate(_GENERATE_CONSTANTS)
    ]
    return [words[2 * j] | (words[2 * j + 1] << _u64(32)) for j in range(4)]


def _mul64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit product of two uint64 arrays, as (hi, lo)."""
    m32, s32 = _u64(_MASK32), _u64(32)
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


def _step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 state step: ``state * MULT + inc`` modulo 2**128."""
    prod_hi, prod_lo = _mul64(lo, _u64(_PCG_MULT_LO))
    prod_hi += lo * _u64(_PCG_MULT_HI) + hi * _u64(_PCG_MULT_LO)
    return _add128(prod_hi, prod_lo, inc_hi, inc_lo)


def uniforms(seeds, k: int) -> np.ndarray:
    """Row ``i`` equals ``np.random.default_rng(int(seeds[i])).random(k)``.

    ``seeds`` is a 1-d array of integers in ``[0, 2**64)``; the result is an
    ``(N, k)`` float64 array.
    """
    seeds = np.atleast_1d(_u64(seeds))
    s0, s1, s2, s3 = _seed_words(seeds)
    inc_hi = (s2 << _u64(1)) | (s3 >> _u64(63))
    inc_lo = (s3 << _u64(1)) | _u64(1)
    zero = np.zeros_like(seeds)
    hi, lo = _step(zero, zero, inc_hi, inc_lo)
    hi, lo = _add128(hi, lo, s0, s1)
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    out = np.empty((seeds.shape[0], k), dtype=np.float64)
    for column in range(k):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        rot = hi >> _u64(58)
        x = hi ^ lo
        x = (x >> rot) | (x << ((_u64(64) - rot) & _u64(63)))
        out[:, column] = (x >> _u64(11)).astype(np.float64) * 2.0**-53
    return out
