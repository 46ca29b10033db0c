"""Per-trial seeds and uniform draws for a whole batch at once.

Each trial's draws come from ``np.random.default_rng(seed).random(k)``.
Building one generator per trial costs about 13 us, nearly all of it
SeedSequence hashing and PCG64 seeding, against well under 1 us for the draw.
Both are fixed integer algorithms, so this module runs them over ``uint64``
arrays of seeds and returns rows bit-identical to numpy's.

* SeedSequence (numpy's ``bit_generator.pyx``): the entropy is the seed's two
  little-endian 32-bit words.  A seed below 2**32 has one word, but the pool
  (4 words) is padded by hashing zeros, so ``[w0, 0]`` gives the same pool,
  and pool words 2 and 3 start as constants.  Each source word then hashes
  its 3 destinations.  The pool lives in the rows of one 7-row ``uint32``
  array, laid out so that each source's destinations are 3 adjacent rows:
  one 3-row hash and an in-place update per source, with a row copied
  forward after each of the first three, and the final pool in the last 4
  rows.  ``generate_state(4, uint64)`` hashes the pool twice into 8 words
  written straight into the low and high halves of the 4 ``uint64`` seed
  words.  The hash constants never depend on the entropy, so they are
  computed once.
* PCG64 (O'Neill 2014, XSL-RR 128/64): ``initstate = s0 << 64 | s1`` and
  ``initseq = s2 << 64 | s3``.  Seeding sets ``state = 0``, ``inc = initseq
  << 1 | 1``, steps, adds ``initstate`` and steps again.  Each draw steps,
  then outputs; the double is ``(x >> 11) * 2**-53``.
* Jump-ahead: a step is ``state * M + inc`` modulo 2**128, so the state at
  draw ``j`` (1..k) is ``M**(j+1) * initstate + C_(j+2) * inc``, where
  ``C_j = M**0 + ... + M**(j-1)``.  The constants are Python integers,
  cached per ``k``, and all ``k`` draws of every seed come from one
  ``(k, N)`` pass: two constant-times-variable products and one add.

128-bit values are ``(hi, lo)`` pairs of ``uint64`` words.  A product's low
word is the wrapping ``uint64`` product; only its high word is built from
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


def _hashmix(value: int, xor: int, mult: int) -> int:
    """SeedSequence's hashmix of one word, in Python integers."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> 16)


def _as_arrays(pairs: list[tuple[int, int]], shape: tuple[int, ...]) -> tuple:
    """``pairs`` as xor and multiply ``uint32`` arrays of ``shape``."""
    xor, mult = np.array(pairs, np.uint32).T
    return xor.reshape(shape), mult.reshape(shape)


# mix_entropy: 4 hashmix calls fill the pool, then 12 mix it in (source,
# destination) loop order, 3 per source, destinations ascending; a seed's 2
# words leave no entropy over.  Pool words 2 and 3 hash zeros.
_MIX_ENTROPY = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE**2)
_ZERO_HASHES = np.array(
    [[_hashmix(0, *pair)] for pair in _MIX_ENTROPY[2:_POOL_SIZE]], np.uint32
)
# The seed's words go to pool rows 0 (word 1) and 3 (word 0), ``[0:4:3]``.
_FILL_XOR, _FILL_MULT = _as_arrays(_MIX_ENTROPY[1::-1], (2, 1))
# Source ``src`` reads pool row ``(src - 1) % 4`` and updates rows
# ``src:src + 3``, which hold words ``src + 1``, ``src + 2`` and ``src + 3``
# modulo 4, so its 3 constants are taken in that order.
_MIX_CONSTANTS = [
    _as_arrays(
        [_MIX_ENTROPY[_POOL_SIZE + 3 * src + dst - (dst > src)]
         for dst in ((src + step) % _POOL_SIZE for step in (1, 2, 3))],
        (3, 1),
    )
    for src in range(_POOL_SIZE)
]
# generate_state(4, uint64): 8 uint32 words, hashed from pool words 0-3,
# 0-3; word ``4a + 2b + h`` is the low (h = 0) or high half of seed word
# ``2a + b``.
_GENERATE_XOR, _GENERATE_MULT = _as_arrays(
    _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE), (2, 2, 2, 1)
)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, uint64) for each seed, as the
    rows of a ``(4, N)`` ``uint64`` array.

    The pool's 7 rows hold words ``1, 2, 3, 0, 1, 2, 3``; source ``src``
    reads row ``(src - 1) % 4`` and updates rows ``src:src + 3``, after which
    row ``src`` is copied to row ``src + 4`` for the sources still to come.
    """
    n = seeds.shape[0]
    entropy = np.ascontiguousarray(seeds, "<u8").view("<u4").reshape(n, 2).T
    pool = np.empty((7, n), np.uint32)
    fill = pool[0:4:3]
    np.bitwise_xor(entropy[::-1], _FILL_XOR, out=fill)
    fill *= _FILL_MULT
    fill ^= fill >> _XSHIFT
    pool[1:3] = _ZERO_HASHES
    hashed = np.empty((3, n), np.uint32)
    shifted = np.empty((3, n), np.uint32)
    for src, (xor, mult) in enumerate(_MIX_CONSTANTS):
        np.bitwise_xor(pool[(src - 1) % _POOL_SIZE], xor, out=hashed)
        hashed *= mult
        np.right_shift(hashed, _XSHIFT, out=shifted)
        hashed ^= shifted
        hashed *= _MIX_MULT_R
        window = pool[src : src + 3]
        window *= _MIX_MULT_L
        window -= hashed
        np.right_shift(window, _XSHIFT, out=shifted)
        window ^= shifted
        if src < 3:
            pool[src + 4] = pool[src]
    # Each seed word's low and high halves are adjacent: the last op of each
    # pair of seed words writes through the transposed view, and the halves
    # read as ``uint64`` words of their own.
    halves = np.empty((2, 2, n, 2), "<u4")
    pairs = halves.transpose(0, 1, 3, 2)
    words = pool[3:].reshape(2, 2, n)
    for pair, xor, mult in zip(pairs, _GENERATE_XOR, _GENERATE_MULT):
        hashed = words ^ xor
        hashed *= mult
        np.bitwise_xor(hashed, hashed >> _XSHIFT, out=pair)
    return halves.view("<u8").reshape(4, n)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High words of the 128-bit products of the ``uint64`` words ``a`` and
    ``b``, broadcast, from their 32-bit limbs."""
    a_lo, a_hi = a & _LOW32, a >> _UINT64[32]
    b_lo, b_hi = b & _LOW32, b >> _UINT64[32]
    # No sum overflows: a product of two limbs plus a 32-bit word is below
    # 2**64, and the last add yields the high word itself.
    low = a_lo * b_lo
    low >>= _UINT64[32]
    high = a_hi * b_lo
    high += low
    np.bitwise_and(high, _LOW32, out=low)
    high >>= _UINT64[32]
    cross = a_lo * b_hi
    low += cross
    low >>= _UINT64[32]
    high += low
    np.multiply(a_hi, b_hi, out=cross)
    high += cross
    return high


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
    # state = power * initstate + sum * inc, modulo 2**128.
    hi = _mulhi(s1, power_lo)
    hi += _mulhi(inc_lo, sum_lo)
    hi += s1 * power_hi
    hi += s0 * power_lo
    hi += inc_lo * sum_hi
    hi += inc_hi * sum_lo
    lo = s1 * power_lo
    term = inc_lo * sum_lo
    lo += term
    hi += lo < term  # the low words' carry
    # XSL-RR: rotate hi ^ lo right by hi's top 6 bits.
    rot = hi >> _UINT64[58]
    hi ^= lo
    np.right_shift(hi, rot, out=lo)
    np.negative(rot, out=rot)
    rot &= _UINT64[63]
    hi <<= rot
    hi |= lo
    hi >>= _UINT64[11]
    return np.multiply(hi, 2.0**-53).T
